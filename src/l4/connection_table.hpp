// NAT connection table of the Layer-4 redirector (§4.2).
//
// The paper's L4 prototype is a Linux Virtual Server kernel module using
// NAT: on a TCP SYN it picks a server, rewrites the destination and records
// the connection so later packets follow it. The simulator keeps what that
// record decides: a flow is (client endpoint, vip), where the vip is the
// index of the principal whose service the client dialed, and its value is
// the index of the server machine handling it. Entries are created on
// admitted SYNs and closed when the reply leaves. A closed entry stays
// behind as the flow's *affinity hint*: the last server used for that
// (client endpoint, service), which a new connection from the same
// endpoint prefers when agreements allow (SSL-style persistence).
//
// One 12-byte entry holds both roles. The key packs the client host and
// port with the 16-bit vip; the value packs the 31-bit server index with
// an "open" bit. Hints are never evicted: a client machine dials from
// 4,096 source ports in turn, so a port comes back about ten seconds later
// at Figure 10's 400 req/s, and that is when its hint picks the server
// (docs/sim-performance.md).
#pragma once

#include <cstddef>
#include <cstdint>
#include <optional>

#include "util/flat_map.hpp"

namespace sharegrid::l4 {

/// The client end of a flow: a host:port pair (host ids are simulator node
/// ids, not real IPs).
struct Endpoint {
  std::uint32_t host = 0;
  std::uint16_t port = 0;

  auto operator<=>(const Endpoint&) const = default;
};

/// NAT mappings plus client-affinity hints, one entry per (client endpoint,
/// vip) flow the table has seen.
class ConnectionTable {
 public:
  /// Vips and servers an entry's index fields can name.
  static constexpr std::size_t kMaxVips = std::size_t{1} << 16;
  static constexpr std::size_t kMaxServers = std::size_t{1} << 31;

  /// Flow key: the client endpoint and the vip.
  struct FlowKey {
    std::uint32_t client_host = 0;
    std::uint16_t client_port = 0;
    std::uint16_t vip = 0;

    bool operator==(const FlowKey&) const = default;
  };

  /// Flow value: the server index, and whether the connection is open. A
  /// closed flow is an affinity hint.
  struct Flow {
    static constexpr std::uint32_t kOpen = std::uint32_t{1} << 31;
    std::uint32_t bits = 0;

    std::uint32_t server() const { return bits & ~kOpen; }
    bool open() const { return (bits & kOpen) != 0; }
  };

  struct FlowKeyHash {
    std::size_t operator()(const FlowKey& key) const {
      return static_cast<std::size_t>(
          util::mix64((std::uint64_t{key.client_host} << 32) |
                      (std::uint64_t{key.client_port} << 16) | key.vip));
    }
  };

  using FlowMap = util::FlatHashMap<FlowKey, Flow, FlowKeyHash>;

  /// Registers an admitted connection client->vip handled by @p server.
  /// Overwrites any earlier entry for the same flow, open or closed. Every
  /// operation takes `vip < kMaxVips` as a precondition; establish() also
  /// takes `server < kMaxServers`.
  void establish(const Endpoint& client, std::size_t vip, std::size_t server);

  /// Closes the flow (connection teardown), keeping its server as the
  /// affinity hint. No-op when the flow is unknown or already closed.
  void release(const Endpoint& client, std::size_t vip);

  /// Last server that served this (client endpoint, vip) pair, open or
  /// closed, if any — the affinity hint consulted when admitting a *new*
  /// connection. Keyed by the full client endpoint: one host:port is one
  /// end-user session, while different users on the same machine still
  /// spread across servers.
  std::optional<std::size_t> affinity_hint(const Endpoint& client,
                                           std::size_t vip) const;

  /// Open flows; a counter, not a scan.
  std::size_t active_connections() const { return open_flows_; }
  /// Flows remembered, open or closed.
  std::size_t flows() const { return flows_.size(); }

  /// Checks the table's invariants against the caller's @p vips principals
  /// and @p servers machines (audit::audit_connection_table): a scan of
  /// every flow, so callers run it per window, not per packet.
  void audit(std::size_t vips, std::size_t servers) const;

 private:
  static FlowKey key_of(const Endpoint& client, std::size_t vip);

  FlowMap flows_;
  std::size_t open_flows_ = 0;
};

}  // namespace sharegrid::l4
