// NAT connection table (§4.2): forward and reverse rewrite state.
//
// Keyed by (client endpoint, virtual service endpoint). Entries are created
// on admitted SYNs, looked up for subsequent packets of the connection so
// they reach the same server (connection affinity — required for services
// with pairwise-negotiated state such as SSL), and closed on FIN. A closed
// entry stays behind as the flow's *affinity hint*: the last server used
// for that (client endpoint, service), which a new connection from the same
// endpoint prefers when agreements allow.
//
// One 12-byte entry holds both roles. The key packs the client host and
// port with a 16-bit index into the table's vip list; the value packs a
// 31-bit index into its server list with an "open" bit. Hints are never
// evicted: a client machine dials from 4,096 source ports in turn, so a
// port comes back about ten seconds later at Figure 10's 400 req/s, and
// that is when its hint picks the server (docs/sim-performance.md).
#pragma once

#include <cstddef>
#include <cstdint>
#include <optional>
#include <vector>

#include "l4/packet.hpp"
#include "util/flat_map.hpp"

namespace sharegrid::l4 {

/// Forward/reverse NAT mappings plus client-affinity hints, one entry per
/// (client endpoint, vip) flow the table has seen.
class ConnectionTable {
 public:
  /// Vips and servers an entry's index fields can name.
  static constexpr std::size_t kMaxVips = std::size_t{1} << 16;
  static constexpr std::size_t kMaxServers = std::size_t{1} << 31;

  /// Flow key: the client endpoint and the vip's index in the vip list.
  struct FlowKey {
    std::uint32_t client_host = 0;
    std::uint16_t client_port = 0;
    std::uint16_t vip = 0;

    bool operator==(const FlowKey&) const = default;
  };

  /// Flow value: the server's index in the server list, and whether the
  /// connection is open. A closed flow is an affinity hint.
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
  /// Overwrites any earlier entry for the same flow, open or closed. A
  /// vip or server past kMaxVips or kMaxServers fails a precondition.
  void establish(const Endpoint& client, const Endpoint& vip,
                 const Endpoint& server);

  /// Server currently handling the flow, if it is open.
  std::optional<Endpoint> lookup(const Endpoint& client,
                                 const Endpoint& vip) const;

  /// Closes the flow (connection teardown), keeping its server as the
  /// affinity hint. No-op when the flow is unknown or already closed.
  void release(const Endpoint& client, const Endpoint& vip);

  /// Rewrites an inbound packet's destination to @p server (NAT forward
  /// path); returns the rewritten packet.
  static Packet rewrite_to_server(Packet packet, const Endpoint& server);

  /// Rewrites a server reply so it appears to come from the virtual service
  /// (NAT reverse path).
  static Packet rewrite_to_client(Packet packet, const Endpoint& vip,
                                  const Endpoint& client);

  /// Last server that served this (client endpoint, vip) pair, open or
  /// closed, if any — the affinity hint consulted when admitting a *new*
  /// connection. Keyed by the full client endpoint: one host:port is one
  /// end-user session (SSL-style persistence), while different users on the
  /// same machine still spread across servers.
  std::optional<Endpoint> affinity_hint(const Endpoint& client,
                                        const Endpoint& vip) const;

  /// Open flows; a counter, not a scan.
  std::size_t active_connections() const { return open_flows_; }
  /// Flows remembered, open or closed.
  std::size_t flows() const { return flows_.size(); }

  /// Checks the table's invariants (audit::audit_connection_table): a scan
  /// of every flow, so callers run it per window, not per packet.
  void audit() const;

 private:
  /// Endpoints in first-seen order; an entry stores the index.
  class EndpointList {
   public:
    explicit EndpointList(std::size_t limit) : limit_(limit) {}
    std::optional<std::uint32_t> find(const Endpoint& endpoint) const;
    /// Index of @p endpoint, appending it when new.
    std::uint32_t intern(const Endpoint& endpoint);
    const Endpoint& operator[](std::uint32_t index) const {
      return endpoints_[index];
    }
    std::size_t size() const { return endpoints_.size(); }

   private:
    struct PackedHash {
      std::size_t operator()(std::uint64_t packed) const {
        return static_cast<std::size_t>(util::mix64(packed));
      }
    };
    static std::uint64_t pack(const Endpoint& endpoint) {
      return (std::uint64_t{endpoint.host} << 16) | endpoint.port;
    }
    std::size_t limit_;
    std::vector<Endpoint> endpoints_;
    util::FlatHashMap<std::uint64_t, std::uint32_t, PackedHash> index_;
  };

  /// The flow's key; nullopt when the vip was never established.
  std::optional<FlowKey> key_of(const Endpoint& client,
                                const Endpoint& vip) const;

  EndpointList vips_{kMaxVips};
  EndpointList servers_{kMaxServers};
  FlowMap flows_;
  std::size_t open_flows_ = 0;
};

}  // namespace sharegrid::l4
