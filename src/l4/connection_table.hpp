// NAT connection table of the Layer-4 redirector (§4.2).
//
// The paper's L4 prototype is a Linux Virtual Server kernel module using
// NAT: on a TCP SYN it picks a server, rewrites the destination and records
// the connection so later packets follow it. The simulator keeps what that
// record decides: a flow is (client endpoint, vip), where the vip is the
// index of the principal whose service the client dialed, and its value is
// the index of the server machine handling it. Entries are opened on
// admitted SYNs and closed when the reply leaves. A closed entry stays
// behind as the flow's *affinity hint*: the last server used for that
// (client endpoint, service), which a new connection from the same
// endpoint prefers when agreements allow (SSL-style persistence).
//
// One 12-byte entry holds both roles. The key packs the client host and
// port with the 16-bit vip; the value packs the 31-bit server index with
// an "open" bit. A flow's id is its entry's position: entries are appended
// in chunks of 1,024 that never move, so an id names its flow for the
// table's life. An open-addressing index of 4-byte words, each an 8-bit
// hash tag and an id, finds a key's entry. A connection whose key the
// caller knows to be new opens with open_new(), which appends its entry
// without touching the index and leaves it *pending*; any other opens with
// open(), which first files every pending entry, then probes the index
// once and returns the id. The request carries the id to close(), which
// clears the open bit without a probe. Hints are never evicted: a client
// machine dials from 4,096 source ports in turn, so a port comes back about
// ten seconds later at Figure 10's 400 req/s, and that is when its hint
// picks the server. Until then its connections open with open_new(), and a
// run whose ports never come back never allocates an index
// (docs/sim-performance.md).
#pragma once

#include <cstddef>
#include <cstdint>
#include <optional>
#include <vector>

#include "util/assert.hpp"

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
  /// Flows one table can hold: an index word stores id + 1 in 24 bits, so
  /// that a zero word is empty.
  static constexpr std::size_t kMaxFlows = (std::size_t{1} << 24) - 1;
  static constexpr std::size_t kChunkEntries = 1024;

  /// Names a flow: its entry's position, which never changes.
  using FlowId = std::uint32_t;

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

  struct Entry {
    FlowKey key;
    Flow flow;
  };

  /// What the table stores, kept in one value so that its audit can read it
  /// and the audit's tests can corrupt a copy. Only open(), open_new() and
  /// close() change a table's state.
  struct State {
    static constexpr std::uint32_t kIdBits = 0xFFFFFF;

    /// Entries by id, kChunkEntries to a chunk.
    std::vector<std::vector<Entry>> chunks;
    std::size_t flows = 0;
    /// Entries filed in the index: ids below it are, and the ids from it to
    /// `flows` are pending, appended by open_new() since the last open().
    std::size_t indexed = 0;
    /// Index words, none or a power of two of them: a word is the key's
    /// hash tag (the hash's top 8 bits) above id + 1, and 0 when empty. A
    /// key's probe starts at its hash modulo the word count.
    std::vector<std::uint32_t> index;
    std::size_t open_flows = 0;

    Entry& entry(FlowId id) {
      return chunks[id / kChunkEntries][id % kChunkEntries];
    }
    const Entry& entry(FlowId id) const {
      return chunks[id / kChunkEntries][id % kChunkEntries];
    }

    /// Index position of @p key's word or, when the key has none, of the
    /// empty word that ends its probe. Needs a nonempty index.
    std::size_t probe(const FlowKey& key, std::uint64_t hash) const {
      const std::size_t mask = index.size() - 1;
      const std::uint32_t tag = tag_of(hash);
      std::size_t at = static_cast<std::size_t>(hash) & mask;
      for (std::uint32_t word = index[at]; word != 0; word = index[at]) {
        if ((word & ~kIdBits) == tag && entry((word & kIdBits) - 1).key == key)
          break;
        at = (at + 1) & mask;
      }
      return at;
    }

    /// The id that @p key's probe reaches, if any; a pending entry is not
    /// reached.
    std::optional<FlowId> find(const FlowKey& key) const;

    static std::uint32_t tag_of(std::uint64_t hash) {
      return static_cast<std::uint32_t>(hash >> 56) << 24;
    }
  };

  /// Opens the flow client->vip with one index probe and returns its id,
  /// after filing every pending entry (see open_new()). @p pick receives
  /// the flow's affinity hint (the server of its last connection, open or
  /// closed; none for a new flow) and returns the server to use. Reopening
  /// an open flow moves it without counting it twice. Preconditions:
  /// `vip < kMaxVips`, every pending key new, fewer than kMaxFlows flows
  /// before a new one, and a picked server below kMaxServers. A refused
  /// open changes no flow; a pending key that was not new stays pending.
  template <class Pick>
  FlowId open(const Endpoint& client, std::size_t vip, Pick&& pick) {
    const FlowKey key = key_of(client, vip);
    const std::uint64_t hash = hash_of(key);
    if (state_.indexed < state_.flows ||
        (state_.flows + 1) * 8 > state_.index.size() * 7)
      file_pending();
    const std::size_t at = state_.probe(key, hash);
    std::uint32_t word = state_.index[at];
    std::optional<std::size_t> hint;
    if (word != 0)
      hint = state_.entry((word & State::kIdBits) - 1).flow.server();
    SHAREGRID_EXPECTS(word != 0 || state_.flows < kMaxFlows);
    const std::size_t server = pick(hint);
    SHAREGRID_EXPECTS(server < kMaxServers);
    if (word == 0) {
      word = State::tag_of(hash) | (append(key) + 1);
      state_.index[at] = word;
      ++state_.indexed;
    }
    const FlowId id = (word & State::kIdBits) - 1;
    Flow& flow = state_.entry(id).flow;
    if (!flow.open()) ++state_.open_flows;
    flow.bits = static_cast<std::uint32_t>(server) | Flow::kOpen;
    return id;
  }

  /// Opens the flow client->vip on @p server with no index probe and returns
  /// its id. The caller knows the key is new, so the flow has no hint: its
  /// entry is appended and left pending, outside the index, until the next
  /// open() files it. The ids, hints and counts are those open() would
  /// give. Preconditions: `vip < kMaxVips`, fewer than kMaxFlows flows and
  /// `server < kMaxServers`; that the key is new, open() checks.
  FlowId open_new(const Endpoint& client, std::size_t vip,
                  std::size_t server) {
    const FlowKey key = key_of(client, vip);
    SHAREGRID_EXPECTS(state_.flows < kMaxFlows);
    SHAREGRID_EXPECTS(server < kMaxServers);
    const FlowId id = append(key);
    state_.entry(id).flow.bits =
        static_cast<std::uint32_t>(server) | Flow::kOpen;
    ++state_.open_flows;
    return id;
  }

  /// Closes flow @p id (connection teardown), keeping its server as the
  /// affinity hint; no index probe. No-op when the flow is already closed.
  /// @p id must come from open() or open_new().
  void close(FlowId id) {
    SHAREGRID_EXPECTS(id < state_.flows);
    Flow& flow = state_.entry(id).flow;
    if (!flow.open()) return;
    flow.bits &= ~Flow::kOpen;
    --state_.open_flows;
  }

  /// Open flows; a counter, not a scan.
  std::size_t active_connections() const { return state_.open_flows; }
  /// Flows remembered, open or closed.
  std::size_t flows() const { return state_.flows; }

  /// The table's entries and index, for audit::audit_connection_table.
  const State& state() const { return state_; }

 private:
  static FlowKey key_of(const Endpoint& client, std::size_t vip) {
    SHAREGRID_EXPECTS(vip < kMaxVips);
    return FlowKey{client.host, client.port, static_cast<std::uint16_t>(vip)};
  }
  /// splitmix64 of the packed key.
  static std::uint64_t hash_of(const FlowKey& key) {
    std::uint64_t x = (std::uint64_t{key.client_host} << 32) |
                      (std::uint64_t{key.client_port} << 16) | key.vip;
    x += 0x9e3779b97f4a7c15ull;
    x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ull;
    x = (x ^ (x >> 27)) * 0x94d049bb133111ebull;
    return x ^ (x >> 31);
  }
  /// Appends a closed entry for @p key and returns its id.
  FlowId append(const FlowKey& key) {
    if (state_.flows % kChunkEntries == 0)
      state_.chunks.emplace_back(kChunkEntries);
    // A new entry starts zeroed, so closed until its caller opens it.
    const auto id = static_cast<FlowId>(state_.flows++);
    state_.entry(id).key = key;
    return id;
  }
  /// Files every pending entry, first growing the index to the first power
  /// of two (16 words at least) that holds every entry and a new one at 7/8
  /// load. A pending key already filed fails a precondition.
  void file_pending();

  State state_;
};

}  // namespace sharegrid::l4
