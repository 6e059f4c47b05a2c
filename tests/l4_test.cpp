// Unit tests for the L4 NAT connection table.
#include <gtest/gtest.h>

#include <array>
#include <cstddef>
#include <cstdint>
#include <map>
#include <optional>
#include <string>
#include <utility>
#include <vector>

#include "audit/invariant_auditor.hpp"
#include "l4/connection_table.hpp"
#include "util/assert.hpp"
#include "util/rng.hpp"

namespace sharegrid::l4 {
namespace {

using Hint = std::optional<std::size_t>;

const Endpoint kClient{100, 5000};
const Endpoint kClient2{100, 5001};
constexpr std::size_t kVip = 3;
constexpr std::size_t kServerA = 0;
constexpr std::size_t kServerB = 1;
constexpr std::size_t kLastVip = ConnectionTable::kMaxVips - 1;
constexpr std::size_t kLastServer = ConnectionTable::kMaxServers - 1;

/// A pick that ignores the hint and uses @p server.
auto use(std::size_t server) {
  return [server](Hint) { return server; };
}

/// The hint open() hands its pick for client->vip; the flow stays open.
Hint hint_of(ConnectionTable& table, const Endpoint& client, std::size_t vip) {
  Hint seen;
  table.open(client, vip, [&](Hint hint) {
    seen = hint;
    return hint.value_or(kServerA);
  });
  return seen;
}

ConnectionTable::FlowKey key_of(const Endpoint& client, std::size_t vip) {
  return {client.host, client.port, static_cast<std::uint16_t>(vip)};
}

void run_audit(const ConnectionTable& table) {
  audit::audit_connection_table(table.state(), ConnectionTable::kMaxVips,
                                ConnectionTable::kMaxServers);
}

TEST(ConnectionTable, EstablishLookupRelease) {
  ConnectionTable table;
  const ConnectionTable::FlowId id =
      table.open(kClient, kVip, [](Hint hint) {
        EXPECT_FALSE(hint.has_value());  // a new flow has no hint
        return kServerA;
      });
  EXPECT_EQ(table.active_connections(), 1u);

  table.close(id);
  EXPECT_EQ(table.active_connections(), 0u);
  EXPECT_EQ(table.flows(), 1u);
  EXPECT_EQ(hint_of(table, kClient, kVip), kServerA);
  EXPECT_EQ(table.flows(), 1u);  // the same flow, reopened
}

TEST(ConnectionTable, ReleaseIsIdempotent) {
  ConnectionTable table;
  EXPECT_THROW(table.close(0), ContractViolation);  // no such flow
  const ConnectionTable::FlowId id = table.open(kClient, kVip, use(kServerA));
  table.close(id);
  table.close(id);
  EXPECT_EQ(table.active_connections(), 0u);
  EXPECT_NO_THROW(run_audit(table));
}

TEST(ConnectionTable, FlowsAreKeyedByFullClientEndpoint) {
  ConnectionTable table;
  const ConnectionTable::FlowId a = table.open(kClient, kVip, use(kServerA));
  const ConnectionTable::FlowId b = table.open(kClient2, kVip, use(kServerB));
  EXPECT_NE(a, b);
  EXPECT_EQ(table.active_connections(), 2u);
  EXPECT_EQ(hint_of(table, kClient, kVip), kServerA);
  EXPECT_EQ(hint_of(table, kClient2, kVip), kServerB);
  EXPECT_EQ(table.active_connections(), 2u);  // reopening counts once
}

TEST(ConnectionTable, AffinityHintSurvivesRelease) {
  // SSL-style persistence: a later connection from the same client endpoint
  // prefers the server that handled the previous one.
  ConnectionTable table;
  table.close(table.open(kClient, kVip, use(kServerB)));
  EXPECT_EQ(hint_of(table, kClient, kVip), kServerB);
  // A different client port has no hint.
  EXPECT_FALSE(hint_of(table, kClient2, kVip).has_value());
}

TEST(ConnectionTable, AffinityTracksLatestServer) {
  ConnectionTable table;
  const ConnectionTable::FlowId id = table.open(kClient, kVip, use(kServerA));
  table.close(id);
  // The pick may overrule the hint; the flow keeps its id.
  EXPECT_EQ(table.open(kClient, kVip, use(kServerB)), id);
  table.close(id);
  EXPECT_EQ(hint_of(table, kClient, kVip), kServerB);
}

/// The table as two std::maps, one of open flows and one of hints: the
/// shape the merged table replaced.
class ReferenceTable {
 public:
  void open(const Endpoint& client, std::size_t vip, std::size_t server) {
    open_[{client, vip}] = server;
    hints_[{client, vip}] = server;
  }
  void close(const Endpoint& client, std::size_t vip) {
    open_.erase({client, vip});
  }
  bool open(const Endpoint& client, std::size_t vip) const {
    return open_.contains({client, vip});
  }
  Hint affinity_hint(const Endpoint& client, std::size_t vip) const {
    const auto it = hints_.find({client, vip});
    if (it == hints_.end()) return std::nullopt;
    return it->second;
  }
  std::size_t active_connections() const { return open_.size(); }
  std::size_t flows() const { return hints_.size(); }

 private:
  using Map = std::map<std::pair<Endpoint, std::size_t>, std::size_t>;
  Map open_;
  Map hints_;
};

// Seeded operations against the reference: open (including over an open
// flow), whose pick must be handed the reference's hint; close by the id
// recorded for the key (including repeated closes, which are no-ops); and
// a lookup through the index. Most first opens of a key go through
// open_new(), as the redirector opens a client's first 4,096 ports, and
// the next open() files them. Client hosts share ports, so keys differ in
// a single field; the hosts set the high bits the packed key must keep,
// and the vips and servers include the largest index each field holds.
// After every operation the open-flow count, the flow count and the audit
// must agree with the reference.
TEST(ConnectionTable, DifferentialAgainstTwoMapReference) {
  const std::array<std::uint32_t, 4> hosts = {7, 0x10007, 0x0C000007,
                                              0xFFFFFFFF};
  const std::array<std::uint16_t, 5> ports = {1024, 1025, 5119, 80, 65535};
  const std::array<std::size_t, 3> vips = {0, 1, kLastVip};
  const std::array<std::size_t, 5> servers = {0, 1, 2, 4096, kLastServer};
  for (const std::uint64_t seed : {1u, 2u, 3u}) {
    Rng rng(seed);
    ConnectionTable table;
    ReferenceTable reference;
    std::map<std::pair<Endpoint, std::size_t>, ConnectionTable::FlowId> ids;
    std::size_t reopened = 0;
    std::size_t idle_closes = 0;
    std::size_t opened_new = 0;
    for (int op = 0; op < 10000; ++op) {
      const Endpoint client{hosts[rng.bounded(hosts.size())],
                            ports[rng.bounded(ports.size())]};
      const std::size_t vip = vips[rng.bounded(vips.size())];
      const auto known = ids.find({client, vip});
      switch (rng.bounded(4)) {
        case 0:
        case 1: {
          if (reference.open(client, vip)) ++reopened;
          const std::size_t server = servers[rng.bounded(servers.size())];
          ConnectionTable::FlowId id = 0;
          if (known == ids.end() && rng.bounded(4) != 0) {
            id = table.open_new(client, vip, server);
            EXPECT_EQ(id, reference.flows()) << "seed " << seed << " op " << op;
            ++opened_new;
          } else {
            id = table.open(client, vip, [&](Hint hint) {
              EXPECT_EQ(hint, reference.affinity_hint(client, vip))
                  << "seed " << seed << " op " << op;
              return server;
            });
          }
          if (known != ids.end()) {
            EXPECT_EQ(id, known->second);
          }
          ids[{client, vip}] = id;
          reference.open(client, vip, server);
          break;
        }
        case 2:
          if (known == ids.end()) break;  // no id to close by
          if (!reference.open(client, vip)) ++idle_closes;
          table.close(known->second);
          reference.close(client, vip);
          break;
        default: {
          // The index reaches filed flows only.
          const auto found = table.state().find(key_of(client, vip));
          const bool filed =
              known != ids.end() && known->second < table.state().indexed;
          ASSERT_EQ(found.has_value(), filed);
          if (found) {
            EXPECT_EQ(*found, known->second);
            EXPECT_EQ(table.state().entry(*found).flow.server(),
                      reference.affinity_hint(client, vip));
          }
          break;
        }
      }
      ASSERT_EQ(table.active_connections(), reference.active_connections())
          << "seed " << seed << " op " << op;
      ASSERT_EQ(table.flows(), reference.flows());
      ASSERT_NO_THROW(run_audit(table));
    }
    // Every kind of operation happened, on a well-filled table.
    EXPECT_GT(reopened, 100u);
    EXPECT_GT(idle_closes, 100u);
    EXPECT_GT(opened_new, 20u);
    EXPECT_EQ(table.flows(), hosts.size() * ports.size() * vips.size());
  }
}

TEST(ConnectionTable, FullVipListStillIndexesEveryVip) {
  // The 16-bit vip reaches all 65,536 vips and the 31-bit server index all
  // 2^31 servers, and neither field one more.
  ConnectionTable table;
  for (std::size_t v = 0; v < ConnectionTable::kMaxVips; ++v)
    table.open(kClient, v, use(kServerA));
  table.open(kClient2, kVip, use(kLastServer));
  EXPECT_EQ(table.active_connections(), ConnectionTable::kMaxVips + 1);
  EXPECT_EQ(hint_of(table, kClient, kLastVip), kServerA);
  EXPECT_EQ(hint_of(table, kClient2, kVip), kLastServer);
  EXPECT_THROW(table.open(kClient2, ConnectionTable::kMaxVips, use(kServerA)),
               ContractViolation);
  EXPECT_THROW(
      table.open(kClient2, kVip + 1, use(ConnectionTable::kMaxServers)),
      ContractViolation);
  // Nor may a pick move an existing flow out of range.
  EXPECT_THROW(table.open(kClient2, kVip, use(ConnectionTable::kMaxServers)),
               ContractViolation);
  // The refused opens left no entry and changed no flow.
  EXPECT_EQ(table.flows(), ConnectionTable::kMaxVips + 1);
  EXPECT_EQ(table.active_connections(), ConnectionTable::kMaxVips + 1);
  EXPECT_FALSE(table.state().find(key_of(kClient2, kVip + 1)).has_value());
  EXPECT_EQ(hint_of(table, kClient2, kVip), kLastServer);
  EXPECT_NO_THROW(run_audit(table));

  // The audit checks each stored index against the caller's counts.
  const auto audit_error = [&](std::size_t vips, std::size_t servers) {
    try {
      audit::audit_connection_table(table.state(), vips, servers);
    } catch (const ContractViolation& e) {
      return std::string(e.what());
    }
    return std::string();
  };
  EXPECT_NE(audit_error(kLastVip, ConnectionTable::kMaxServers)
                .find("l4.vip-index-range"),
            std::string::npos);
  EXPECT_NE(audit_error(ConnectionTable::kMaxVips, kLastServer)
                .find("l4.server-index-range"),
            std::string::npos);
}

// 200,000 flows take the index from 16 words through 14 doublings to
// 2^18, and each doubling files every entry again. The ids open() handed
// out must still close their own flows, and every hint still name its
// server.
TEST(ConnectionTable, IdsSurviveIndexGrowth) {
  constexpr std::size_t kFlows = 200000;
  const auto client_of = [](std::size_t i) {
    return Endpoint{static_cast<std::uint32_t>(i / 4096),
                    static_cast<std::uint16_t>(1024 + i % 4096)};
  };
  ConnectionTable table;
  std::vector<ConnectionTable::FlowId> ids;
  for (std::size_t i = 0; i < kFlows; ++i)
    ids.push_back(table.open(client_of(i), i % 2, use(i % 7)));
  EXPECT_EQ(table.state().index.size(), std::size_t{1} << 18);
  for (std::size_t i = kFlows; i-- > 0;) {
    table.close(ids[i]);
    ASSERT_EQ(table.active_connections(), i) << "flow " << i;
  }
  EXPECT_EQ(table.flows(), kFlows);
  for (std::size_t i = 0; i < kFlows; ++i)
    ASSERT_EQ(hint_of(table, client_of(i), i % 2), i % 7) << "flow " << i;
  EXPECT_EQ(table.flows(), kFlows);
  EXPECT_NO_THROW(run_audit(table));
}

// A redirector whose clients never dial a port twice opens every flow with
// open_new(): no index is allocated. The first open() files them all, in an
// index grown to the first power of two that keeps 7/8 load with one more
// flow, and finds the hint of a returning port.
TEST(ConnectionTable, OpenNewFilesNothingUntilOpen) {
  constexpr std::size_t kFlows = 10000;
  const auto client_of = [](std::size_t i) {
    return Endpoint{static_cast<std::uint32_t>(i / 4096),
                    static_cast<std::uint16_t>(1024 + i % 4096)};
  };
  ConnectionTable table;
  for (std::size_t i = 0; i < kFlows; ++i) {
    ASSERT_EQ(table.open_new(client_of(i), i % 2, i % 7), i);
    if (i % 3 == 0) table.close(static_cast<ConnectionTable::FlowId>(i));
  }
  EXPECT_TRUE(table.state().index.empty());
  EXPECT_EQ(table.state().indexed, 0u);
  EXPECT_EQ(table.flows(), kFlows);
  EXPECT_EQ(table.active_connections(), kFlows - (kFlows + 2) / 3);
  EXPECT_NO_THROW(run_audit(table));

  // Flow 0's port comes back: closed, its hint names its server.
  EXPECT_EQ(hint_of(table, client_of(0), 0), 0u);
  EXPECT_EQ(table.state().index.size(), std::size_t{1} << 14);
  EXPECT_EQ(table.state().indexed, kFlows);
  EXPECT_EQ(table.flows(), kFlows);
  EXPECT_EQ(table.active_connections(), kFlows - (kFlows + 2) / 3 + 1);
  for (std::size_t i = 0; i < kFlows; ++i) {
    const auto found = table.state().find(key_of(client_of(i), i % 2));
    ASSERT_EQ(found, i) << "flow " << i;
    ASSERT_EQ(table.state().entry(*found).flow.server(), i % 7);
  }
  EXPECT_NO_THROW(run_audit(table));
}

// open_new() trusts its caller that the key is new; the open() that files
// it checks. A refused open changes no flow and leaves the key pending.
TEST(ConnectionTable, OpenNewOfAKnownKeyFailsAtTheNextOpen) {
  {
    ConnectionTable table;
    table.close(table.open(kClient, kVip, use(kServerA)));
    table.open_new(kClient, kVip, kServerB);  // the key was opened before
    EXPECT_THROW(table.open(kClient2, kVip, use(kServerA)), ContractViolation);
    EXPECT_EQ(table.flows(), 2u);
    EXPECT_EQ(table.active_connections(), 1u);
    EXPECT_EQ(table.state().indexed, 1u);
    EXPECT_THROW(table.open(kClient2, kVip, use(kServerA)), ContractViolation);
  }
  {
    ConnectionTable table;
    table.open_new(kClient, kVip, kServerA);
    table.open_new(kClient2, kVip, kServerA);
    table.open_new(kClient, kVip, kServerB);  // pending twice
    EXPECT_THROW(table.open(kClient, kVip + 1, use(kServerA)),
                 ContractViolation);
    EXPECT_EQ(table.flows(), 3u);
    EXPECT_EQ(table.active_connections(), 3u);
    EXPECT_FALSE(table.state().find(key_of(kClient, kVip + 1)).has_value());
  }
  // open_new() checks its own fields as open() does.
  ConnectionTable table;
  EXPECT_THROW(table.open_new(kClient, ConnectionTable::kMaxVips, kServerA),
               ContractViolation);
  EXPECT_THROW(table.open_new(kClient, kVip, ConnectionTable::kMaxServers),
               ContractViolation);
  EXPECT_EQ(table.flows(), 0u);
}

TEST(Endpoint, OrderingAndEquality) {
  EXPECT_EQ(kClient, (Endpoint{100, 5000}));
  EXPECT_NE(kClient, kClient2);
  EXPECT_LT(kClient, kClient2);
  EXPECT_LT((Endpoint{10, 80}), kClient);
}

}  // namespace
}  // namespace sharegrid::l4
