// Unit tests for the L4 NAT connection table.
#include <gtest/gtest.h>

#include <array>
#include <cstddef>
#include <cstdint>
#include <map>
#include <optional>
#include <string>
#include <utility>

#include "l4/connection_table.hpp"
#include "util/assert.hpp"
#include "util/rng.hpp"

namespace sharegrid::l4 {
namespace {

const Endpoint kClient{100, 5000};
const Endpoint kClient2{100, 5001};
constexpr std::size_t kVip = 3;
constexpr std::size_t kServerA = 0;
constexpr std::size_t kServerB = 1;
constexpr std::size_t kLastVip = ConnectionTable::kMaxVips - 1;
constexpr std::size_t kLastServer = ConnectionTable::kMaxServers - 1;

TEST(ConnectionTable, EstablishLookupRelease) {
  ConnectionTable table;
  EXPECT_FALSE(table.affinity_hint(kClient, kVip).has_value());

  table.establish(kClient, kVip, kServerA);
  EXPECT_EQ(table.affinity_hint(kClient, kVip), kServerA);
  EXPECT_EQ(table.active_connections(), 1u);

  table.release(kClient, kVip);
  EXPECT_EQ(table.active_connections(), 0u);
  EXPECT_EQ(table.flows(), 1u);
}

TEST(ConnectionTable, ReleaseIsIdempotent) {
  ConnectionTable table;
  table.release(kClient, kVip);  // no-op on empty table
  table.establish(kClient, kVip, kServerA);
  table.release(kClient, kVip);
  table.release(kClient, kVip);
  EXPECT_EQ(table.active_connections(), 0u);
}

TEST(ConnectionTable, FlowsAreKeyedByFullClientEndpoint) {
  ConnectionTable table;
  table.establish(kClient, kVip, kServerA);
  table.establish(kClient2, kVip, kServerB);
  EXPECT_EQ(table.affinity_hint(kClient, kVip), kServerA);
  EXPECT_EQ(table.affinity_hint(kClient2, kVip), kServerB);
  EXPECT_EQ(table.active_connections(), 2u);
}

TEST(ConnectionTable, AffinityHintSurvivesRelease) {
  // SSL-style persistence: a later connection from the same client endpoint
  // prefers the server that handled the previous one.
  ConnectionTable table;
  table.establish(kClient, kVip, kServerB);
  table.release(kClient, kVip);
  EXPECT_EQ(table.affinity_hint(kClient, kVip), kServerB);
  // A different client port has no hint.
  EXPECT_FALSE(table.affinity_hint(kClient2, kVip).has_value());
}

TEST(ConnectionTable, AffinityTracksLatestServer) {
  ConnectionTable table;
  table.establish(kClient, kVip, kServerA);
  table.release(kClient, kVip);
  table.establish(kClient, kVip, kServerB);
  EXPECT_EQ(table.affinity_hint(kClient, kVip), kServerB);
}

/// The table as two std::maps, one of open flows and one of hints: the
/// shape the merged table replaced.
class ReferenceTable {
 public:
  void establish(const Endpoint& client, std::size_t vip,
                 std::size_t server) {
    open_[{client, vip}] = server;
    hints_[{client, vip}] = server;
  }
  void release(const Endpoint& client, std::size_t vip) {
    open_.erase({client, vip});
  }
  bool open(const Endpoint& client, std::size_t vip) const {
    return open_.contains({client, vip});
  }
  std::optional<std::size_t> affinity_hint(const Endpoint& client,
                                           std::size_t vip) const {
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

// Seeded operations against the reference: establish (including over an
// open flow), release (including unknown and repeated releases) and
// affinity_hint. Client hosts share ports, so keys differ in a single
// field; the hosts set the high bits the packed key must keep, and the
// vips and servers include the largest index each field holds. After
// every operation the touched flow's hint, the open-flow count and the
// audit must agree with the reference.
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
    std::size_t reopened = 0;
    std::size_t idle_releases = 0;
    for (int op = 0; op < 10000; ++op) {
      const Endpoint client{hosts[rng.bounded(hosts.size())],
                            ports[rng.bounded(ports.size())]};
      const std::size_t vip = vips[rng.bounded(vips.size())];
      switch (rng.bounded(4)) {
        case 0:
        case 1: {
          if (reference.open(client, vip)) ++reopened;
          const std::size_t server = servers[rng.bounded(servers.size())];
          table.establish(client, vip, server);
          reference.establish(client, vip, server);
          break;
        }
        case 2:
          if (!reference.open(client, vip)) ++idle_releases;
          table.release(client, vip);
          reference.release(client, vip);
          break;
        default:
          break;  // a lookup only: the checks below read the flow
      }
      ASSERT_EQ(table.affinity_hint(client, vip),
                reference.affinity_hint(client, vip))
          << "seed " << seed << " op " << op;
      ASSERT_EQ(table.active_connections(), reference.active_connections())
          << "seed " << seed << " op " << op;
      ASSERT_EQ(table.flows(), reference.flows());
      ASSERT_NO_THROW(table.audit(ConnectionTable::kMaxVips,
                                  ConnectionTable::kMaxServers));
    }
    // Every kind of operation happened, on a well-filled table.
    EXPECT_GT(reopened, 100u);
    EXPECT_GT(idle_releases, 100u);
    EXPECT_EQ(table.flows(), hosts.size() * ports.size() * vips.size());
  }
}

TEST(ConnectionTable, FullVipListStillIndexesEveryVip) {
  // The 16-bit vip reaches all 65,536 vips and the 31-bit server index all
  // 2^31 servers, and neither field one more.
  ConnectionTable table;
  for (std::size_t v = 0; v < ConnectionTable::kMaxVips; ++v)
    table.establish(kClient, v, kServerA);
  table.establish(kClient2, kVip, kLastServer);
  EXPECT_EQ(table.active_connections(), ConnectionTable::kMaxVips + 1);
  EXPECT_EQ(table.affinity_hint(kClient, kLastVip), kServerA);
  EXPECT_EQ(table.affinity_hint(kClient2, kVip), kLastServer);
  EXPECT_THROW(table.establish(kClient2, ConnectionTable::kMaxVips, kServerA),
               ContractViolation);
  EXPECT_THROW(
      table.establish(kClient2, kVip + 1, ConnectionTable::kMaxServers),
      ContractViolation);
  // The refused flows left no entry.
  EXPECT_EQ(table.flows(), ConnectionTable::kMaxVips + 1);
  EXPECT_EQ(table.active_connections(), ConnectionTable::kMaxVips + 1);
  EXPECT_FALSE(table.affinity_hint(kClient2, kVip + 1).has_value());
  EXPECT_NO_THROW(table.audit(ConnectionTable::kMaxVips,
                              ConnectionTable::kMaxServers));

  // The audit checks each stored index against the caller's counts.
  const auto audit_error = [&](std::size_t vips, std::size_t servers) {
    try {
      table.audit(vips, servers);
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

TEST(Endpoint, OrderingAndEquality) {
  EXPECT_EQ(kClient, (Endpoint{100, 5000}));
  EXPECT_NE(kClient, kClient2);
  EXPECT_LT(kClient, kClient2);
  EXPECT_LT((Endpoint{10, 80}), kClient);
}

}  // namespace
}  // namespace sharegrid::l4
