// Unit tests for the L4 packet model and NAT connection table.
#include <gtest/gtest.h>

#include <array>
#include <cstdint>
#include <map>
#include <optional>
#include <utility>

#include "l4/connection_table.hpp"
#include "l4/packet.hpp"
#include "util/assert.hpp"
#include "util/rng.hpp"

namespace sharegrid::l4 {
namespace {

const Endpoint kClient{100, 5000};
const Endpoint kClient2{100, 5001};
const Endpoint kVip{10, 80};
const Endpoint kServerA{200, 80};
const Endpoint kServerB{201, 80};

TEST(ConnectionTable, EstablishLookupRelease) {
  ConnectionTable table;
  EXPECT_FALSE(table.lookup(kClient, kVip).has_value());

  table.establish(kClient, kVip, kServerA);
  ASSERT_TRUE(table.lookup(kClient, kVip).has_value());
  EXPECT_EQ(*table.lookup(kClient, kVip), kServerA);
  EXPECT_EQ(table.active_connections(), 1u);

  table.release(kClient, kVip);
  EXPECT_FALSE(table.lookup(kClient, kVip).has_value());
  EXPECT_EQ(table.active_connections(), 0u);
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
  EXPECT_EQ(*table.lookup(kClient, kVip), kServerA);
  EXPECT_EQ(*table.lookup(kClient2, kVip), kServerB);
}

TEST(ConnectionTable, AffinityHintSurvivesRelease) {
  // SSL-style persistence: a later connection from the same client endpoint
  // prefers the server that handled the previous one.
  ConnectionTable table;
  table.establish(kClient, kVip, kServerB);
  table.release(kClient, kVip);
  ASSERT_TRUE(table.affinity_hint(kClient, kVip).has_value());
  EXPECT_EQ(*table.affinity_hint(kClient, kVip), kServerB);
  // A different client port has no hint.
  EXPECT_FALSE(table.affinity_hint(kClient2, kVip).has_value());
}

TEST(ConnectionTable, AffinityTracksLatestServer) {
  ConnectionTable table;
  table.establish(kClient, kVip, kServerA);
  table.release(kClient, kVip);
  table.establish(kClient, kVip, kServerB);
  EXPECT_EQ(*table.affinity_hint(kClient, kVip), kServerB);
}

TEST(ConnectionTable, ForwardRewriteSetsServerDestination) {
  Packet syn;
  syn.kind = PacketKind::kSyn;
  syn.src = kClient;
  syn.dst = kVip;
  const Packet out = ConnectionTable::rewrite_to_server(syn, kServerA);
  EXPECT_EQ(out.dst, kServerA);
  EXPECT_EQ(out.src, kClient);  // source untouched on the forward path (NAT)
}

TEST(ConnectionTable, ReverseRewriteMasksServerBehindVip) {
  Packet reply;
  reply.kind = PacketKind::kData;
  reply.src = kServerA;
  reply.dst = kClient;
  const Packet out = ConnectionTable::rewrite_to_client(reply, kVip, kClient);
  EXPECT_EQ(out.src, kVip);  // client only ever sees the virtual address
  EXPECT_EQ(out.dst, kClient);
}

/// The table as two std::maps, one of open flows and one of hints: the
/// shape the merged table replaced.
class ReferenceTable {
 public:
  void establish(const Endpoint& client, const Endpoint& vip,
                 const Endpoint& server) {
    open_[{client, vip}] = server;
    hints_[{client, vip}] = server;
  }
  void release(const Endpoint& client, const Endpoint& vip) {
    open_.erase({client, vip});
  }
  std::optional<Endpoint> lookup(const Endpoint& client,
                                 const Endpoint& vip) const {
    return find(open_, client, vip);
  }
  std::optional<Endpoint> affinity_hint(const Endpoint& client,
                                        const Endpoint& vip) const {
    return find(hints_, client, vip);
  }
  std::size_t active_connections() const { return open_.size(); }
  std::size_t flows() const { return hints_.size(); }

 private:
  using Map = std::map<std::pair<Endpoint, Endpoint>, Endpoint>;
  static std::optional<Endpoint> find(const Map& map, const Endpoint& client,
                                      const Endpoint& vip) {
    const auto it = map.find({client, vip});
    if (it == map.end()) return std::nullopt;
    return it->second;
  }
  Map open_;
  Map hints_;
};

// Seeded operations against the reference: establish (including over an
// open flow), release (including unknown and repeated releases), lookup,
// affinity_hint and active_connections. Client hosts share ports and vips
// share a host, so keys differ in a single field, and the hosts set the
// high bits the packed key must keep.
TEST(ConnectionTable, DifferentialAgainstTwoMapReference) {
  const std::array<std::uint32_t, 4> hosts = {7, 0x10007, 0x0C000007,
                                              0xFFFFFFFF};
  const std::array<std::uint16_t, 5> ports = {1024, 1025, 5119, 80, 65535};
  const std::array<Endpoint, 3> vips = {
      Endpoint{0x0A000000, 80}, Endpoint{0x0A000000, 443},
      Endpoint{0x0A000001, 80}};
  const std::array<Endpoint, 5> servers = {
      Endpoint{0x14000000, 80}, Endpoint{0x14000001, 80},
      Endpoint{0x14000000, 8080}, Endpoint{0x14001000, 80},
      Endpoint{0, 0}};
  for (const std::uint64_t seed : {1u, 2u, 3u}) {
    Rng rng(seed);
    ConnectionTable table;
    ReferenceTable reference;
    std::size_t reopened = 0;
    std::size_t idle_releases = 0;
    for (int op = 0; op < 10000; ++op) {
      const Endpoint client{hosts[rng.bounded(hosts.size())],
                            ports[rng.bounded(ports.size())]};
      const Endpoint vip = vips[rng.bounded(vips.size())];
      switch (rng.bounded(5)) {
        case 0:
        case 1: {
          if (reference.lookup(client, vip)) ++reopened;
          const Endpoint server = servers[rng.bounded(servers.size())];
          table.establish(client, vip, server);
          reference.establish(client, vip, server);
          break;
        }
        case 2:
          if (!reference.lookup(client, vip)) ++idle_releases;
          table.release(client, vip);
          reference.release(client, vip);
          break;
        case 3:
          ASSERT_EQ(table.lookup(client, vip), reference.lookup(client, vip))
              << "seed " << seed << " op " << op;
          break;
        default:
          ASSERT_EQ(table.affinity_hint(client, vip),
                    reference.affinity_hint(client, vip))
              << "seed " << seed << " op " << op;
          break;
      }
      ASSERT_EQ(table.active_connections(), reference.active_connections())
          << "seed " << seed << " op " << op;
      ASSERT_EQ(table.flows(), reference.flows());
      ASSERT_NO_THROW(table.audit());
    }
    // Every kind of operation happened, on a well-filled table.
    EXPECT_GT(reopened, 100u);
    EXPECT_GT(idle_releases, 100u);
    EXPECT_EQ(table.flows(), hosts.size() * ports.size() * vips.size());
  }
}

TEST(ConnectionTable, FullVipListStillIndexesEveryVip) {
  // The 16-bit vip index reaches all 65,536 vips, and not one more.
  ConnectionTable table;
  for (std::uint32_t v = 0; v < ConnectionTable::kMaxVips; ++v)
    table.establish(kClient, {0x0A000000u + v, 80}, kServerA);
  EXPECT_EQ(table.active_connections(), ConnectionTable::kMaxVips);
  EXPECT_EQ(*table.affinity_hint(kClient, {0x0A00FFFFu, 80}), kServerA);
  EXPECT_THROW(table.establish(kClient, {0x0B000000u, 80}, kServerA),
               ContractViolation);
  // The refused flow left no entry, and known vips still work.
  EXPECT_EQ(table.flows(), ConnectionTable::kMaxVips);
  EXPECT_FALSE(table.affinity_hint(kClient, {0x0B000000u, 80}).has_value());
  table.establish(kClient2, {0x0A000000u, 80}, kServerB);
  EXPECT_EQ(*table.lookup(kClient2, {0x0A000000u, 80}), kServerB);
  EXPECT_NO_THROW(table.audit());
}

TEST(Endpoint, OrderingAndEquality) {
  EXPECT_EQ(kClient, (Endpoint{100, 5000}));
  EXPECT_NE(kClient, kClient2);
  EXPECT_LT(kClient, kClient2);
  EXPECT_LT(kVip, kClient);
}

TEST(Endpoint, ToStringFormat) {
  EXPECT_EQ(to_string(kClient), "h100:5000");
}

}  // namespace
}  // namespace sharegrid::l4
