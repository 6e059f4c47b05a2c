// Unit tests for the combining tree's shape and the combining-tree /
// pairwise-exchange aggregation strategies.
#include <gtest/gtest.h>

#include <algorithm>
#include <vector>

#include "coord/combining_tree.hpp"
#include "sim/simulator.hpp"

namespace sharegrid::coord {
namespace {

struct Participant {
  std::vector<double> local;
  std::vector<std::vector<double>> received;
  std::vector<SimTime> received_at;
};

/// Attaches participant i as member i.
void attach_all(SnapshotTransport& exchange, sim::Simulator& sim,
                std::vector<Participant>& parts) {
  for (std::size_t i = 0; i < parts.size(); ++i) {
    Participant* p = &parts[i];
    exchange.attach(
        i, [p] { return p->local; },
        [p, &sim](std::uint64_t, const std::vector<double>& agg) {
          p->received.push_back(agg);
          p->received_at.push_back(sim.now());
        });
  }
}

// --- Tree shape ------------------------------------------------------------

/// The tree keeps no parent or child arrays, so its shape is read off one
/// round's delivery times: the aggregate leaves the root once the deepest
/// report has climbed `depth` links, and reaches member m after
/// `member_depths[m]` more.
struct ObservedShape {
  std::size_t depth = 0;
  std::vector<std::size_t> member_depths;
  std::uint64_t messages = 0;  // over the round
};

ObservedShape observe_one_round(std::size_t members, std::size_t fanout) {
  constexpr SimTime kStart = 100;
  constexpr SimDuration kLinkDelay = 5;
  sim::Simulator sim;
  CombiningTree tree(&sim, members, 1,
                     {.period = 1000,
                      .link_delay = kLinkDelay,
                      .first_round = kStart,
                      .fanout = fanout});
  std::vector<Participant> parts(members);
  for (auto& p : parts) p.local = {1.0};
  attach_all(tree, sim, parts);

  tree.start();
  sim.run_until(kStart + 999);  // exactly one round
  EXPECT_EQ(tree.rounds_completed(), 1u);
  ObservedShape shape;
  shape.messages = tree.messages_sent();
  std::vector<std::size_t> hops;  // links crossed before member m receives
  for (const Participant& p : parts) {
    if (p.received.size() != 1) {
      ADD_FAILURE() << "a member received " << p.received.size()
                    << " aggregates in one round";
      return shape;
    }
    EXPECT_DOUBLE_EQ(p.received[0][0], static_cast<double>(members));
    const SimDuration lag = p.received_at[0] - kStart;
    EXPECT_EQ(lag % kLinkDelay, 0);
    hops.push_back(static_cast<std::size_t>(lag / kLinkDelay));
  }
  // The deepest member is reached after `depth` links up and `depth` down.
  const std::size_t most = *std::max_element(hops.begin(), hops.end());
  EXPECT_EQ(most % 2, 0u);
  shape.depth = most / 2;
  for (const std::size_t h : hops)
    shape.member_depths.push_back(h - shape.depth);
  return shape;
}

TEST(TreeTopology, StarShape) {
  // Fanout 0: every member is a child of the root.
  const ObservedShape star = observe_one_round(4, 0);
  EXPECT_EQ(star.depth, 1u);
  EXPECT_EQ(star.member_depths, (std::vector<std::size_t>{1, 1, 1, 1}));
  EXPECT_EQ(star.messages, 8u);
}

TEST(TreeTopology, BalancedShape) {
  // Fanout 2 over 6 members, 7 nodes with the root: members 0 and 1 (nodes
  // 1 and 2) are the root's children, members 2..5 (nodes 3..6) theirs.
  const ObservedShape tree = observe_one_round(6, 2);
  EXPECT_EQ(tree.depth, 2u);
  EXPECT_EQ(tree.member_depths,
            (std::vector<std::size_t>{1, 1, 2, 2, 2, 2}));
  EXPECT_EQ(tree.messages, 12u);
}

TEST(TreeTopology, SingleNode) {
  // The smallest tree: one member under the virtual root, which hands the
  // member's own sample back to it.
  const ObservedShape single = observe_one_round(1, 0);
  EXPECT_EQ(single.depth, 1u);
  EXPECT_EQ(single.member_depths, (std::vector<std::size_t>{1}));
  EXPECT_EQ(single.messages, 2u);
}

// --- CombiningTree ---------------------------------------------------------

TEST(CombiningTree, AggregatesElementwiseSums) {
  sim::Simulator sim;
  CombiningTree tree(&sim, 3, 2, {.period = 100});
  std::vector<Participant> parts(3);
  parts[0].local = {1.0, 10.0};
  parts[1].local = {2.0, 20.0};
  parts[2].local = {3.0, 30.0};
  attach_all(tree, sim, parts);

  tree.start();
  sim.run_until(50);
  for (const auto& p : parts) {
    ASSERT_EQ(p.received.size(), 1u);
    EXPECT_DOUBLE_EQ(p.received[0][0], 6.0);
    EXPECT_DOUBLE_EQ(p.received[0][1], 60.0);
  }
}

TEST(CombiningTree, UsesTwoNMinusOneMessagesPerRound) {
  // n tree nodes, counting the virtual root: n - 1 reports go up and n - 1
  // broadcasts come down.
  sim::Simulator sim;
  const std::size_t n = 8;
  CombiningTree tree(&sim, n - 1, 1,
                     {.period = 100, .link_delay = 1, .fanout = 2});
  std::vector<Participant> parts(n - 1);
  for (auto& p : parts) p.local = {1.0};
  attach_all(tree, sim, parts);

  tree.start();
  sim.run_until(99);  // exactly one round
  EXPECT_EQ(tree.rounds_completed(), 1u);
  EXPECT_EQ(tree.messages_sent(), 2 * (n - 1));
}

// The shape, pinned by what it does: a round sends one report up and one
// broadcast down per member (2R messages over R + 1 nodes), and member m
// (node m + 1) first receives once the deepest report has reached the root
// and the broadcast has come down to m's depth. Depths are written out
// here, not derived from the parent rule: node i's parent is (i - 1) / k,
// with k = R for a star. Rounds start faster than the deepest round trip,
// so the tree must keep as many in flight as its depth implies.
TEST(CombiningTree, FanoutSetsMessagesAndLagPerMember) {
  struct Row {
    std::size_t members;
    std::size_t fanout;
    std::size_t tree_depth;                  // depth of node R
    std::vector<std::size_t> member_depths;  // depth of node m + 1
  };
  const std::vector<Row> rows = {
      {1, 0, 1, {1}},
      {3, 0, 1, {1, 1, 1}},
      {6, 2, 2, {1, 1, 2, 2, 2, 2}},
      {7, 2, 3, {1, 1, 2, 2, 2, 2, 3}},
      {16, 4, 2, {1, 1, 1, 1, 2, 2, 2, 2, 2, 2, 2, 2, 2, 2, 2, 2}},
  };
  constexpr SimTime kFirstRound = 100;
  constexpr SimDuration kLinkDelay = 5;
  constexpr SimDuration kPeriod = 2;
  constexpr std::uint64_t kRounds = 20;
  for (const Row& row : rows) {
    SCOPED_TRACE(testing::Message() << row.members << " members, fanout "
                                    << row.fanout);
    ASSERT_EQ(row.member_depths.size(), row.members);
    sim::Simulator sim;
    CombiningTree tree(&sim, row.members, 1,
                       {.period = kPeriod,
                        .link_delay = kLinkDelay,
                        .first_round = kFirstRound,
                        .fanout = row.fanout});
    std::vector<Participant> parts(row.members);
    for (std::size_t m = 0; m < row.members; ++m)
      parts[m].local = {static_cast<double>(m + 1)};
    attach_all(tree, sim, parts);

    tree.start();
    sim.run_until(kFirstRound + static_cast<SimTime>(kRounds - 1) * kPeriod);
    tree.stop();
    sim.run_until(kFirstRound + 1000);  // drain the rounds in flight
    EXPECT_EQ(tree.rounds_completed(), kRounds);
    EXPECT_EQ(tree.messages_sent(), 2 * row.members * kRounds);
    const double total =
        static_cast<double>(row.members * (row.members + 1) / 2);
    for (std::size_t m = 0; m < row.members; ++m) {
      SCOPED_TRACE(testing::Message() << "member " << m);
      ASSERT_EQ(parts[m].received.size(), kRounds);
      EXPECT_EQ(parts[m].received_at[0],
                kFirstRound +
                    static_cast<SimDuration>(row.tree_depth +
                                             row.member_depths[m]) *
                        kLinkDelay);
      for (const auto& agg : parts[m].received)
        EXPECT_DOUBLE_EQ(agg[0], total);
    }
  }
}

TEST(CombiningTree, LinkDelayLagsDelivery) {
  sim::Simulator sim;
  // Two members under the virtual root, 5 time-unit links: the aggregate
  // reaches them at round_start + 2 * 5.
  CombiningTree tree(&sim, 2, 1,
                     {.period = 1000, .link_delay = 5, .first_round = 100});
  std::vector<Participant> parts(2);
  parts[0].local = {4.0};
  parts[1].local = {8.0};
  attach_all(tree, sim, parts);

  tree.start();
  sim.run_until(200);
  ASSERT_EQ(parts[0].received.size(), 1u);
  EXPECT_EQ(parts[0].received_at[0], 110);
  EXPECT_DOUBLE_EQ(parts[0].received[0][0], 12.0);
}

TEST(CombiningTree, OverlappingRoundsStayConsistent) {
  sim::Simulator sim;
  // A binary tree of depth 2 lags 2 * 2 * 4 = 16 > the period of 3: several
  // rounds in flight at once must not mix their sums.
  CombiningTree tree(&sim, 6, 1,
                     {.period = 3, .link_delay = 4, .fanout = 2});
  std::vector<Participant> parts(6);
  for (auto& p : parts) p.local = {1.0};
  attach_all(tree, sim, parts);

  tree.start();
  sim.run_until(100);
  ASSERT_GE(parts[5].received.size(), 5u);
  for (const auto& agg : parts[5].received) EXPECT_DOUBLE_EQ(agg[0], 6.0);
}

TEST(CombiningTree, InteriorNodesMayHaveNoProvider) {
  sim::Simulator sim;
  // Fanout 2 over 3 members: member 0 (node 1) combines member 2's report.
  CombiningTree tree(&sim, 3, 1, {.period = 100, .fanout = 2});
  std::vector<Participant> parts(3);
  parts[1].local = {5.0};
  parts[2].local = {7.0};
  attach_all(tree, sim, parts);
  // Member 0 again, now without a provider.
  std::vector<double> interior_received;
  tree.attach(0, nullptr,
              [&interior_received](std::uint64_t,
                                   const std::vector<double>& agg) {
                interior_received.push_back(agg[0]);
              });

  tree.start();
  sim.run_until(10);
  ASSERT_EQ(parts[2].received.size(), 1u);
  EXPECT_DOUBLE_EQ(parts[2].received[0][0], 12.0);
  EXPECT_EQ(interior_received, (std::vector<double>{12.0}));
}

TEST(CombiningTree, StopHaltsRounds) {
  sim::Simulator sim;
  CombiningTree tree(&sim, 1, 1, {.period = 10});
  std::vector<Participant> parts(1);
  parts[0].local = {1.0};
  attach_all(tree, sim, parts);

  tree.start();
  sim.run_until(25);
  tree.stop();
  const auto rounds = tree.rounds_completed();
  sim.run_until(200);
  EXPECT_EQ(tree.rounds_completed(), rounds);
}

TEST(CombiningTree, FailedNodeStallsAggregation) {
  sim::Simulator sim;
  CombiningTree tree(&sim, 2, 1, {.period = 10});
  std::vector<Participant> parts(2);
  parts[0].local = {1.0};
  parts[1].local = {2.0};
  attach_all(tree, sim, parts);

  tree.start();
  sim.run_until(25);  // rounds at 0, 10, 20 complete
  EXPECT_EQ(parts[0].received.size(), 3u);

  // Member 1 fails: no further round can complete, because the root waits
  // on all children; consumers keep their last snapshot.
  tree.set_member_failed(1, true);
  sim.run_until(85);
  EXPECT_EQ(parts[0].received.size(), 3u);
  EXPECT_GE(tree.rounds_abandoned(), 5u);

  // Recovery: rounds resume and deliver fresh sums.
  tree.set_member_failed(1, false);
  sim.run_until(120);
  EXPECT_GT(parts[0].received.size(), 3u);
  EXPECT_DOUBLE_EQ(parts[0].received.back()[0], 3.0);
}

// --- PairwiseExchange --------------------------------------------------------

TEST(PairwiseExchange, DeliversSumsWithQuadraticMessages) {
  sim::Simulator sim;
  const std::size_t n = 6;
  PairwiseExchange exchange(&sim, n, 1, {.period = 100, .link_delay = 2});
  std::vector<Participant> parts(n);
  for (std::size_t i = 0; i < n; ++i)
    parts[i].local = {static_cast<double>(i + 1)};
  attach_all(exchange, sim, parts);

  exchange.start();
  sim.run_until(50);
  for (const auto& p : parts) {
    ASSERT_EQ(p.received.size(), 1u);
    EXPECT_DOUBLE_EQ(p.received[0][0], 21.0);  // 1+2+...+6
  }
  EXPECT_EQ(exchange.messages_sent(), n * (n - 1));
}

TEST(PairwiseExchange, MessageCountDominatesCombiningTree) {
  // The paper's scalability claim: 2(n-1) vs n(n-1) messages per round.
  for (std::size_t n : {4u, 8u, 16u}) {
    EXPECT_LT(2 * (n - 1), n * (n - 1));
  }
}

}  // namespace
}  // namespace sharegrid::coord
