// Unit tests for tree topologies and the combining-tree / pairwise-exchange
// aggregation strategies.
#include <gtest/gtest.h>

#include <vector>

#include "coord/combining_tree.hpp"
#include "coord/topology.hpp"
#include "sim/simulator.hpp"

namespace sharegrid::coord {
namespace {

TEST(TreeTopology, StarShape) {
  const TreeTopology t = TreeTopology::star(5);
  EXPECT_TRUE(t.valid());
  EXPECT_EQ(t.root(), 0u);
  EXPECT_EQ(t.depth(), 1u);
  EXPECT_EQ(t.children()[0].size(), 4u);
}

TEST(TreeTopology, ChainShape) {
  const TreeTopology t = TreeTopology::balanced(4, 1);
  EXPECT_TRUE(t.valid());
  EXPECT_EQ(t.depth(), 3u);
  EXPECT_EQ(t.children()[2], (std::vector<std::size_t>{3}));
}

TEST(TreeTopology, BalancedShape) {
  const TreeTopology t = TreeTopology::balanced(7, 2);
  EXPECT_TRUE(t.valid());
  EXPECT_EQ(t.depth(), 2u);
  EXPECT_EQ(t.children()[0], (std::vector<std::size_t>{1, 2}));
  EXPECT_EQ(t.children()[1], (std::vector<std::size_t>{3, 4}));
}

TEST(TreeTopology, DetectsInvalidShapes) {
  TreeTopology two_roots;
  two_roots.parent = {kNoParent, kNoParent};
  EXPECT_FALSE(two_roots.valid());

  TreeTopology cycle;
  cycle.parent = {1, 0};
  EXPECT_FALSE(cycle.valid());

  TreeTopology out_of_range;
  out_of_range.parent = {kNoParent, 7};
  EXPECT_FALSE(out_of_range.valid());

  EXPECT_FALSE(TreeTopology{}.valid());
}

TEST(TreeTopology, SingleNode) {
  const TreeTopology t = TreeTopology::star(1);
  EXPECT_TRUE(t.valid());
  EXPECT_EQ(t.depth(), 0u);
}

// --- CombiningTree ---------------------------------------------------------

struct Participant {
  std::vector<double> local;
  std::vector<std::vector<double>> received;
  std::vector<SimTime> received_at;
};

/// Wires `n` participants into tree leaves (node 0 is a pure interior root
/// when `skip_root` is set).
void attach_all(CombiningTree& tree, sim::Simulator& sim,
                std::vector<Participant>& parts, std::size_t first_node) {
  for (std::size_t i = 0; i < parts.size(); ++i) {
    Participant* p = &parts[i];
    tree.attach(
        first_node + i, [p] { return p->local; },
        [p, &sim](std::uint64_t, const std::vector<double>& agg) {
          p->received.push_back(agg);
          p->received_at.push_back(sim.now());
        });
  }
}

TEST(CombiningTree, AggregatesElementwiseSums) {
  sim::Simulator sim;
  TreeConfig cfg{.period = 100, .link_delay = 0, .vector_size = 2};
  CombiningTree tree(&sim, TreeTopology::star(4), cfg);
  std::vector<Participant> parts(3);
  parts[0].local = {1.0, 10.0};
  parts[1].local = {2.0, 20.0};
  parts[2].local = {3.0, 30.0};
  attach_all(tree, sim, parts, 1);

  tree.start(0);
  sim.run_until(50);
  for (const auto& p : parts) {
    ASSERT_EQ(p.received.size(), 1u);
    EXPECT_DOUBLE_EQ(p.received[0][0], 6.0);
    EXPECT_DOUBLE_EQ(p.received[0][1], 60.0);
  }
}

TEST(CombiningTree, UsesTwoNMinusOneMessagesPerRound) {
  sim::Simulator sim;
  TreeConfig cfg{.period = 100, .link_delay = 1, .vector_size = 1};
  const std::size_t n = 8;
  CombiningTree tree(&sim, TreeTopology::balanced(n, 2), cfg);
  std::vector<Participant> parts(n);
  for (auto& p : parts) p.local = {1.0};
  attach_all(tree, sim, parts, 0);

  tree.start(0);
  sim.run_until(99);  // exactly one round
  EXPECT_EQ(tree.rounds_completed(), 1u);
  EXPECT_EQ(tree.messages_sent(), 2 * (n - 1));
}

TEST(CombiningTree, LinkDelayLagsDelivery) {
  sim::Simulator sim;
  // Two leaves under a root, 5 time-unit links: aggregate reaches leaves
  // at round_start + 2 * 5.
  TreeConfig cfg{.period = 1000, .link_delay = 5, .vector_size = 1};
  CombiningTree tree(&sim, TreeTopology::star(3), cfg);
  std::vector<Participant> parts(2);
  parts[0].local = {4.0};
  parts[1].local = {8.0};
  attach_all(tree, sim, parts, 1);

  tree.start(100);
  sim.run_until(200);
  ASSERT_EQ(parts[0].received.size(), 1u);
  EXPECT_EQ(parts[0].received_at[0], 110);
  EXPECT_DOUBLE_EQ(parts[0].received[0][0], 12.0);
}

TEST(CombiningTree, OverlappingRoundsStayConsistent) {
  sim::Simulator sim;
  // Lag (2 * 4 = 8... depth 2 chain) exceeds the period: several rounds in
  // flight at once must not mix their sums.
  TreeConfig cfg{.period = 3, .link_delay = 4, .vector_size = 1};
  CombiningTree tree(&sim, TreeTopology::balanced(3, 1), cfg);
  std::vector<Participant> parts(3);
  for (auto& p : parts) p.local = {1.0};
  attach_all(tree, sim, parts, 0);

  tree.start(0);
  sim.run_until(100);
  ASSERT_GE(parts[2].received.size(), 5u);
  for (const auto& agg : parts[2].received) EXPECT_DOUBLE_EQ(agg[0], 3.0);
}

TEST(CombiningTree, InteriorNodesMayHaveNoProvider) {
  sim::Simulator sim;
  TreeConfig cfg{.period = 100, .link_delay = 0, .vector_size = 1};
  CombiningTree tree(&sim, TreeTopology::star(3), cfg);
  std::vector<Participant> parts(2);
  parts[0].local = {5.0};
  parts[1].local = {7.0};
  attach_all(tree, sim, parts, 1);  // root contributes nothing

  tree.start(0);
  sim.run_until(10);
  ASSERT_EQ(parts[1].received.size(), 1u);
  EXPECT_DOUBLE_EQ(parts[1].received[0][0], 12.0);
}

TEST(CombiningTree, StopHaltsRounds) {
  sim::Simulator sim;
  TreeConfig cfg{.period = 10, .link_delay = 0, .vector_size = 1};
  CombiningTree tree(&sim, TreeTopology::star(2), cfg);
  std::vector<Participant> parts(1);
  parts[0].local = {1.0};
  attach_all(tree, sim, parts, 1);

  tree.start(0);
  sim.run_until(25);
  tree.stop();
  const auto rounds = tree.rounds_completed();
  sim.run_until(200);
  EXPECT_EQ(tree.rounds_completed(), rounds);
}

TEST(CombiningTree, FailedNodeStallsAggregation) {
  sim::Simulator sim;
  TreeConfig cfg{.period = 10, .link_delay = 0, .vector_size = 1};
  CombiningTree tree(&sim, TreeTopology::star(3), cfg);
  std::vector<Participant> parts(2);
  parts[0].local = {1.0};
  parts[1].local = {2.0};
  attach_all(tree, sim, parts, 1);

  tree.start(0);
  sim.run_until(25);  // rounds at 0, 10, 20 complete
  EXPECT_EQ(parts[0].received.size(), 3u);

  // Leaf 2 (tree node 2) fails: no further round can complete, because the
  // root waits on all children; consumers keep their last snapshot.
  tree.set_node_failed(2, true);
  sim.run_until(85);
  EXPECT_EQ(parts[0].received.size(), 3u);
  EXPECT_GE(tree.rounds_abandoned(), 5u);

  // Recovery: rounds resume and deliver fresh sums.
  tree.set_node_failed(2, false);
  sim.run_until(120);
  EXPECT_GT(parts[0].received.size(), 3u);
  EXPECT_DOUBLE_EQ(parts[0].received.back()[0], 3.0);
}

TEST(CombiningTree, RootFailureStallsEverything) {
  sim::Simulator sim;
  TreeConfig cfg{.period = 10, .link_delay = 0, .vector_size = 1};
  CombiningTree tree(&sim, TreeTopology::star(3), cfg);
  std::vector<Participant> parts(2);
  parts[0].local = {1.0};
  parts[1].local = {2.0};
  attach_all(tree, sim, parts, 1);

  tree.set_node_failed(0, true);  // the root itself
  tree.start(0);
  sim.run_until(100);
  EXPECT_TRUE(parts[0].received.empty());
  EXPECT_TRUE(parts[1].received.empty());
  EXPECT_EQ(tree.rounds_completed(), 0u);
  EXPECT_TRUE(tree.node_failed(0));
}

// --- PairwiseExchange --------------------------------------------------------

TEST(PairwiseExchange, DeliversSumsWithQuadraticMessages) {
  sim::Simulator sim;
  TreeConfig cfg{.period = 100, .link_delay = 2, .vector_size = 1};
  const std::size_t n = 6;
  PairwiseExchange exchange(&sim, n, cfg);
  std::vector<Participant> parts(n);
  for (std::size_t i = 0; i < n; ++i) {
    parts[i].local = {static_cast<double>(i + 1)};
    Participant* p = &parts[i];
    exchange.attach(
        i, [p] { return p->local; },
        [p](std::uint64_t, const std::vector<double>& agg) {
          p->received.push_back(agg);
        });
  }

  exchange.start(0);
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
