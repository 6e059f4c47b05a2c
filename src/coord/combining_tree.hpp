// The combining-tree aggregation network (§3.2).
//
// Redirectors periodically contribute their local per-principal queue-length
// vectors; reports travel leaf-to-root, are summed element-wise at each hop,
// and the root's aggregate is broadcast back down — 2(n-1) messages per round
// versus O(n^2) for pairwise exchange. Links have a configurable one-way
// delay, so receivers observe aggregates that lag true state by up to
// 2 * depth * delay; the Figure 8 experiment sets this lag to 10 seconds.
// Rounds may overlap in flight when the lag exceeds the round period.
#pragma once

#include <cstdint>
#include <deque>
#include <functional>
#include <vector>

#include "coord/topology.hpp"
#include "sim/simulator.hpp"
#include "util/time.hpp"

namespace sharegrid::coord {

/// Combining-tree configuration.
struct TreeConfig {
  /// How often an aggregation round starts.
  SimDuration period = 100 * kMillisecond;
  /// One-way delay of every tree link (same up and down).
  SimDuration link_delay = 0;
  /// Length of the aggregated vector (one slot per principal).
  std::size_t vector_size = 0;
};

/// Event-driven combining tree running on a Simulator.
class CombiningTree {
 public:
  /// Samples a participant's local contribution at round start.
  using Provider = std::function<std::vector<double>()>;
  /// Delivers the completed global aggregate to a participant, tagged with
  /// the originating round. Uniform link delays mean rounds complete in
  /// start order, so receivers observe strictly increasing round numbers
  /// (with gaps where rounds were abandoned) — the monotonicity the
  /// control-plane audit pins.
  using Receiver =
      std::function<void(std::uint64_t round, const std::vector<double>&)>;

  CombiningTree(sim::Simulator* sim, TreeTopology topology, TreeConfig config);

  /// Attaches a participant to tree node @p node. Nodes without a provider
  /// contribute zeros (pure interior nodes); nodes without a receiver simply
  /// forward. Call before start().
  void attach(std::size_t node, Provider provider, Receiver receiver);

  /// Starts periodic aggregation rounds at @p first_round.
  void start(SimTime first_round);

  /// Stops future rounds (in-flight messages still drain).
  void stop();

  /// Failure injection: while any node is marked failed, no *new* round can
  /// complete (the root transitively waits on every node), so rounds are
  /// abandoned at start and downstream receivers keep acting on their last
  /// snapshot — the same graceful-staleness path as network delay (§3.2).
  /// Rounds already in flight when the failure is injected still complete;
  /// recovery rejoins from the next round on.
  void set_node_failed(std::size_t node, bool failed);
  bool node_failed(std::size_t node) const;

  std::uint64_t messages_sent() const { return messages_sent_; }
  std::uint64_t rounds_completed() const { return rounds_completed_; }
  /// Rounds that began but can no longer complete due to failed nodes.
  std::uint64_t rounds_abandoned() const { return rounds_abandoned_; }

 private:
  struct NodeState {
    Provider provider;
    Receiver receiver;
  };
  /// Per-round partial aggregation at one node. A node's sum stays in its
  /// slot after the node reports: the report message names (round, node)
  /// and the parent reads the sum from here on delivery, and the root's
  /// slot holds the aggregate that the broadcast messages deliver.
  struct RoundSlot {
    std::vector<double> sum;
    std::size_t reports_pending = 0;
  };
  /// All per-node slots of one in-flight round, stored in a ring bucket
  /// (`round % rounds_.size()`). The ring replaces a
  /// `std::map<(round, node), RoundSlot>` whose node churn dominated every
  /// snapshot exchange: slot vectors are allocated once and reused, and
  /// lookup is two indexed loads. A round holds its frame until its last
  /// message is delivered (≤ 2 * depth * link_delay after it starts), so
  /// messages carry indices instead of vector copies; capacity bounds the
  /// number of live rounds, and begin_round asserts the reclaimed bucket
  /// has drained.
  struct RoundFrame {
    std::uint64_t round = 0;
    bool live = false;
    /// Reports and broadcasts of this round not delivered yet.
    std::size_t messages_pending = 0;
    std::vector<RoundSlot> slots;  // indexed by node
  };

  void begin_round(std::uint64_t round);
  /// The frame of a live @p round.
  RoundFrame& frame_of(std::uint64_t round);
  /// Counts one delivered message; retires the frame after the last one.
  void message_delivered(RoundFrame& frame);
  /// Report from @p child reaching its parent: fold in the child's sum.
  void deliver_report(std::uint64_t round, std::size_t child);
  void forward_up(std::uint64_t round, std::size_t node);
  /// Hands the round's aggregate to @p node and sends it on to its children.
  void broadcast_down(std::uint64_t round, std::size_t node);

  sim::Simulator* sim_;
  TreeTopology topology_;
  std::vector<std::vector<std::size_t>> children_;
  std::size_t root_ = 0;
  TreeConfig config_;
  std::vector<NodeState> nodes_;
  // Ring of in-flight rounds; see RoundFrame.
  std::vector<RoundFrame> rounds_;
  std::unique_ptr<sim::PeriodicTask> task_;
  std::vector<bool> failed_;
  std::uint64_t next_round_ = 0;
  std::uint64_t messages_sent_ = 0;
  std::uint64_t rounds_completed_ = 0;
  std::uint64_t rounds_abandoned_ = 0;
};

/// Pairwise full exchange: the O(n^2)-message alternative the paper compares
/// against. Same Provider/Receiver interface so benches can swap strategies.
class PairwiseExchange {
 public:
  PairwiseExchange(sim::Simulator* sim, std::size_t node_count,
                   TreeConfig config);

  void attach(std::size_t node, CombiningTree::Provider provider,
              CombiningTree::Receiver receiver);
  void start(SimTime first_round);
  void stop();

  std::uint64_t messages_sent() const { return messages_sent_; }

 private:
  /// One round's total while its messages are in flight. Every message
  /// carries the same total, and with one link delay rounds deliver in
  /// start order, so messages carry (round, destination) and read the
  /// oldest entry.
  struct InFlight {
    std::uint64_t round = 0;
    std::vector<double> total;
    std::size_t deliveries_pending = 0;
  };

  void begin_round();
  void deliver(std::uint64_t round, std::size_t dst);

  sim::Simulator* sim_;
  TreeConfig config_;
  std::vector<CombiningTree::Provider> providers_;
  std::vector<CombiningTree::Receiver> receivers_;
  std::deque<InFlight> in_flight_;  // oldest round first
  std::unique_ptr<sim::PeriodicTask> task_;
  std::uint64_t next_round_ = 0;
  std::uint64_t messages_sent_ = 0;
};

}  // namespace sharegrid::coord
