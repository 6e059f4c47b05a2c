// The combining-tree aggregation network (§3.2).
//
// Redirectors periodically contribute their local per-principal queue-length
// vectors; reports travel leaf-to-root, are summed element-wise at each hop,
// and the root's aggregate is broadcast back down — 2(n-1) messages per round
// versus O(n^2) for pairwise exchange. The paper leaves the tree's
// construction open; here it is a flat star or a complete k-ary tree under a
// virtual root. Links have a configurable one-way delay, so receivers observe
// aggregates that lag true state by up to 2 * depth * delay; the Figure 8
// experiment sets this lag to 10 seconds. Rounds may overlap in flight when
// the lag exceeds the round period.
#pragma once

#include <cstdint>
#include <deque>
#include <memory>
#include <utility>
#include <vector>

#include "coord/snapshot_transport.hpp"
#include "sim/simulator.hpp"

namespace sharegrid::coord {

/// The simulated snapshot transport: an event-driven combining tree on a
/// Simulator. Members 0..R-1 are nodes 1..R under a virtual root, node 0,
/// which samples nothing. Node i's parent is (i - 1) / k, with k the fanout,
/// or k = R for a flat star (fanout 0), so every member of a star sees the
/// same aggregate lag of 2 * link_delay. Uniform link delays mean rounds
/// complete in start order, so receivers observe strictly increasing round
/// numbers (with gaps where rounds were abandoned) — the monotonicity the
/// control-plane audit pins.
class CombiningTree final : public SnapshotTransport {
 public:
  /// @pre options.fanout is 0 or at least 2.
  CombiningTree(sim::Simulator* sim, std::size_t member_count,
                std::size_t vector_size, SimExchangeOptions options);
  // Scheduled events hold `this`.
  CombiningTree(const CombiningTree&) = delete;
  CombiningTree& operator=(const CombiningTree&) = delete;

  /// Members without a provider contribute zeros (an interior member still
  /// combines its children's reports); members without a receiver simply
  /// forward.
  void attach(std::size_t member, Provider provider,
              Receiver receiver) override;

  /// Starts periodic aggregation rounds at options.first_round.
  void start() override;

  /// Stops future rounds (in-flight messages still drain).
  void stop() override;

  std::uint64_t messages_sent() const override { return messages_sent_; }

  /// Failure injection: while any member is marked failed, no *new* round
  /// can complete (the root transitively waits on every node), so rounds are
  /// abandoned at start and downstream receivers keep acting on their last
  /// snapshot — the same graceful-staleness path as network delay (§3.2).
  /// Rounds already in flight when the failure is injected still complete;
  /// recovery rejoins from the next round on. The virtual root cannot fail.
  void set_member_failed(std::size_t member, bool failed);

  std::uint64_t rounds_completed() const { return rounds_completed_; }
  /// Rounds that began but can no longer complete due to failed members.
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

  std::size_t parent(std::size_t node) const { return (node - 1) / arity_; }
  /// The children of @p node, [first, last) in index order: nodes
  /// k * node + 1 .. k * node + k that exist.
  std::pair<std::size_t, std::size_t> children(std::size_t node) const;

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
  std::size_t vector_size_;
  SimExchangeOptions options_;
  /// k: the fanout, or R for a flat star.
  std::size_t arity_;
  /// Indexed by node; the virtual root's entry stays empty.
  std::vector<NodeState> nodes_;
  std::vector<bool> failed_;  // indexed by member
  // Ring of in-flight rounds; see RoundFrame.
  std::vector<RoundFrame> rounds_;
  std::unique_ptr<sim::PeriodicTask> task_;
  std::uint64_t next_round_ = 0;
  std::uint64_t messages_sent_ = 0;
  std::uint64_t rounds_completed_ = 0;
  std::uint64_t rounds_abandoned_ = 0;
};

/// Pairwise full exchange: the O(n^2)-message alternative the paper compares
/// against, behind the same seam so benches can swap strategies.
class PairwiseExchange final : public SnapshotTransport {
 public:
  /// @pre options.fanout is 0: every member sends to every other.
  PairwiseExchange(sim::Simulator* sim, std::size_t member_count,
                   std::size_t vector_size, SimExchangeOptions options);
  PairwiseExchange(const PairwiseExchange&) = delete;
  PairwiseExchange& operator=(const PairwiseExchange&) = delete;

  void attach(std::size_t member, Provider provider,
              Receiver receiver) override;
  void start() override;
  void stop() override;

  std::uint64_t messages_sent() const override { return messages_sent_; }

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
  std::size_t vector_size_;
  SimExchangeOptions options_;
  std::vector<Provider> providers_;
  std::vector<Receiver> receivers_;
  std::deque<InFlight> in_flight_;  // oldest round first
  std::unique_ptr<sim::PeriodicTask> task_;
  std::uint64_t next_round_ = 0;
  std::uint64_t messages_sent_ = 0;
};

}  // namespace sharegrid::coord
