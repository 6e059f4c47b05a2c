#include "coord/combining_tree.hpp"

#include <algorithm>
#include <utility>

#include "util/assert.hpp"

namespace sharegrid::coord {

CombiningTree::CombiningTree(sim::Simulator* sim, std::size_t member_count,
                             std::size_t vector_size,
                             SimExchangeOptions options)
    : sim_(sim),
      vector_size_(vector_size),
      options_(options),
      arity_(options.fanout == 0 ? member_count : options.fanout),
      nodes_(member_count + 1),
      failed_(member_count, false) {
  SHAREGRID_EXPECTS(sim != nullptr);
  SHAREGRID_EXPECTS(member_count >= 1);
  SHAREGRID_EXPECTS(vector_size > 0);
  SHAREGRID_EXPECTS(options_.period > 0);
  SHAREGRID_EXPECTS(options_.link_delay >= 0);
  SHAREGRID_EXPECTS(options_.fanout == 0 || options_.fanout >= 2);
  // Node R, the last one, is the deepest.
  std::size_t depth = 0;
  for (std::size_t node = member_count; node != 0; node = parent(node))
    ++depth;
  // A round holds its frame until its last broadcast is delivered, at most
  // 2 * depth * link_delay after it starts; with one round starting per
  // period, at most ceil(2 * depth * link_delay / period) + 1 rounds hold
  // frames at once. Double the bound for slack around equal-time
  // boundaries — begin_round asserts the bucket it reclaims has actually
  // drained, so an undersized ring is a loud failure, not corruption.
  const std::uint64_t round_trip =
      2 * static_cast<std::uint64_t>(depth) *
      static_cast<std::uint64_t>(options_.link_delay);
  const std::size_t in_flight =
      static_cast<std::size_t>(
          round_trip / static_cast<std::uint64_t>(options_.period)) +
      1;
  rounds_.resize(2 * in_flight + 2);
  for (RoundFrame& frame : rounds_) {
    frame.slots.resize(nodes_.size());
    for (RoundSlot& slot : frame.slots) slot.sum.reserve(vector_size_);
  }
}

std::pair<std::size_t, std::size_t> CombiningTree::children(
    std::size_t node) const {
  return {std::min(arity_ * node + 1, nodes_.size()),
          std::min(arity_ * node + arity_ + 1, nodes_.size())};
}

void CombiningTree::set_member_failed(std::size_t member, bool failed) {
  SHAREGRID_EXPECTS(member < failed_.size());
  failed_[member] = failed;
}

void CombiningTree::attach(std::size_t member, Provider provider,
                           Receiver receiver) {
  SHAREGRID_EXPECTS(member + 1 < nodes_.size());
  nodes_[member + 1].provider = std::move(provider);
  nodes_[member + 1].receiver = std::move(receiver);
}

void CombiningTree::start() {
  SHAREGRID_EXPECTS(task_ == nullptr);
  task_ = std::make_unique<sim::PeriodicTask>(
      sim_, options_.first_round, options_.period,
      [this] { begin_round(next_round_++); });
}

void CombiningTree::stop() {
  if (task_) task_->cancel();
}

void CombiningTree::begin_round(std::uint64_t round) {
  // A failed member anywhere on the path to the root prevents the round
  // from completing; count it abandoned up front (downstream consumers keep
  // their last snapshot).
  if (std::find(failed_.begin(), failed_.end(), true) != failed_.end()) {
    ++rounds_abandoned_;
    return;
  }
  // Every node samples its provider simultaneously at round start, then
  // reports race up the tree; an interior node forwards once its own sample
  // and all children's reports are in.
  RoundFrame& frame = rounds_[round % rounds_.size()];
  SHAREGRID_ASSERT(!frame.live);  // ring sized to bound in-flight rounds
  frame.round = round;
  frame.live = true;
  // n - 1 reports up, then the aggregate's arrival at each of the n nodes
  // (the root's own is local).
  frame.messages_pending = 2 * nodes_.size() - 1;
  for (std::size_t node = 0; node < nodes_.size(); ++node) {
    RoundSlot& slot = frame.slots[node];
    slot.sum.assign(vector_size_, 0.0);
    const auto [first, last] = children(node);
    slot.reports_pending = last - first;
    if (nodes_[node].provider) {
      const std::vector<double> local = nodes_[node].provider();
      SHAREGRID_ASSERT(local.size() == vector_size_);
      for (std::size_t i = 0; i < local.size(); ++i) slot.sum[i] += local[i];
    }
    if (slot.reports_pending == 0) forward_up(round, node);
  }
}

CombiningTree::RoundFrame& CombiningTree::frame_of(std::uint64_t round) {
  RoundFrame& frame = rounds_[round % rounds_.size()];
  SHAREGRID_ASSERT(frame.live && frame.round == round);
  return frame;
}

void CombiningTree::message_delivered(RoundFrame& frame) {
  SHAREGRID_ASSERT(frame.messages_pending > 0);
  // The bucket's slot vectors keep their capacity for the next round.
  if (--frame.messages_pending == 0) frame.live = false;
}

void CombiningTree::deliver_report(std::uint64_t round, std::size_t child) {
  RoundFrame& frame = frame_of(round);
  const std::size_t node = parent(child);
  const std::vector<double>& value = frame.slots[child].sum;
  RoundSlot& slot = frame.slots[node];
  for (std::size_t i = 0; i < value.size(); ++i) slot.sum[i] += value[i];
  SHAREGRID_ASSERT(slot.reports_pending > 0);
  message_delivered(frame);
  if (--slot.reports_pending == 0) forward_up(round, node);
}

void CombiningTree::forward_up(std::uint64_t round, std::size_t node) {
  if (node == 0) {
    // Root: the aggregate is complete; broadcast it back down.
    ++rounds_completed_;
    broadcast_down(round, node);
    return;
  }
  ++messages_sent_;
  // The report names its sender; the parent reads the partial sum from the
  // sender's slot, which keeps it until the round's frame retires.
  sim_->schedule_after(options_.link_delay,
                       [this, round, node] { deliver_report(round, node); });
}

void CombiningTree::broadcast_down(std::uint64_t round, std::size_t node) {
  RoundFrame& frame = frame_of(round);
  if (nodes_[node].receiver)
    nodes_[node].receiver(round, frame.slots[0].sum);
  const auto [first, last] = children(node);
  for (std::size_t child = first; child < last; ++child) {
    ++messages_sent_;
    sim_->schedule_after(options_.link_delay, [this, round, child] {
      broadcast_down(round, child);
    });
  }
  message_delivered(frame);
}

PairwiseExchange::PairwiseExchange(sim::Simulator* sim,
                                   std::size_t member_count,
                                   std::size_t vector_size,
                                   SimExchangeOptions options)
    : sim_(sim),
      vector_size_(vector_size),
      options_(options),
      providers_(member_count),
      receivers_(member_count) {
  SHAREGRID_EXPECTS(sim != nullptr);
  SHAREGRID_EXPECTS(member_count >= 1);
  SHAREGRID_EXPECTS(vector_size > 0);
  SHAREGRID_EXPECTS(options_.period > 0);
  SHAREGRID_EXPECTS(options_.fanout == 0);
}

void PairwiseExchange::attach(std::size_t member, Provider provider,
                              Receiver receiver) {
  SHAREGRID_EXPECTS(member < providers_.size());
  providers_[member] = std::move(provider);
  receivers_[member] = std::move(receiver);
}

void PairwiseExchange::start() {
  SHAREGRID_EXPECTS(task_ == nullptr);
  task_ = std::make_unique<sim::PeriodicTask>(
      sim_, options_.first_round, options_.period, [this] { begin_round(); });
}

void PairwiseExchange::stop() {
  if (task_) task_->cancel();
}

void PairwiseExchange::begin_round() {
  // Every member unicasts its local vector to every other member; receivers
  // sum what arrives within one link delay. n(n-1) messages per round.
  const std::uint64_t round = next_round_++;
  const std::size_t n = providers_.size();
  std::vector<std::vector<double>> samples(n);
  for (std::size_t i = 0; i < n; ++i) {
    samples[i] = providers_[i] ? providers_[i]()
                               : std::vector<double>(vector_size_, 0.0);
    SHAREGRID_ASSERT(samples[i].size() == vector_size_);
  }
  // Every destination sums the same n samples in the same order, so one
  // total serves them all.
  std::vector<double> total(vector_size_, 0.0);
  for (std::size_t src = 0; src < n; ++src) {
    for (std::size_t k = 0; k < vector_size_; ++k)
      total[k] += samples[src][k];
  }
  messages_sent_ += n * (n - 1);
  std::size_t deliveries = 0;
  for (std::size_t dst = 0; dst < n; ++dst) {
    if (!receivers_[dst]) continue;
    ++deliveries;
    sim_->schedule_after(options_.link_delay,
                         [this, round, dst] { deliver(round, dst); });
  }
  if (deliveries > 0)
    in_flight_.push_back({round, std::move(total), deliveries});
}

void PairwiseExchange::deliver(std::uint64_t round, std::size_t dst) {
  SHAREGRID_ASSERT(!in_flight_.empty());
  InFlight& oldest = in_flight_.front();
  SHAREGRID_ASSERT(oldest.round == round);
  receivers_[dst](round, oldest.total);
  if (--oldest.deliveries_pending == 0) in_flight_.pop_front();
}

}  // namespace sharegrid::coord
