#include "coord/sharded_transport.hpp"

#include <utility>

#include "util/assert.hpp"

namespace sharegrid::coord {

ShardedStarTransport::ShardedStarTransport(sim::ShardedSimulator* sharded,
                                           std::size_t vector_size,
                                           SimExchangeOptions options)
    : sharded_(sharded), vector_size_(vector_size), options_(options) {
  SHAREGRID_EXPECTS(sharded != nullptr);
  SHAREGRID_EXPECTS(vector_size > 0);
  SHAREGRID_EXPECTS(options_.period > 0);
  SHAREGRID_EXPECTS(options_.link_delay > 0);
  SHAREGRID_EXPECTS(options_.fanout == 0);
  const std::size_t clusters = sharded_->domain_count();
  providers_.resize(clusters);
  receivers_.resize(clusters);
  next_round_.assign(clusters, 0);
}

void ShardedStarTransport::attach(std::size_t cluster, Provider provider,
                                  Receiver receiver) {
  SHAREGRID_EXPECTS(cluster < providers_.size());
  SHAREGRID_EXPECTS(tasks_.empty());  // before start()
  providers_[cluster] = std::move(provider);
  receivers_[cluster] = std::move(receiver);
}

void ShardedStarTransport::start() {
  SHAREGRID_EXPECTS(tasks_.empty());
  const std::size_t clusters = providers_.size();
  for (std::size_t c = 0; c < clusters; ++c) {
    tasks_.push_back(std::make_unique<sim::PeriodicTask>(
        &sharded_->domain(c), options_.first_round, options_.period,
        [this, c] { sample(c, next_round_[c]++); }));
  }
}

void ShardedStarTransport::stop() {
  for (const auto& task : tasks_) task->cancel();
}

void ShardedStarTransport::sample(std::size_t cluster, std::uint64_t round) {
  // Runs inside domain `cluster` at round start: sample the local demand and
  // report it to the virtual root one link delay later. Every cluster's task
  // fires at the same simulated time, so all reports of a round reach domain
  // 0 together and the barrier delivers them in cluster order.
  std::vector<double> local = providers_[cluster]
                                  ? providers_[cluster]()
                                  : std::vector<double>(vector_size_, 0.0);
  SHAREGRID_ASSERT(local.size() == vector_size_);
  const SimTime arrival =
      sharded_->domain(cluster).now() + options_.link_delay;
  sharded_->post(cluster, 0, arrival,
                 [this, round, cluster, sample = std::move(local)] {
                   root_receive(round, cluster, sample);
                 });
}

void ShardedStarTransport::root_receive(std::uint64_t round,
                                        std::size_t cluster,
                                        const std::vector<double>& value) {
  // Domain-0 event: accumulate in arrival order (== cluster order, by the
  // barrier contract), broadcast once the last report is in.
  ++messages_sent_;
  RootSlot& slot = root_rounds_[round];
  if (slot.sum.empty()) slot.sum.assign(vector_size_, 0.0);
  for (std::size_t i = 0; i < value.size(); ++i) slot.sum[i] += value[i];
  if (++slot.reports < providers_.size()) return;

  const std::vector<double> aggregate = std::move(slot.sum);
  root_rounds_.erase(round);
  ++rounds_completed_;
  const SimTime delivery =
      sharded_->domain(0).now() + options_.link_delay;
  for (std::size_t c = 0; c < providers_.size(); ++c) {
    ++messages_sent_;
    if (!receivers_[c]) continue;
    // Cluster 0's own delivery also goes through the barrier: EVERY
    // cross-round message takes the same deferred path, which is what keeps
    // per-domain event numbering independent of shard count.
    sharded_->post(0, c, delivery, [this, c, round, aggregate] {
      receivers_[c](round, aggregate);
    });
  }
  (void)cluster;
}

}  // namespace sharegrid::coord
