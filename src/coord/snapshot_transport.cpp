#include "coord/snapshot_transport.hpp"

#include <utility>

#include "util/assert.hpp"

namespace sharegrid::coord {

InProcessTransport::InProcessTransport(std::size_t member_count,
                                       std::size_t vector_size)
    : vector_size_(vector_size),
      providers_(member_count),
      receivers_(member_count),
      sum_scratch_(vector_size, 0.0) {
  SHAREGRID_EXPECTS(member_count >= 1);
  SHAREGRID_EXPECTS(vector_size >= 1);
}

void InProcessTransport::attach(std::size_t member, Provider provider,
                                Receiver receiver) {
  SHAREGRID_EXPECTS(member < providers_.size());
  providers_[member] = std::move(provider);
  receivers_[member] = std::move(receiver);
}

void InProcessTransport::start() { started_ = true; }

void InProcessTransport::stop() { started_ = false; }

void InProcessTransport::exchange() {
  if (!started_) return;
  const std::size_t r = providers_.size();
  // Sample every provider before delivering anywhere: receivers must all see
  // the same instant, exactly like the event tree sampling at round start.
  std::vector<double>& sum = sum_scratch_;
  sum.assign(vector_size_, 0.0);
  for (std::size_t m = 0; m < r; ++m) {
    if (!providers_[m]) continue;
    const std::vector<double> local = providers_[m]();
    SHAREGRID_ASSERT(local.size() == vector_size_);
    for (std::size_t i = 0; i < vector_size_; ++i) sum[i] += local[i];
  }
  const std::uint64_t round = next_round_++;
  for (std::size_t m = 0; m < r; ++m) {
    if (receivers_[m]) receivers_[m](round, sum);
  }
  // Star accounting: R reports up to the virtual root, R broadcasts down.
  messages_sent_ += 2 * static_cast<std::uint64_t>(r);
  ++rounds_completed_;
}

}  // namespace sharegrid::coord
