#include "sim/sharded_simulator.hpp"

#include <algorithm>
#include <utility>

#include "audit/invariant_auditor.hpp"
#include "util/metrics_registry.hpp"

namespace sharegrid::sim {

namespace {
util::MetricCounter& epochs_counter() {
  static util::MetricCounter& counter = util::global_metrics().counter(
      "sim.epochs", "lookahead epochs crossed by sharded runs");
  return counter;
}
util::MetricCounter& cross_posts_counter() {
  static util::MetricCounter& counter = util::global_metrics().counter(
      "sim.cross_posts", "cross-domain messages exchanged at barriers");
  return counter;
}
}  // namespace

ShardedSimulator::ShardedSimulator(std::size_t domains, Options options)
    : options_(options),
      outboxes_(domains),
      errors_(domains),
      // `shards` counts lanes including the caller, which meets the
      // shards - 1 lane threads at the start barrier.
      start_(static_cast<std::ptrdiff_t>(options.shards), OpenEpoch{this}) {
  SHAREGRID_EXPECTS(domains >= 1);
  SHAREGRID_EXPECTS(options.lookahead > 0);
  SHAREGRID_EXPECTS(options.shards >= 1);
  domains_.reserve(domains);
  for (std::size_t d = 0; d < domains; ++d)
    domains_.push_back(std::make_unique<Simulator>());
  util::global_metrics()
      .gauge("sim.shards", "parallel lanes of the sharded simulator")
      .set(static_cast<std::int64_t>(options.shards));
  lanes_.reserve(options.shards - 1);
  for (std::size_t lane = 1; lane < options.shards; ++lane)
    lanes_.emplace_back([this] { lane_loop(); });
}

ShardedSimulator::~ShardedSimulator() {
  if (lanes_.empty()) return;
  stopping_ = true;
  start_.arrive_and_wait();
  for (std::thread& lane : lanes_) lane.join();
}

void ShardedSimulator::post(std::size_t src, std::size_t dst, SimTime when,
                            std::function<void()> fn) {
  SHAREGRID_EXPECTS(src < domains_.size());
  SHAREGRID_EXPECTS(dst < domains_.size());
  SHAREGRID_EXPECTS(fn != nullptr);
  // The conservative-lookahead contract, checked in EVERY build: a message
  // arriving before the running epoch's end could influence events the
  // destination domain has already executed this epoch — the declared link
  // delay (lookahead) was larger than the delay actually used.
  SHAREGRID_EXPECTS(when >= epoch_end_ &&
                    "cross-domain post violates the declared lookahead");
  posts_sent_.fetch_add(1, std::memory_order_relaxed);
  outboxes_[src].push_back(Pending{dst, when, std::move(fn)});
}

void ShardedSimulator::run_until(SimTime deadline) {
  SHAREGRID_EXPECTS(deadline >= now_);
  const std::uint64_t epochs_before = epochs_;
  const std::uint64_t delivered_before = posts_delivered_;
  while (now_ < deadline) {
    const SimTime target = std::min<SimTime>(now_ + options_.lookahead,
                                             deadline);
    epoch_end_ = target;
    // Deliver messages collected at the previous barrier (and setup-time
    // posts on the first epoch) before any domain advances: source domains
    // in index order, emission order within a source. This order — and
    // nothing about lanes or shard count — fixes every destination event's
    // sequence number, which is what makes shard counts interchangeable.
    for (std::vector<Pending>& outbox : outboxes_) {
      for (Pending& message : outbox) {
        SHAREGRID_ASSERT(message.when >= domains_[message.dst]->now());
        domains_[message.dst]->schedule_at(message.when,
                                           std::move(message.fn));
        ++posts_delivered_;
      }
      outbox.clear();
    }
    SHAREGRID_AUDIT_HOOK(audit_event_conservation());
    run_epoch();
    now_ = target;
    ++epochs_;
  }
  epoch_end_ = now_;
  epochs_counter().add(epochs_ - epochs_before);
  cross_posts_counter().add(posts_delivered_ - delivered_before);
  SHAREGRID_AUDIT_HOOK(audit_event_conservation());
}

void ShardedSimulator::run_epoch() {
  if (lanes_.empty()) {
    OpenEpoch{this}();
    run_domains();
  } else {
    start_.arrive_and_wait();
    run_domains();
    // Wait for the domains, not the lanes: a lane that found none left is
    // already on its way back to start_.
    const std::size_t all = domains_.size();
    for (std::size_t done = completed_.load(std::memory_order_acquire);
         done != all; done = completed_.load(std::memory_order_acquire)) {
      completed_.wait(done, std::memory_order_acquire);
    }
  }
  // Domains share no mutable state, so each lane runs its domains
  // independently; a contract violation inside any domain surfaces here.
  // The lowest domain index wins, not the first to fail, so a failing epoch
  // fails the same way whichever lane ran which domain.
  const auto failed = std::find_if(
      errors_.begin(), errors_.end(),
      [](const std::exception_ptr& error) { return error != nullptr; });
  if (failed == errors_.end()) return;
  const std::exception_ptr first = *failed;
  std::fill(errors_.begin(), errors_.end(), nullptr);
  std::rethrow_exception(first);
}

void ShardedSimulator::run_domains() {
  const std::size_t all = domains_.size();
  for (;;) {
    const std::size_t d = next_domain_.fetch_add(1, std::memory_order_relaxed);
    if (d >= all) return;
    try {
      domains_[d]->run_until(epoch_end_);
    } catch (...) {
      errors_[d] = std::current_exception();
    }
    if (completed_.fetch_add(1, std::memory_order_release) + 1 == all)
      completed_.notify_one();
  }
}

void ShardedSimulator::lane_loop() {
  for (;;) {
    start_.arrive_and_wait();
    if (stop_) return;
    run_domains();
  }
}

std::uint64_t ShardedSimulator::events_processed() const {
  std::uint64_t total = 0;
  for (const auto& domain : domains_) total += domain->events_processed();
  return total;
}

void ShardedSimulator::audit_event_conservation() const {
  std::uint64_t buffered = 0;
  for (const std::vector<Pending>& outbox : outboxes_) buffered += outbox.size();
  const std::uint64_t sent = posts_sent_.load(std::memory_order_relaxed);
  if (sent != posts_delivered_ + buffered) {
    throw ContractViolation(
        "[audit] shard.event-conservation: " + std::to_string(sent) +
        " cross-domain posts sent but " + std::to_string(posts_delivered_) +
        " delivered + " + std::to_string(buffered) +
        " buffered; a lane dropped or duplicated a barrier message and "
        "domains no longer agree on the event stream");
  }
}

}  // namespace sharegrid::sim
