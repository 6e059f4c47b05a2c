#include "sim/simulator.hpp"

#include <utility>

#include "audit/invariant_auditor.hpp"
#include "util/metrics_registry.hpp"

namespace sharegrid::sim {

namespace {
/// Process-wide event counter (util/metrics_registry.hpp). Deltas are
/// flushed once per run_until/run_all call, not per event, so sharded lanes
/// don't contend on the counter's cache line in the dispatch loop.
util::MetricCounter& events_counter() {
  static util::MetricCounter& counter = util::global_metrics().counter(
      "sim.events", "events dispatched across all simulators");
  return counter;
}
}  // namespace

EventNode* Simulator::grow() {
  arena_.push_back(std::make_unique<EventNode[]>(kChunk));
  EventNode* chunk = arena_.back().get();
  for (std::size_t i = 0; i < kChunk; ++i) {
    chunk[i].next = free_;
    free_ = &chunk[i];
  }
  return free_;
}

void Simulator::dispatch(EventNode* node) {
  // Invoke in place: the closure never moves after schedule_at constructed
  // it. The node stays off the freelist during the call, so a follow-up
  // schedule cannot alias the storage still executing.
  ++events_processed_;
  node->fn();
  node->fn.reset();
  release(node);
}

void Simulator::run_until(SimTime deadline) {
  SHAREGRID_EXPECTS(deadline >= now_);
  const std::uint64_t before = events_processed_;
  while (EventNode* node = wheel_.pop_next(deadline)) {
    SHAREGRID_AUDIT_HOOK(audit::audit_sim_clock_monotone(now_, node->time));
    now_ = node->time;
    dispatch(node);
  }
  events_counter().add(events_processed_ - before);
  now_ = deadline;
  // Remaining events are strictly later than the deadline, so the cursor may
  // move all the way up without passing any of them.
  wheel_.advance_to(deadline);
  SHAREGRID_AUDIT_HOOK(wheel_.audit_consistency(next_seq_, events_processed_));
}

void Simulator::run_all() {
  const std::uint64_t before = events_processed_;
  while (EventNode* node = wheel_.pop_next(TimingWheel::kNoEvent)) {
    SHAREGRID_AUDIT_HOOK(audit::audit_sim_clock_monotone(now_, node->time));
    now_ = node->time;
    dispatch(node);
  }
  events_counter().add(events_processed_ - before);
  SHAREGRID_AUDIT_HOOK(wheel_.audit_consistency(next_seq_, events_processed_));
}

PeriodicTask::PeriodicTask(Simulator* sim, SimTime start, SimDuration period,
                           std::function<void()> body)
    : sim_(sim), period_(period), body_(std::move(body)) {
  SHAREGRID_EXPECTS(sim != nullptr);
  SHAREGRID_EXPECTS(period > 0);
  SHAREGRID_EXPECTS(body_ != nullptr);
  alive_ = sim_->new_liveness_flag();
  arm(start);
}

void PeriodicTask::arm(SimTime when) {
  // The simulator-owned alive flag lets a cancelled/destroyed task leave its
  // pending event harmlessly in the queue. The closure is {this, flag
  // pointer, SimTime} = 24 trivially copyable bytes — inside Callback's
  // inline buffer, so each firing rearms without re-wrapping body_ or
  // touching the heap.
  sim_->schedule_at(when, [this, alive = alive_, when] {
    if (!*alive) return;
    body_();
    if (*alive) arm(when + period_);
  });
}

}  // namespace sharegrid::sim
