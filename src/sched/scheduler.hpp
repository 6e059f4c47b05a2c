// Scheduler interface: one plan per time window from global queue lengths.
#pragma once

#include <vector>

#include "sched/plan.hpp"

namespace sharegrid::sched {

/// Computes admission plans from (estimated) global per-principal demand.
///
/// Implementations behave as functions of their configuration plus the
/// demand argument, so one instance may be shared by every redirector in a
/// simulation (or called concurrently from multiple threads). They may keep
/// internal solver caches — warm-start bases, the last good plan a window
/// without an LP optimum falls back to (Plan::lp_fallback) — but must
/// serialize access to them so concurrent plan() calls stay safe; the caches
/// influence only how fast a plan is found, never which allocations are
/// feasible.
class Scheduler {
 public:
  virtual ~Scheduler() = default;

  /// @param demand  global queue length per principal, expressed as
  ///                requests/second of offered load.
  virtual Plan plan(const std::vector<double>& demand) const = 0;

  /// Number of principals the scheduler was configured with.
  virtual std::size_t size() const = 0;
};

}  // namespace sharegrid::sched
