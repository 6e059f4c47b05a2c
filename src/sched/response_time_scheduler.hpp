// Community-context scheduler: minimize the maximum global response time
// (§3.1.2, "Global Response Time").
//
// Maximizes theta = min_i (admitted_i / n_i) subject to server capacities,
// agreement entitlements, and optional per-server locality caps, as a linear
// program. A second lexicographic stage maximizes total admitted rate at the
// optimal theta so the plan is work-conserving (spare capacity is never left
// idle merely because theta is already pinned by the worst-off principal).
#pragma once

#include <vector>

#include "core/agreement_graph.hpp"
#include "core/flow.hpp"
#include "lp/solve_context.hpp"
#include "sched/scheduler.hpp"
#include "sched/staged_lp.hpp"
#include "util/thread_annotations.hpp"

namespace sharegrid::sched {

/// Configuration for ResponseTimeScheduler.
struct ResponseTimeOptions {
  /// Per-server locality caps c_k (requests/sec a redirector may push to
  /// server k per window); empty = unlimited (the paper's base model).
  std::vector<double> locality_caps;
};

/// Max-min fairness over agreement entitlements via two-stage LP.
class ResponseTimeScheduler final : public Scheduler {
 public:
  /// @param graph   agreement graph (capacities in requests/sec).
  /// @param levels  access levels precomputed from @p graph.
  ResponseTimeScheduler(const core::AgreementGraph& graph,
                        core::AccessLevels levels,
                        ResponseTimeOptions options = {});

  Plan plan(const std::vector<double>& demand) const override;
  std::size_t size() const override { return capacities_.size(); }

  const core::AccessLevels& levels() const { return levels_; }

  /// Overrides the LP solver tuning for every stage solve (tests use this to
  /// force non-optimal verdicts and exercise the fallback path).
  void set_solver_options(const lp::SolverOptions& options);

  /// Cumulative warm/cold solver statistics across all LP stages.
  lp::SolveStats solver_stats() const;

 private:
  std::vector<double> capacities_;
  core::AccessLevels levels_;
  ResponseTimeOptions options_;

  // Warm-start contexts and the last good plan (sched/staged_lp.hpp). plan()
  // stays const — they only affect solve speed and the fallback — and the
  // mutex serializes concurrent callers.
  mutable util::Mutex mutex_;
  mutable StagedLp lp_ SHAREGRID_GUARDED_BY(mutex_);
};

}  // namespace sharegrid::sched
