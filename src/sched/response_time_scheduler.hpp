// Community-context scheduler: minimize the maximum global response time
// (§3.1.2, "Global Response Time").
//
// Maximizes theta = min_i (admitted_i / n_i) subject to server capacities,
// agreement entitlements, and optional per-server locality caps, as a linear
// program. A second lexicographic stage maximizes total admitted rate at the
// optimal theta so the plan is work-conserving (spare capacity is never left
// idle merely because theta is already pinned by the worst-off principal).
#pragma once

#include <optional>
#include <vector>

#include "core/agreement_graph.hpp"
#include "core/flow.hpp"
#include "lp/solve_context.hpp"
#include "sched/scheduler.hpp"
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
  /// force Status::kIterationLimit and exercise the fallback path).
  void set_solver_options(const lp::SolverOptions& options);

  /// Cumulative warm/cold solver statistics across all LP stages.
  lp::SolveStats solver_stats() const;

 private:
  Plan fallback_plan(std::vector<double> demand) const
      SHAREGRID_REQUIRES(mutex_);

  std::vector<double> capacities_;
  core::AccessLevels levels_;
  ResponseTimeOptions options_;

  // Warm-start solver caches, one per LP stage so each stage re-enters from
  // its own previous basis (the stage programs have different layouts).
  // plan() stays const — these only affect solve speed and the
  // iteration-limit fallback — and the mutex serializes concurrent callers.
  mutable util::Mutex mutex_;
  mutable lp::SolverOptions solver_options_ SHAREGRID_GUARDED_BY(mutex_);
  mutable lp::SolveContext stage1_context_ SHAREGRID_GUARDED_BY(mutex_);
  mutable lp::SolveContext retry_context_ SHAREGRID_GUARDED_BY(mutex_);
  mutable lp::SolveContext stage2_context_ SHAREGRID_GUARDED_BY(mutex_);
  mutable Plan last_plan_ SHAREGRID_GUARDED_BY(mutex_);
  mutable bool has_last_plan_ SHAREGRID_GUARDED_BY(mutex_) = false;
};

}  // namespace sharegrid::sched
