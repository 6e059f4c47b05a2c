// The two-stage LP solve both window schedulers share (§3.1.2).
//
// ResponseTimeScheduler and IncomeScheduler each solve a lexicographic pair
// of programs every window: stage 1 optimizes the paper's metric (max-min
// theta, or provider income) and stage 2 maximizes the total admitted rate
// at that optimum, so capacity the metric leaves idle still serves whoever
// can use it. StagedLp owns what the pair carries from window to window —
// one warm-start lp::SolveContext per program layout, the solver options,
// the last good plan — and the one rule for a solve that ends without an
// optimum (infeasible, unbounded or out of pivots). Such a verdict costs
// the window, never the run:
//
//  * no stage-1 optimum: the window reuses the last good plan against the
//    current demand, or the empty plan before any window succeeded;
//  * no stage-2 optimum: the window keeps the stage-1 solution, giving up
//    only work conservation.
//
// Either way the plan is flagged Plan::lp_fallback. A StagedLp is not
// thread-safe: the scheduler that owns it serializes plan() calls.
#pragma once

#include <cstddef>
#include <functional>
#include <vector>

#include "lp/problem.hpp"
#include "lp/solve_context.hpp"
#include "sched/plan.hpp"

namespace sharegrid::sched {

/// Warm-started stage-1/stage-2 solves with the non-optimal verdict rule.
class StagedLp {
 public:
  /// Builds stage-1 program number @p attempt.
  using Stage1 = std::function<lp::Problem(std::size_t attempt)>;
  /// Builds stage 2 from the stage-1 attempt that reached an optimum.
  using Stage2 = std::function<lp::Problem(std::size_t attempt,
                                           const lp::Solution& stage1)>;
  /// Writes a fresh plan's rates (and theta) from the stage-1 solution and
  /// the values the window keeps: stage 2's, or stage 1's when stage 2
  /// reached no optimum.
  using Fill = std::function<void(const lp::Solution& stage1,
                                  const std::vector<double>& values,
                                  Plan& out)>;

  /// @param empty     the plan of a window whose stage 1 fails before any
  ///                  window succeeded.
  /// @param attempts  stage-1 programs a window may try, in order, until one
  ///                  reaches an optimum; each solves in its own context.
  explicit StagedLp(Plan empty, std::size_t attempts = 1);

  /// Plans one window against @p demand. Stage 2 always solves in one
  /// context, whichever stage-1 attempt succeeded.
  Plan solve(const std::vector<double>& demand, const Stage1& stage1,
             const Stage2& stage2, const Fill& fill);

  /// Solver tuning for every later solve.
  void set_options(const lp::SolverOptions& options) { options_ = options; }

  /// Warm/cold solver statistics summed over every context.
  lp::SolveStats stats() const;

 private:
  lp::SolverOptions options_;
  std::vector<lp::SolveContext> stage1_;  // one per attempt
  lp::SolveContext stage2_;
  Plan last_good_;  // the empty plan until a window succeeds
};

}  // namespace sharegrid::sched
