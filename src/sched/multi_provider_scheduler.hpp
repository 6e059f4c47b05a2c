// Multi-provider plan assembly: several resource owners, one plan (§3.1.2
// scaled out, DESIGN.md D8).
//
// Each provider's income LP is independent of the others': its bounds come
// from the entitlement decomposition columns EM(·, k) / EO(·, k), which
// partition every server's capacity across principals (DESIGN.md D1), and
// its objective touches only its own admission variables. So the per-window
// solve decomposes exactly — one IncomeScheduler per provider, each with its
// own warm-start SolveContext — solved one after another in provider order.
// (Fanning the solves out on a worker pool was measured 1.4–3.6x slower
// than this serial loop at 2–8 providers: each solve takes microseconds, so
// the hand-off costs more than it saves; DESIGN.md D8.)
//
// Customer demand is split across providers by fixed entitlement-share
// weights, each provider solves the same LP sequence it would solve alone,
// and the per-provider plans are merged column-by-column in provider index
// order.
#pragma once

#include <memory>
#include <vector>

#include "core/agreement_graph.hpp"
#include "core/flow.hpp"
#include "sched/income_scheduler.hpp"
#include "sched/scheduler.hpp"
#include "util/matrix.hpp"
#include "util/thread_annotations.hpp"

namespace sharegrid::sched {

/// Income maximization across several providers, one LP per provider.
class MultiProviderScheduler final : public Scheduler {
 public:
  /// @param graph      agreement graph; capacities give each provider's pool.
  /// @param levels     access levels precomputed from @p graph.
  /// @param providers  ids of the resource-owning providers (each with
  ///                   capacity > 0); plans fill exactly these columns.
  /// @param prices     price per extra request, indexed by principal id.
  MultiProviderScheduler(const core::AgreementGraph& graph,
                         const core::AccessLevels& levels,
                         std::vector<core::PrincipalId> providers,
                         std::vector<double> prices);

  Plan plan(const std::vector<double>& demand) const override
      SHAREGRID_EXCLUDES(mutex_);
  std::size_t size() const override { return weights_.rows(); }

  const std::vector<core::PrincipalId>& providers() const {
    return providers_;
  }

  /// Income implied by a plan, summed over all providers.
  double income(const Plan& plan) const;

  /// Overrides the LP solver tuning for every per-provider stage solve.
  void set_solver_options(const lp::SolverOptions& options)
      SHAREGRID_EXCLUDES(mutex_);

  /// Cumulative warm/cold solver statistics across all providers.
  lp::SolveStats solver_stats() const SHAREGRID_EXCLUDES(mutex_);

 private:
  std::vector<core::PrincipalId> providers_;
  /// The per-provider solvers hold their own warm-start state behind their
  /// own mutexes; mutex_ additionally serializes whole windows (below), so
  /// the unique_ptr vector itself is read-only after construction.
  std::vector<std::unique_ptr<IncomeScheduler>> per_provider_;
  /// weights_(i, p): fraction of customer i's demand offered to provider p —
  /// i's entitlement share at that provider, fixed at construction.
  Matrix weights_;

  /// Serializes plan() so every window feeds the warm-start contexts in the
  /// same order regardless of caller concurrency.
  mutable util::Mutex mutex_;
};

}  // namespace sharegrid::sched
