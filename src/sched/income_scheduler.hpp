// Service-provider scheduler: maximize provider income (§3.1.2, "Total
// Income of Provider").
//
// Every principal that owns capacity is a provider: it owns a pool of
// servers and has an SLA [lb_i, ub_i] with each customer i, which pays p_i
// per request processed beyond its mandatory level. A customer that owns a
// server is the provider of its own pool too, so the graph alone names the
// providers. Each window the scheduler picks, per provider k, the rates
// x_ik admitted to k's pool maximizing sum_i p_i * (x_ik - EM(i,k))
// subject to k's capacity and i's entitlement bounds at k. Those bounds are
// the entitlement decomposition columns EM(i,k) / EO(i,k), which partition
// every server's capacity across principals (DESIGN.md D1), so no server is
// promised twice and the providers' programs are independent. With one
// provider that owns all capacity and customers that cede none — the
// paper's setting — they equal the access levels MC_i / OC_i. A second
// lexicographic stage maximizes total admitted rate at the optimal income,
// so zero-price traffic soaks up capacity the paying customers leave idle
// (serving it costs the provider nothing and helps the community metric).
//
// Each customer's demand is split across providers by fixed
// entitlement-share weights, and the providers' programs are solved one
// after another in principal-id order, each through its own StagedLp.
// (Fanning the solves out on a worker pool was measured 1.4–3.6x slower
// than this serial loop at 2–8 providers: each solve takes microseconds,
// so the hand-off costs more than it saves; DESIGN.md D8.)
#pragma once

#include <vector>

#include "core/agreement_graph.hpp"
#include "core/flow.hpp"
#include "lp/solve_context.hpp"
#include "sched/scheduler.hpp"
#include "sched/staged_lp.hpp"
#include "util/thread_annotations.hpp"

namespace sharegrid::sched {

/// Provider-income maximization via one LP pair per provider.
class IncomeScheduler final : public Scheduler {
 public:
  /// @param graph   agreement graph; every principal with capacity > 0 is a
  ///                provider (at least one must be), and plans fill exactly
  ///                those columns.
  /// @param levels  access levels precomputed from @p graph.
  /// @param prices  price per extra request, indexed by principal id.
  IncomeScheduler(const core::AgreementGraph& graph,
                  const core::AccessLevels& levels,
                  std::vector<double> prices);

  Plan plan(const std::vector<double>& demand) const override
      SHAREGRID_EXCLUDES(mutex_);
  std::size_t size() const override { return prices_.size(); }

  /// Income implied by a plan: over every provider k and principal i, the
  /// sum of p_i * max(0, rate(i, k) - EM(i, k)).
  double income(const Plan& plan) const;

  /// Overrides the LP solver tuning for every provider's stage solves (tests
  /// use this to force non-optimal verdicts and exercise the fallback path).
  void set_solver_options(const lp::SolverOptions& options)
      SHAREGRID_EXCLUDES(mutex_);

  /// Cumulative warm/cold solver statistics across all providers.
  lp::SolveStats solver_stats() const SHAREGRID_EXCLUDES(mutex_);

 private:
  /// One provider's program data, fixed at construction.
  struct Provider {
    core::PrincipalId id = 0;
    double capacity = 0.0;
    std::vector<double> mandatory;  // EM(i, id)
    std::vector<double> optional;   // EO(i, id)
    /// Fraction of principal i's demand offered to this provider: i's
    /// entitlement share here.
    std::vector<double> share;
  };

  /// Plans @p provider's column against its share of the demand.
  Plan plan_column(const Provider& provider, StagedLp& lp,
                   const std::vector<double>& demand) const;

  std::vector<double> prices_;
  std::vector<Provider> providers_;

  // One StagedLp per provider, in id order. The mutex serializes
  // whole windows, so every window feeds the warm-start contexts in the
  // same order regardless of caller concurrency.
  mutable util::Mutex mutex_;
  mutable std::vector<StagedLp> lps_ SHAREGRID_GUARDED_BY(mutex_);
};

}  // namespace sharegrid::sched
