// Service-provider scheduler: maximize provider income (§3.1.2, "Total
// Income of Provider").
//
// A single provider owns a set of servers and has an SLA [lb_i, ub_i] with
// each customer i; the customer pays p_i per request processed beyond its
// mandatory level MC_i. Each window the scheduler picks per-customer
// admission rates x_i maximizing sum_i p_i * (x_i - MC_i) subject to
// aggregate capacity and the agreement bounds, then spreads each customer's
// admitted rate across the provider's servers in proportion to capacity.
// A second lexicographic stage maximizes total admitted rate at the optimal
// income, so zero-price traffic soaks up capacity the paying customers leave
// idle (serving it costs the provider nothing and helps the community
// metric).
#pragma once

#include <vector>

#include "core/agreement_graph.hpp"
#include "core/flow.hpp"
#include "lp/solve_context.hpp"
#include "sched/scheduler.hpp"
#include "util/thread_annotations.hpp"

namespace sharegrid::sched {

/// Provider-income maximization via LP.
class IncomeScheduler final : public Scheduler {
 public:
  /// @param graph     agreement graph; the provider is @p provider and every
  ///                  other principal is a customer.
  /// @param levels    access levels precomputed from @p graph.
  /// @param provider  id of the resource-owning provider.
  /// @param prices    price per extra request, indexed by principal id; the
  ///                  provider's own entry is ignored.
  IncomeScheduler(const core::AgreementGraph& graph,
                  core::AccessLevels levels, core::PrincipalId provider,
                  std::vector<double> prices);

  /// Tag selecting the per-server entitlement columns as the bound source.
  struct EntitlementColumns {};

  /// Multi-provider variant: customer i's bounds against @p provider come
  /// from the entitlement decomposition columns EM(i, provider) /
  /// EO(i, provider) rather than the global access levels MC_i / OC_i, so
  /// one IncomeScheduler per provider partitions the community capacity
  /// without any server being promised twice (DESIGN.md D1).
  IncomeScheduler(EntitlementColumns, const core::AgreementGraph& graph,
                  const core::AccessLevels& levels, core::PrincipalId provider,
                  std::vector<double> prices);

  Plan plan(const std::vector<double>& demand) const override;
  std::size_t size() const override { return prices_.size(); }

  core::PrincipalId provider() const { return provider_; }

  /// Income implied by a plan: sum of p_i * max(0, admitted_i - MC_i).
  double income(const Plan& plan) const;

  /// Overrides the LP solver tuning for every stage solve (tests use this to
  /// force Status::kIterationLimit and exercise the fallback path).
  void set_solver_options(const lp::SolverOptions& options);

  /// Cumulative warm/cold solver statistics across both LP stages.
  lp::SolveStats solver_stats() const;

 private:
  Plan fallback_plan(std::vector<double> demand) const
      SHAREGRID_REQUIRES(mutex_);

  core::PrincipalId provider_;
  std::vector<double> prices_;
  std::vector<double> mandatory_;  // MC_i
  std::vector<double> optional_;   // OC_i
  double provider_capacity_ = 0.0;

  // Warm-start solver caches (see Scheduler doc): per-stage contexts plus
  // the previous plan for iteration-limit fallback, guarded for concurrent
  // plan() callers.
  mutable util::Mutex mutex_;
  mutable lp::SolverOptions solver_options_ SHAREGRID_GUARDED_BY(mutex_);
  mutable lp::SolveContext stage1_context_ SHAREGRID_GUARDED_BY(mutex_);
  mutable lp::SolveContext stage2_context_ SHAREGRID_GUARDED_BY(mutex_);
  mutable Plan last_plan_ SHAREGRID_GUARDED_BY(mutex_);
  mutable bool has_last_plan_ SHAREGRID_GUARDED_BY(mutex_) = false;
};

}  // namespace sharegrid::sched
