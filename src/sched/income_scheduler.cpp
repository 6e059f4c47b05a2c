#include "sched/income_scheduler.hpp"

#include <algorithm>
#include <utility>

#include "lp/solve_context.hpp"
#include "util/assert.hpp"

namespace sharegrid::sched {

using lp::Problem;
using lp::Relation;
using lp::Sense;

IncomeScheduler::IncomeScheduler(const core::AgreementGraph& graph,
                                 core::AccessLevels levels,
                                 core::PrincipalId provider,
                                 std::vector<double> prices)
    : provider_(provider), prices_(std::move(prices)) {
  SHAREGRID_EXPECTS(provider < graph.size());
  SHAREGRID_EXPECTS(prices_.size() == graph.size());
  SHAREGRID_EXPECTS(levels.size() == graph.size());
  for (double p : prices_) SHAREGRID_EXPECTS(p >= 0.0);
  mandatory_ = levels.mandatory_capacity;
  optional_ = levels.optional_capacity;
  provider_capacity_ = graph.capacity(provider);
  SHAREGRID_EXPECTS(provider_capacity_ > 0.0);
}

IncomeScheduler::IncomeScheduler(EntitlementColumns,
                                 const core::AgreementGraph& graph,
                                 const core::AccessLevels& levels,
                                 core::PrincipalId provider,
                                 std::vector<double> prices)
    : provider_(provider), prices_(std::move(prices)) {
  SHAREGRID_EXPECTS(provider < graph.size());
  SHAREGRID_EXPECTS(prices_.size() == graph.size());
  SHAREGRID_EXPECTS(levels.size() == graph.size());
  for (double p : prices_) SHAREGRID_EXPECTS(p >= 0.0);
  const std::size_t n = graph.size();
  mandatory_.resize(n);
  optional_.resize(n);
  for (std::size_t i = 0; i < n; ++i) {
    mandatory_[i] = levels.mandatory_entitlement(i, provider);
    optional_[i] = levels.optional_entitlement(i, provider);
  }
  provider_capacity_ = graph.capacity(provider);
  SHAREGRID_EXPECTS(provider_capacity_ > 0.0);
}

void IncomeScheduler::set_solver_options(const lp::SolverOptions& options) {
  const util::MutexLock lock(mutex_);
  solver_options_ = options;
}

lp::SolveStats IncomeScheduler::solver_stats() const {
  const util::MutexLock lock(mutex_);
  lp::SolveStats total = stage1_context_.stats();
  total += stage2_context_.stats();
  return total;
}

/// No fresh plan this window: reuse the previous window's allocation (an
/// empty one if no window ever succeeded) against the current demand.
Plan IncomeScheduler::fallback_plan(std::vector<double> demand) const {
  Plan out;
  if (has_last_plan_) {
    out = last_plan_;
  } else {
    out.rate = Matrix(prices_.size(), prices_.size(), 0.0);
  }
  out.demand = std::move(demand);
  out.lp_fallback = true;
  return out;
}

Plan IncomeScheduler::plan(const std::vector<double>& demand) const {
  const std::size_t n = prices_.size();
  SHAREGRID_EXPECTS(demand.size() == n);
  for (double d : demand) SHAREGRID_EXPECTS(d >= 0.0);
  const util::MutexLock lock(mutex_);

  // One variable per principal: the rate admitted to the provider's pool.
  auto build = [&] {
    Problem p(n, Sense::kMaximize);
    for (std::size_t i = 0; i < n; ++i) {
      // Mandatory level is honoured up to available demand; the ceiling is
      // the agreement upper bound. The boxes are implicit (DESIGN.md D9), so
      // this whole program is a single capacity row regardless of n, and
      // per-window demand drift only rewrites bound data — no re-prepare.
      const double lo = std::min(mandatory_[i], demand[i]);
      const double hi =
          std::min(mandatory_[i] + optional_[i], std::max(lo, demand[i]));
      p.set_bounds(i, lo, hi);
    }
    std::vector<std::pair<std::size_t, double>> cap_terms;
    for (std::size_t i = 0; i < n; ++i) cap_terms.emplace_back(i, 1.0);
    p.add_constraint(std::move(cap_terms), Relation::kLessEq,
                     provider_capacity_);
    return p;
  };

  // Stage 1: maximize income. The objective is sum p_i * (x_i - MC_i); the
  // -p_i*MC_i terms are constant and do not affect the argmax.
  Problem p1 = build();
  for (std::size_t i = 0; i < n; ++i) p1.set_objective(i, prices_[i]);
  const lp::Solution s1 = stage1_context_.solve(p1, solver_options_);
  if (s1.status == lp::Status::kIterationLimit) return fallback_plan(demand);
  SHAREGRID_ENSURES(s1.optimal());

  Plan out;
  out.demand = demand;
  out.rate = Matrix(n, n, 0.0);

  // Stage 2: at the optimal income, maximize total admitted rate so
  // zero-price demand can use capacity the paying customers leave idle.
  // The tiny index-graded bonus breaks ties among equal-price principals:
  // without it the vertex depends on the pivot path, so warm-started and
  // cold solves can disagree on who gets the idle capacity even though
  // both are optimal.
  Problem p2 = build();
  for (std::size_t i = 0; i < n; ++i)
    p2.set_objective(
        i, 1.0 + 1e-6 * static_cast<double>(n - i) / static_cast<double>(n));
  std::vector<std::pair<std::size_t, double>> income_terms;
  for (std::size_t i = 0; i < n; ++i)
    if (prices_[i] > 0.0) income_terms.emplace_back(i, prices_[i]);
  if (!income_terms.empty()) {
    double income_star = 0.0;
    for (std::size_t i = 0; i < n; ++i)
      income_star += prices_[i] * s1.values[i];
    p2.add_constraint(std::move(income_terms), Relation::kGreaterEq,
                      income_star * (1.0 - 1e-9) - 1e-9);
  }
  const lp::Solution s2 = stage2_context_.solve(p2, solver_options_);
  const lp::Solution* final_solution = &s2;
  if (s2.status == lp::Status::kIterationLimit) {
    // Stage 1 already maximized income; degrade to its solution (giving
    // up only work conservation) but still flag the window.
    out.lp_fallback = true;
    final_solution = &s1;
  } else {
    SHAREGRID_ENSURES(s2.optimal());
  }

  for (std::size_t i = 0; i < n; ++i)
    out.rate(i, provider_) = std::max(0.0, final_solution->values[i]);
  last_plan_ = out;
  last_plan_.lp_fallback = false;
  has_last_plan_ = true;
  return out;
}

double IncomeScheduler::income(const Plan& plan) const {
  double total = 0.0;
  for (std::size_t i = 0; i < prices_.size(); ++i)
    total += prices_[i] * std::max(0.0, plan.admitted(i) - mandatory_[i]);
  return total;
}

}  // namespace sharegrid::sched
