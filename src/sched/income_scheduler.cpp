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
                                 const core::AccessLevels& levels,
                                 std::vector<double> prices)
    : prices_(std::move(prices)) {
  const std::size_t n = graph.size();
  SHAREGRID_EXPECTS(prices_.size() == n);
  SHAREGRID_EXPECTS(levels.size() == n);
  for (double p : prices_) SHAREGRID_EXPECTS(p >= 0.0);
  std::vector<core::PrincipalId> providers;
  for (core::PrincipalId k = 0; k < n; ++k)
    if (graph.capacity(k) > 0.0) providers.push_back(k);
  const std::size_t count = providers.size();
  SHAREGRID_EXPECTS(count > 0);

  // Split each customer's demand by its entitlement share at each provider;
  // a customer entitled nowhere offers its demand evenly (it can still be
  // admitted through a provider's optional headroom stage).
  std::vector<double> total(n, 0.0);
  for (std::size_t i = 0; i < n; ++i)
    for (const core::PrincipalId k : providers)
      total[i] += levels.mandatory_entitlement(i, k) +
                  levels.optional_entitlement(i, k);
  Plan empty;
  empty.rate = Matrix(n, n, 0.0);
  providers_.reserve(count);
  lps_.reserve(count);
  for (const core::PrincipalId k : providers) {
    Provider provider;
    provider.id = k;
    provider.capacity = graph.capacity(k);
    for (std::size_t i = 0; i < n; ++i) {
      const double em = levels.mandatory_entitlement(i, k);
      const double eo = levels.optional_entitlement(i, k);
      provider.mandatory.push_back(em);
      provider.optional.push_back(eo);
      provider.share.push_back(total[i] > 0.0
                                   ? (em + eo) / total[i]
                                   : 1.0 / static_cast<double>(count));
    }
    providers_.push_back(std::move(provider));
    lps_.emplace_back(empty);
  }
}

void IncomeScheduler::set_solver_options(const lp::SolverOptions& options) {
  const util::MutexLock lock(mutex_);
  for (StagedLp& lp : lps_) lp.set_options(options);
}

lp::SolveStats IncomeScheduler::solver_stats() const {
  const util::MutexLock lock(mutex_);
  lp::SolveStats total;
  for (const StagedLp& lp : lps_) total += lp.stats();
  return total;
}

Plan IncomeScheduler::plan(const std::vector<double>& demand) const {
  const std::size_t n = prices_.size();
  SHAREGRID_EXPECTS(demand.size() == n);
  for (double d : demand) SHAREGRID_EXPECTS(d >= 0.0);
  const util::MutexLock lock(mutex_);

  // Solve in provider order; each provider's plan fills only its column.
  Plan out;
  out.demand = demand;
  out.rate = Matrix(n, n, 0.0);
  std::vector<double> split(n, 0.0);
  for (std::size_t p = 0; p < providers_.size(); ++p) {
    const Provider& provider = providers_[p];
    for (std::size_t i = 0; i < n; ++i)
      split[i] = demand[i] * provider.share[i];
    const Plan column = plan_column(provider, lps_[p], split);
    for (std::size_t i = 0; i < n; ++i)
      out.rate(i, provider.id) = column.rate(i, provider.id);
    out.lp_fallback = out.lp_fallback || column.lp_fallback;
  }
  return out;
}

Plan IncomeScheduler::plan_column(const Provider& provider, StagedLp& lp,
                                  const std::vector<double>& demand) const {
  const std::size_t n = prices_.size();

  // One variable per principal: the rate admitted to the provider's pool.
  auto build = [&] {
    Problem p(n, Sense::kMaximize);
    for (std::size_t i = 0; i < n; ++i) {
      // Mandatory level is honoured up to available demand; the ceiling is
      // the agreement upper bound. The boxes are implicit (DESIGN.md D9), so
      // this whole program is a single capacity row regardless of n, and
      // per-window demand drift only rewrites bound data — no re-prepare.
      const double lo = std::min(provider.mandatory[i], demand[i]);
      const double hi = std::min(provider.mandatory[i] + provider.optional[i],
                                 std::max(lo, demand[i]));
      p.set_bounds(i, lo, hi);
    }
    std::vector<std::pair<std::size_t, double>> cap_terms;
    for (std::size_t i = 0; i < n; ++i) cap_terms.emplace_back(i, 1.0);
    p.add_constraint(std::move(cap_terms), Relation::kLessEq,
                     provider.capacity);
    return p;
  };

  // Stage 1: maximize income. The objective is sum p_i * (x_i - EM_i); the
  // -p_i*EM_i terms are constant and do not affect the argmax.
  auto stage1 = [&](std::size_t) {
    Problem p1 = build();
    for (std::size_t i = 0; i < n; ++i) p1.set_objective(i, prices_[i]);
    return p1;
  };

  // Stage 2: at the optimal income, maximize total admitted rate so
  // zero-price demand can use capacity the paying customers leave idle.
  // The tiny index-graded bonus breaks ties among equal-price principals:
  // without it the vertex depends on the pivot path, so warm-started and
  // cold solves can disagree on who gets the idle capacity even though
  // both are optimal.
  auto stage2 = [&](std::size_t, const lp::Solution& s1) {
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
    return p2;
  };

  auto fill = [&](const lp::Solution&, const std::vector<double>& values,
                  Plan& out) {
    out.rate = Matrix(n, n, 0.0);
    for (std::size_t i = 0; i < n; ++i)
      out.rate(i, provider.id) = std::max(0.0, values[i]);
  };
  return lp.solve(demand, stage1, stage2, fill);
}

double IncomeScheduler::income(const Plan& plan) const {
  double total = 0.0;
  for (const Provider& provider : providers_)
    for (std::size_t i = 0; i < prices_.size(); ++i)
      total += prices_[i] * std::max(0.0, plan.rate(i, provider.id) -
                                              provider.mandatory[i]);
  return total;
}

}  // namespace sharegrid::sched
