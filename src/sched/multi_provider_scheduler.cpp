#include "sched/multi_provider_scheduler.hpp"

#include <utility>

#include "util/assert.hpp"

namespace sharegrid::sched {

MultiProviderScheduler::MultiProviderScheduler(
    const core::AgreementGraph& graph, const core::AccessLevels& levels,
    std::vector<core::PrincipalId> providers, std::vector<double> prices)
    : providers_(std::move(providers)) {
  const std::size_t n = graph.size();
  const std::size_t count = providers_.size();
  SHAREGRID_EXPECTS(count > 0);
  SHAREGRID_EXPECTS(prices.size() == n);
  per_provider_.reserve(count);
  for (const core::PrincipalId k : providers_) {
    SHAREGRID_EXPECTS(k < n);
    per_provider_.push_back(std::make_unique<IncomeScheduler>(
        IncomeScheduler::EntitlementColumns{}, graph, levels, k, prices));
  }

  // Split each customer's demand by its entitlement share at each provider;
  // a customer entitled nowhere offers its demand evenly (it can still be
  // admitted through a provider's optional headroom stage).
  weights_ = Matrix(n, count, 0.0);
  for (std::size_t i = 0; i < n; ++i) {
    double total = 0.0;
    for (std::size_t p = 0; p < count; ++p)
      total += levels.mandatory_entitlement(i, providers_[p]) +
               levels.optional_entitlement(i, providers_[p]);
    for (std::size_t p = 0; p < count; ++p) {
      weights_(i, p) =
          total > 0.0
              ? (levels.mandatory_entitlement(i, providers_[p]) +
                 levels.optional_entitlement(i, providers_[p])) /
                    total
              : 1.0 / static_cast<double>(count);
    }
  }
}

void MultiProviderScheduler::set_solver_options(
    const lp::SolverOptions& options) {
  const util::MutexLock lock(mutex_);
  for (auto& scheduler : per_provider_) scheduler->set_solver_options(options);
}

lp::SolveStats MultiProviderScheduler::solver_stats() const {
  const util::MutexLock lock(mutex_);
  lp::SolveStats total;
  for (const auto& scheduler : per_provider_) total += scheduler->solver_stats();
  return total;
}

Plan MultiProviderScheduler::plan(const std::vector<double>& demand) const {
  const std::size_t n = weights_.rows();
  const std::size_t count = providers_.size();
  SHAREGRID_EXPECTS(demand.size() == n);
  const util::MutexLock lock(mutex_);

  // Solve in provider order; each plan fills only its provider's column.
  Plan out;
  out.demand = demand;
  out.rate = Matrix(n, n, 0.0);
  std::vector<double> split(n, 0.0);
  for (std::size_t p = 0; p < count; ++p) {
    for (std::size_t i = 0; i < n; ++i) split[i] = demand[i] * weights_(i, p);
    const Plan result = per_provider_[p]->plan(split);
    const core::PrincipalId k = providers_[p];
    for (std::size_t i = 0; i < n; ++i) out.rate(i, k) = result.rate(i, k);
    out.lp_fallback = out.lp_fallback || result.lp_fallback;
  }
  return out;
}

double MultiProviderScheduler::income(const Plan& plan) const {
  double total = 0.0;
  for (std::size_t p = 0; p < providers_.size(); ++p) {
    // Each provider prices only the column it planned.
    Plan column;
    column.demand = plan.demand;
    column.rate = Matrix(plan.rate.rows(), plan.rate.cols(), 0.0);
    const core::PrincipalId k = providers_[p];
    for (std::size_t i = 0; i < plan.rate.rows(); ++i)
      column.rate(i, k) = plan.rate(i, k);
    total += per_provider_[p]->income(column);
  }
  return total;
}

}  // namespace sharegrid::sched
