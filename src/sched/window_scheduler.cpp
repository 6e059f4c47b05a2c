#include "sched/window_scheduler.hpp"

#include <algorithm>
#include <cmath>

#include "audit/invariant_auditor.hpp"
#include "util/assert.hpp"

namespace sharegrid::sched {

ArrivalEstimator::ArrivalEstimator(double alpha) : alpha_(alpha) {
  SHAREGRID_EXPECTS(std::isfinite(alpha));
  SHAREGRID_EXPECTS(alpha > 0.0 && alpha <= 1.0);
}

void ArrivalEstimator::observe(double arrivals, SimDuration window) {
  SHAREGRID_EXPECTS(arrivals >= 0.0);
  SHAREGRID_EXPECTS(window > 0);
  const double instantaneous = arrivals / to_seconds(window);
  if (!primed_) {
    rate_ = instantaneous;
    primed_ = true;
    return;
  }
  rate_ = alpha_ * instantaneous + (1.0 - alpha_) * rate_;
}

WindowScheduler::WindowScheduler(const Scheduler* scheduler, SimDuration window,
                                 std::size_t redirector_count,
                                 StalePolicy stale_policy)
    : scheduler_(scheduler),
      window_(window),
      redirector_count_(redirector_count),
      stale_policy_(stale_policy) {
  SHAREGRID_EXPECTS(scheduler != nullptr);
  SHAREGRID_EXPECTS(window > 0);
  SHAREGRID_EXPECTS(redirector_count >= 1);
  const std::size_t n = scheduler_->size();
  demand_scratch_.resize(n);
  share_scratch_.resize(n);
  quota_ = Matrix(n, n, 0.0);
  debt_ = Matrix(n, n, 0.0);
  consumed_ = Matrix(n, n, 0.0);
  slices_ = Matrix(n, n, 0.0);
}

void WindowScheduler::compute_slices(const std::vector<double>& local_demand,
                                     const GlobalDemand& global) {
  const std::size_t n = scheduler_->size();
  SHAREGRID_EXPECTS(local_demand.size() == n);
  SHAREGRID_EXPECTS(!global.valid || global.demand.size() == n);

  // Build the demand estimate and this redirector's share of each
  // principal's global queue.
  std::vector<double>& demand = demand_scratch_;
  std::vector<double>& share = share_scratch_;
  if (!global.valid && stale_policy_ == StalePolicy::kConservative) {
    // Conservative mode: assume everyone is saturated, which pins every
    // principal to its mandatory entitlement, and admit only a 1/R slice.
    // The magnitude is irrelevant as long as it exceeds anything a plan
    // could grant.
    constexpr double kSaturated = 1e9;
    for (std::size_t i = 0; i < n; ++i) {
      demand[i] = kSaturated;
      share[i] = 1.0 / static_cast<double>(redirector_count_);
    }
  } else if (!global.valid) {
    // Optimistic mode: pretend the local view is the whole system.
    for (std::size_t i = 0; i < n; ++i) {
      demand[i] = local_demand[i];
      share[i] = local_demand[i] > 0.0 ? 1.0 : 0.0;
    }
  } else {
    for (std::size_t i = 0; i < n; ++i) {
      // The snapshot can lag local truth (it is at least one propagation
      // delay old); never let it hide demand this redirector can see.
      demand[i] = std::max(global.demand[i], local_demand[i]);
      // The share denominator, however, must be the *snapshot*: every
      // redirector divides by the same number, so the slices sum to
      // (current total / snapshot total) ~ 1. Clipping the denominator
      // with the local view would bias the sum below 1 whenever any
      // node's local estimate spikes, silently under-delivering mandatory
      // quota when a principal's clients span redirectors.
      if (global.demand[i] > 1e-9) {
        share[i] = std::min(1.0, local_demand[i] / global.demand[i]);
      } else {
        share[i] = local_demand[i] > 0.0 ? 1.0 : 0.0;
      }
    }
  }

  plan_ = scheduler_->plan(demand);
  if (plan_.lp_fallback) ++plan_fallbacks_;

  const double window_sec = to_seconds(window_);
  for (std::size_t i = 0; i < n; ++i)
    for (std::size_t k = 0; k < n; ++k)
      slices_(i, k) = plan_.rate(i, k) * share[i] * window_sec;
}

void WindowScheduler::begin_window(const std::vector<double>& local_demand,
                                   const GlobalDemand& global) {
  compute_slices(local_demand, global);
  const std::size_t n = scheduler_->size();
  for (std::size_t i = 0; i < n; ++i) {
    for (std::size_t k = 0; k < n; ++k) {
      // Debt from an overdrawn slice reduces this window's quota;
      // unused positive quota does NOT accumulate (window semantics).
      debt_(i, k) = std::min(0.0, quota_(i, k));
      consumed_(i, k) = 0.0;
      quota_(i, k) = slices_(i, k) + debt_(i, k);
    }
  }
  SHAREGRID_AUDIT_HOOK(audit::audit_window_conservation(
      quota_, consumed_, debt_, slices_, /*tol=*/1e-9));
}

void WindowScheduler::replan(const std::vector<double>& local_demand,
                             const GlobalDemand& global) {
  compute_slices(local_demand, global);
  const std::size_t n = scheduler_->size();
  // Fresh slices against the same window's debt and consumption: quota can
  // only grow if the *plan* grew, never because consumption was forgotten.
  for (std::size_t i = 0; i < n; ++i)
    for (std::size_t k = 0; k < n; ++k)
      quota_(i, k) = slices_(i, k) + debt_(i, k) - consumed_(i, k);
  SHAREGRID_AUDIT_HOOK(audit::audit_window_conservation(
      quota_, consumed_, debt_, slices_, /*tol=*/1e-9));
}

std::optional<core::PrincipalId> WindowScheduler::try_admit(
    core::PrincipalId i) {
  SHAREGRID_EXPECTS(i < quota_.rows());
  // Send to the server with the most remaining quota: a cheap balance
  // heuristic that keeps per-window placement close to the plan's ratios.
  // The threshold is well above LP solver noise so a column whose true
  // allocation is zero can never be "admitted to" on rounding residue.
  std::size_t best = quota_.cols();
  double best_quota = 1e-3;
  for (std::size_t k = 0; k < quota_.cols(); ++k) {
    if (quota_(i, k) > best_quota) {
      best_quota = quota_(i, k);
      best = k;
    }
  }
  if (best == quota_.cols()) return std::nullopt;
  quota_(i, best) -= 1.0;
  consumed_(i, best) += 1.0;
  SHAREGRID_AUDIT_HOOK(audit::audit_window_conservation(
      quota_, consumed_, debt_, slices_, /*tol=*/1e-9));
  return best;
}

double WindowScheduler::remaining_quota(core::PrincipalId i) const {
  SHAREGRID_EXPECTS(i < quota_.rows());
  double total = 0.0;
  for (std::size_t k = 0; k < quota_.cols(); ++k) total += quota_(i, k);
  return total;
}

}  // namespace sharegrid::sched
