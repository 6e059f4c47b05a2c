#include "coord/control_plane.hpp"

#include <algorithm>
#include <utility>

#include "audit/invariant_auditor.hpp"
#include "util/assert.hpp"
#include "util/matrix.hpp"
#include "util/metrics_registry.hpp"

namespace sharegrid::coord {

namespace {
/// EWMA weight of the newest window in the demand estimators (§4.1).
constexpr double kEstimatorAlpha = 0.3;

util::MetricCounter& windows_counter() {
  static util::MetricCounter& counter = util::global_metrics().counter(
      "coord.windows", "scheduling windows begun (one plan each)");
  return counter;
}
util::MetricCounter& replans_counter() {
  static util::MetricCounter& counter = util::global_metrics().counter(
      "coord.spike_replans", "mid-window spike re-plans taken");
  return counter;
}
}  // namespace

ControlPlane::ControlPlane(const sched::Scheduler* scheduler,
                           ControlPlaneConfig config)
    : scheduler_(scheduler), config_(std::move(config)) {
  SHAREGRID_EXPECTS(scheduler != nullptr);
  SHAREGRID_EXPECTS(config_.window > 0);
  SHAREGRID_EXPECTS(config_.redirector_count >= 1);
}

ControlPlane::Member* ControlPlane::add_member() {
  SHAREGRID_EXPECTS(members_.size() < config_.redirector_count);
  members_.push_back(
      std::make_unique<Member>(this, members_.size()));
  return members_.back().get();
}

void ControlPlane::connect(SnapshotTransport* transport) {
  SHAREGRID_EXPECTS(transport != nullptr);
  SHAREGRID_EXPECTS(!members_.empty());
  for (const auto& m : members_) {
    Member* member = m.get();
    transport->attach(
        member->index(), [member] { return member->local_demand(); },
        [member](std::uint64_t round, const std::vector<double>& aggregate) {
          member->receive_global(round, aggregate);
        });
    // Staleness means we lost the control plane; when it comes back it may
    // be a different epoch (restarted peer, new root), so the member is
    // re-admitted rather than merely invalidated.
    transport->attach_stale_handler(member->index(),
                                    [member] { member->readmit(); });
  }
}

void ControlPlane::end_windows() {
  for (const auto& m : members_) m->end_window();
}

void ControlPlane::begin_windows(SimTime now) {
  for (const auto& m : members_) m->begin_window(now);
}

void ControlPlane::audit_window_slices() const {
  if (members_.empty()) return;
  // The strict cross-member sum bound only holds while every member plans
  // from the identical input — the conservative no-snapshot phase. Once
  // snapshots flow, local demand drift legitimately pushes the slice sum
  // past one plan (see WindowScheduler::compute_slices); the per-member
  // share <= 1 bound is then audited inside each begin_window instead.
  if (config_.stale_policy != sched::StalePolicy::kConservative) return;
  for (const auto& m : members_) {
    if (m->global().valid) return;
  }
  const sched::WindowScheduler& first = members_.front()->window_scheduler();
  const std::size_t n = first.last_plan().rate.rows();
  if (n == 0) return;  // no window has begun yet
  Matrix slice_sum(n, n, 0.0);
  Matrix plan_ref(n, n, 0.0);
  for (const auto& m : members_) {
    const sched::WindowScheduler& w = m->window_scheduler();
    for (std::size_t i = 0; i < n; ++i) {
      for (std::size_t k = 0; k < n; ++k) {
        slice_sum(i, k) += w.slices()(i, k);
        plan_ref(i, k) = std::max(plan_ref(i, k), w.last_plan().rate(i, k));
      }
    }
  }
  audit::audit_control_plane_slice_sum(slice_sum, plan_ref,
                                       to_seconds(config_.window),
                                       /*tol=*/1e-7);
}

ControlPlane::Member::Member(ControlPlane* plane, std::size_t index)
    : plane_(plane),
      index_(index),
      window_(plane->scheduler_, plane->config_.window,
              plane->config_.redirector_count, plane->config_.stale_policy) {
  const std::size_t n = plane->scheduler_->size();
  estimators_.assign(n, sched::ArrivalEstimator(kEstimatorAlpha));
  arrivals_.assign(n, 0.0);
}

void ControlPlane::Member::record_arrival(core::PrincipalId principal,
                                          double amount) {
  SHAREGRID_EXPECTS(principal < arrivals_.size());
  SHAREGRID_EXPECTS(amount >= 0.0);
  arrivals_[principal] += amount;
}

std::optional<core::PrincipalId> ControlPlane::Member::try_admit(
    core::PrincipalId principal) {
  return window_.try_admit(principal);
}

bool ControlPlane::Member::spike_replan() {
  if (replanned_) {
    ++replans_suppressed_;
    return false;
  }
  replanned_ = true;
  ++spike_replans_;
  replans_counter().add();

  // The window's quota came from the previous window's estimates, which
  // starve a principal whose load just appeared; re-plan against demand
  // including the arrivals seen so far. replan() preserves consumption, so
  // sustained over-demand still bounces.
  const double window_sec = to_seconds(window_.window());
  std::vector<double> demand = local_demand();
  for (std::size_t i = 0; i < demand.size(); ++i)
    demand[i] = std::max(demand[i], arrivals_[i] / window_sec);
  window_.replan(demand, global_.valid ? global_
                                       : sched::GlobalDemand{demand, true});
  return true;
}

void ControlPlane::Member::end_window() {
  for (std::size_t i = 0; i < estimators_.size(); ++i) {
    estimators_[i].observe(arrivals_[i], window_.window());
    arrivals_[i] = 0.0;
  }
}

void ControlPlane::Member::begin_window(SimTime now) {
  windows_counter().add();
  last_local_demand_ = local_demand();
  window_.begin_window(last_local_demand_, global_);
  replanned_ = false;
  SHAREGRID_AUDIT_HOOK(audit::audit_control_plane_member_slices(
      window_.slices(), window_.last_plan().rate,
      /*share_cap=*/
      (!global_.valid &&
       plane_->config_.stale_policy == sched::StalePolicy::kConservative)
          ? 1.0 / static_cast<double>(plane_->config_.redirector_count)
          : 1.0,
      to_seconds(window_.window()), /*tol=*/1e-7));
  if (hooks_.on_window_begun) hooks_.on_window_begun(now);
}

void ControlPlane::Member::advance_window(SimTime now) {
  end_window();
  begin_window(now);
}

void ControlPlane::Member::receive_global(
    std::uint64_t round, const std::vector<double>& aggregate) {
  SHAREGRID_AUDIT_HOOK(audit::audit_control_plane_snapshot(
      has_snapshot_round_, last_round_, round));
  has_snapshot_round_ = true;
  last_round_ = round;
  global_.demand = aggregate;
  global_.valid = true;
}

std::vector<double> ControlPlane::Member::local_demand() const {
  // Estimated queue lengths (§4.1): the smoothed arrival rate per principal,
  // plus whatever latent demand the owning node can see (kernel queues,
  // held requests) via its extra_demand hook.
  std::vector<double> demand(estimators_.size(), 0.0);
  for (std::size_t i = 0; i < demand.size(); ++i)
    demand[i] = estimators_[i].rate();
  if (hooks_.extra_demand) hooks_.extra_demand(demand);
  return demand;
}

}  // namespace sharegrid::coord
