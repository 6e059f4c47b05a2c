// The unified window-loop control plane (§3.2, §4; DESIGN.md D10).
//
// One coordination loop drives every enforcement point in the system:
//
//   monitor local demand  ->  combining-tree snapshot  ->  plan solve  ->
//   proportional slice distribution  ->  integer window quotas
//
// Historically that loop existed twice — hand-wired per redirector node in
// the simulator and re-implemented (single-node, tree-less) in the live
// stack. ControlPlane owns it once: per-principal ArrivalEstimator demand
// monitoring, snapshot exchange over an abstract SnapshotTransport, plan
// solves through the shared sched::Scheduler, and WindowScheduler
// slice/quota enforcement. Demand estimators weigh the newest window by
// 0.3, and each member may take one demand-spike re-plan per window.
//
// Timing is deliberately absent: a ControlPlane member only ever reacts to
// record_arrival / try_admit / advance_window / receive_global calls. The
// DES SimWindowDriver and the steady-clock WallClockDriver (window_driver.hpp)
// are thin shims that decide *when* those calls happen, so the simulator and
// the live L7 service execute the same code path and the D4 determinism
// contract survives the sharing.
#pragma once

#include <cstdint>
#include <functional>
#include <memory>
#include <optional>
#include <vector>

#include "coord/snapshot_transport.hpp"
#include "core/principal.hpp"
#include "sched/scheduler.hpp"
#include "sched/window_scheduler.hpp"
#include "util/time.hpp"

namespace sharegrid::coord {

/// Control-plane configuration shared by every member.
struct ControlPlaneConfig {
  /// Scheduling window length (paper: 100 ms).
  SimDuration window = 100 * kMillisecond;
  /// R, the redirector fleet size — the conservative no-snapshot slice is
  /// 1/R (paper §5.1, Figure 8 phase 1). Members may be added up to R.
  std::size_t redirector_count = 1;
  /// Behaviour before the first snapshot arrives.
  sched::StalePolicy stale_policy = sched::StalePolicy::kConservative;
};

/// Shared window loop; holds one Member per redirector / service instance.
class ControlPlane {
 public:
  /// Node-specific extensions a member's owner may install.
  struct MemberHooks {
    /// Adjusts the demand vector after the estimator rates are filled in —
    /// e.g. the L4 redirector adds kernel-queue backlog and excess in-flight
    /// work, the explicit-queue L7 mode adds held requests.
    std::function<void(std::vector<double>&)> extra_demand;
    /// Runs after a window's quotas are in place (trace rows, queue drains).
    std::function<void(SimTime now)> on_window_begun;
  };

  /// One redirector's slice of the control plane.
  class Member {
   public:
    Member(ControlPlane* plane, std::size_t index);

    /// Installs node-specific hooks (typically from the owner's ctor).
    void bind(MemberHooks hooks) { hooks_ = std::move(hooks); }

    /// Records @p amount arrival units for @p principal in this window.
    void record_arrival(core::PrincipalId principal, double amount);

    /// Attempts to admit one request; see WindowScheduler::try_admit.
    std::optional<core::PrincipalId> try_admit(core::PrincipalId principal);

    /// Demand-spike fast path: re-plans the current window against demand
    /// including the arrivals seen so far, at most once per window. Returns
    /// false — and counts a suppressed re-plan — when this window already
    /// re-planned (or none has begun yet).
    bool spike_replan();

    /// Folds this window's arrivals into the rate estimators.
    void end_window();
    /// Starts a new window: recomputes local demand, re-plans quotas against
    /// the latest snapshot, allows one spike re-plan again, and fires the
    /// owner's on_window_begun hook.
    void begin_window(SimTime now);
    /// end_window() + begin_window() — one full window boundary.
    void advance_window(SimTime now);

    /// Snapshot delivery (SnapshotTransport receiver). Rounds must strictly
    /// increase; the audit_control_plane hook pins that.
    void receive_global(std::uint64_t round,
                        const std::vector<double>& aggregate);

    /// Stale handler (SnapshotTransport): drops back to the no-snapshot
    /// regime, so the next begin_window plans against the conservative 1/R
    /// share until a fresh aggregate arrives, and resets the
    /// round-monotonicity fence. A member that lost its control plane may be
    /// re-admitted under a different transport epoch (a restarted process,
    /// or a newly elected root); it plans conservatively (1/R) until the
    /// next aggregate folds it back in at a round boundary, and that first
    /// aggregate's round tag is accepted as the new fence base instead of
    /// being audited against the pre-partition sequence.
    void readmit() {
      global_.valid = false;
      has_snapshot_round_ = false;
    }

    /// Current local demand estimate (SnapshotTransport provider): estimator
    /// rates plus whatever the owner's extra_demand hook adds.
    std::vector<double> local_demand() const;

    std::size_t index() const { return index_; }
    std::size_t size() const { return arrivals_.size(); }
    SimDuration window() const { return window_.window(); }
    const sched::WindowScheduler& window_scheduler() const { return window_; }
    const sched::GlobalDemand& global() const { return global_; }
    /// The demand vector the current window was planned against.
    const std::vector<double>& last_local_demand() const {
      return last_local_demand_;
    }

    std::uint64_t spike_replans() const { return spike_replans_; }
    std::uint64_t replans_suppressed() const { return replans_suppressed_; }

   private:
    friend class ControlPlane;

    ControlPlane* plane_;
    std::size_t index_;
    sched::WindowScheduler window_;
    std::vector<sched::ArrivalEstimator> estimators_;
    std::vector<double> arrivals_;
    std::vector<double> last_local_demand_;
    sched::GlobalDemand global_;
    MemberHooks hooks_;

    bool has_snapshot_round_ = false;
    std::uint64_t last_round_ = 0;

    // Set once this window's spike re-plan is taken; begin_window clears it.
    // Starts set: no re-plan before the first window.
    bool replanned_ = true;
    std::uint64_t spike_replans_ = 0;
    std::uint64_t replans_suppressed_ = 0;
  };

  /// @param scheduler shared planning logic (not owned; one per deployment).
  ControlPlane(const sched::Scheduler* scheduler, ControlPlaneConfig config);

  /// Adds the next member (index = registration order). At most
  /// config.redirector_count members may exist. Pointers stay stable.
  Member* add_member();

  /// Attaches every member's provider/receiver to @p transport (not owned).
  /// Call after all members are added and before transport->start().
  void connect(SnapshotTransport* transport);

  /// Window boundaries for every member in index order — what the drivers
  /// call. Separate end/begin phases let a driver interleave a snapshot
  /// exchange between them if it wants fresher aggregates.
  void end_windows();
  void begin_windows(SimTime now);

  /// Audit hook: cross-member slice conservation. While *no* member has a
  /// snapshot yet and the policy is conservative, every member plans from
  /// the identical saturated demand, so the per-cell slices across the fleet
  /// must sum to at most one full plan share (the 1/R slices of §5.1).
  /// Always compiled (tests call it directly); drivers invoke it under
  /// SHAREGRID_AUDIT_HOOK.
  void audit_window_slices() const;

  std::size_t member_count() const { return members_.size(); }
  Member* member(std::size_t i) { return members_[i].get(); }
  const Member* member(std::size_t i) const { return members_[i].get(); }
  const ControlPlaneConfig& config() const { return config_; }
  const sched::Scheduler* scheduler() const { return scheduler_; }

 private:
  const sched::Scheduler* scheduler_;
  ControlPlaneConfig config_;
  std::vector<std::unique_ptr<Member>> members_;
};

}  // namespace sharegrid::coord
