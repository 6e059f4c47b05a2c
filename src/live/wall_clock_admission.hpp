// Wall-clock admission facade behind the live L7 service.
//
// The window loop itself — demand estimators, snapshot exchange, plan solve,
// proportional slices, integer quotas — is coord::ControlPlane, the same
// implementation the DES experiments run (DESIGN.md D10). This facade is the
// thin live-side driver for one control-plane member: it owns the
// steady_clock, serializes every call behind one mutex, and rolls elapsed
// windows through a WallClockDriver, which feeds the member its own demand
// back through a one-member InProcessTransport after each window (the
// cross-process coord::SocketTransport plugs into the same seam). A demand-
// spike fast path re-plans the current window when a cold estimator would
// otherwise starve a principal whose load just appeared, at most once per
// window.
#pragma once

#include <chrono>
#include <cstdint>
#include <optional>

#include "coord/control_plane.hpp"
#include "coord/snapshot_transport.hpp"
#include "coord/window_driver.hpp"
#include "sched/scheduler.hpp"
#include "util/thread_annotations.hpp"

namespace sharegrid::live {

/// Thread-safe, wall-clock-driven admission facade over the control plane.
class WallClockAdmission {
 public:
  /// @param scheduler    planning logic (not owned).
  /// @param window_usec  scheduling window in wall-clock microseconds
  ///                     (paper: 100 ms).
  WallClockAdmission(const sched::Scheduler* scheduler,
                     std::int64_t window_usec)
      : transport_(1, scheduler->size()),
        plane_(scheduler, plane_config(window_usec)),
        member_(plane_.add_member()),
        driver_(&plane_, &transport_, window_usec),
        epoch_(std::chrono::steady_clock::now()) {
    plane_.connect(&transport_);
    transport_.start();
  }

  /// Resets the window clock (call when the service starts serving).
  void reset_clock() SHAREGRID_EXCLUDES(mutex_) {
    const util::MutexLock lock(mutex_);
    driver_.reset(now_usec());
  }

  /// Records one arrival for @p principal and attempts admission; returns
  /// the resource owner to route to, or nullopt when out of quota.
  /// Out-of-quota requests try the demand-spike fast path once, if this
  /// window has not re-planned yet.
  std::optional<core::PrincipalId> try_admit(core::PrincipalId principal)
      SHAREGRID_EXCLUDES(mutex_) {
    const util::MutexLock lock(mutex_);
    driver_.poll(now_usec());
    member_->record_arrival(principal, 1.0);
    if (const auto owner = member_->try_admit(principal)) return owner;
    if (!member_->spike_replan()) return std::nullopt;
    return member_->try_admit(principal);
  }

  /// Introspection for tests/metrics. plane() returns a reference into
  /// control-plane state the mutex protects — read it only while no other
  /// thread can be inside try_admit.
  const coord::ControlPlane& plane() const { return plane_; }
  std::uint64_t windows_begun() const SHAREGRID_EXCLUDES(mutex_) {
    const util::MutexLock lock(mutex_);
    return driver_.windows_begun();
  }
  std::uint64_t snapshot_rounds() const SHAREGRID_EXCLUDES(mutex_) {
    const util::MutexLock lock(mutex_);
    return transport_.rounds_completed();
  }

 private:
  static coord::ControlPlaneConfig plane_config(std::int64_t window_usec) {
    SHAREGRID_EXPECTS(window_usec > 0);
    coord::ControlPlaneConfig plane;
    plane.window = window_usec;  // SimTime ticks are microseconds
    return plane;
  }

  std::int64_t now_usec() const {
    return std::chrono::duration_cast<std::chrono::microseconds>(
               std::chrono::steady_clock::now() - epoch_)
        .count();
  }

  /// Serializes every admission/clock call. transport_, plane_, and the
  /// Member behind member_ are reached through references the control plane
  /// hands out, so the analysis cannot tie them to the mutex (see the
  /// accessor caveat above); driver_ is accessed directly and is.
  mutable util::Mutex mutex_;
  coord::InProcessTransport transport_;
  coord::ControlPlane plane_;
  coord::ControlPlane::Member* member_;  // set in ctor only
  coord::WallClockDriver driver_ SHAREGRID_GUARDED_BY(mutex_);
  std::chrono::steady_clock::time_point epoch_;
};

}  // namespace sharegrid::live
