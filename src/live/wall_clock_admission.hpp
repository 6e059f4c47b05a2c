// Wall-clock admission facade shared by the live L7 service and L4 proxy.
//
// The window loop itself — demand estimators, snapshot exchange, plan solve,
// proportional slices, integer quotas — is coord::ControlPlane, the same
// implementation the DES experiments run (DESIGN.md D10). This facade is the
// thin live-side driver: it owns the steady_clock, serializes every call
// behind one mutex, rolls elapsed windows through a WallClockDriver, and
// runs multi-redirector snapshot exchange over an InProcessTransport (the
// cross-process coord::SocketTransport plugs into the same seam). A demand-
// spike fast path re-plans the current window when a cold estimator would
// otherwise starve a principal whose load just appeared, bounded by the
// control plane's per-window re-plan budget.
#pragma once

#include <chrono>
#include <cstdint>
#include <optional>
#include <vector>

#include "coord/control_plane.hpp"
#include "coord/snapshot_transport.hpp"
#include "coord/window_driver.hpp"
#include "sched/scheduler.hpp"
#include "util/thread_annotations.hpp"

namespace sharegrid::live {

/// Thread-safe, wall-clock-driven admission facade over the control plane.
class WallClockAdmission {
 public:
  struct Config {
    /// Scheduling window in wall-clock microseconds (paper: 100 ms).
    std::int64_t window_usec = 100000;
    /// Redirector instances sharing this process (one control-plane member
    /// each); their demand vectors are combined through the in-process
    /// transport every `snapshot_period_windows` windows.
    std::size_t redirector_count = 1;
    /// Mid-window spike re-plans allowed per member per window; fractional
    /// rates are error-carried, 0 disables the fast path.
    double spike_replan_limit = 1.0;
    /// Snapshot exchange cadence in windows (>= 1).
    std::int64_t snapshot_period_windows = 1;
    /// Idle-gap bound: at most this many windows advance per poll.
    std::int64_t max_catchup = 16;
  };

  /// @param scheduler planning logic (not owned).
  WallClockAdmission(const sched::Scheduler* scheduler, Config config)
      : transport_(config.redirector_count, scheduler->size()),
        plane_(scheduler, plane_config(config)),
        driver_(&plane_, &transport_, driver_options(config)),
        epoch_(std::chrono::steady_clock::now()) {
    for (std::size_t r = 0; r < config.redirector_count; ++r)
      members_.push_back(plane_.add_member());
    plane_.connect(&transport_);
    transport_.start();
  }

  /// Single-member shorthand (the historical live-node constructor).
  WallClockAdmission(const sched::Scheduler* scheduler,
                     std::int64_t window_usec)
      : WallClockAdmission(scheduler, single_node(window_usec)) {}

  /// Resets the window clock (call when the service starts serving).
  void reset_clock() SHAREGRID_EXCLUDES(mutex_) {
    const util::MutexLock lock(mutex_);
    driver_.reset(now_usec());
  }

  /// Records one arrival for @p principal at member @p member_index and
  /// attempts admission; returns the resource owner to route to, or nullopt
  /// when out of quota. Out-of-quota requests try the demand-spike fast path
  /// once, within the per-window re-plan budget.
  std::optional<core::PrincipalId> try_admit(std::size_t member_index,
                                             core::PrincipalId principal)
      SHAREGRID_EXCLUDES(mutex_) {
    const util::MutexLock lock(mutex_);
    driver_.poll(now_usec());
    coord::ControlPlane::Member* member = members_[member_index];
    member->record_arrival(principal, 1.0);
    if (const auto owner = member->try_admit(principal)) return owner;
    if (!member->spike_replan()) return std::nullopt;
    return member->try_admit(principal);
  }

  /// Member-0 shorthand for single-redirector services.
  std::optional<core::PrincipalId> try_admit(core::PrincipalId principal) {
    return try_admit(0, principal);
  }

  std::size_t member_count() const { return members_.size(); }
  /// Introspection for tests/metrics. plane() and member() return references
  /// into control-plane state the mutex protects — read them only while no
  /// other thread can be inside try_admit.
  const coord::ControlPlane& plane() const { return plane_; }
  const coord::ControlPlane::Member& member(std::size_t i) const {
    return *members_[i];
  }
  std::uint64_t windows_begun() const SHAREGRID_EXCLUDES(mutex_) {
    const util::MutexLock lock(mutex_);
    return driver_.windows_begun();
  }
  std::uint64_t snapshot_rounds() const SHAREGRID_EXCLUDES(mutex_) {
    const util::MutexLock lock(mutex_);
    return transport_.rounds_completed();
  }

 private:
  static Config single_node(std::int64_t window_usec) {
    Config config;
    config.window_usec = window_usec;
    return config;
  }

  static coord::ControlPlaneConfig plane_config(const Config& config) {
    SHAREGRID_EXPECTS(config.window_usec > 0);
    coord::ControlPlaneConfig plane;
    plane.window = config.window_usec;  // SimTime ticks are microseconds
    plane.redirector_count = config.redirector_count;
    plane.spike_replan_limit = config.spike_replan_limit;
    return plane;
  }

  static coord::WallClockDriver::Options driver_options(
      const Config& config) {
    coord::WallClockDriver::Options options;
    options.window_usec = config.window_usec;
    options.max_catchup = config.max_catchup;
    options.snapshot_period_windows = config.snapshot_period_windows;
    return options;
  }

  std::int64_t now_usec() const {
    return std::chrono::duration_cast<std::chrono::microseconds>(
               std::chrono::steady_clock::now() - epoch_)
        .count();
  }

  /// Serializes every admission/clock call. transport_, plane_, and the
  /// Member objects behind members_ are reached through references the
  /// control plane hands out, so the analysis cannot tie them to the mutex
  /// (see the accessor caveat above); driver_ is accessed directly and is.
  mutable util::Mutex mutex_;
  coord::InProcessTransport transport_;
  coord::ControlPlane plane_;
  coord::WallClockDriver driver_ SHAREGRID_GUARDED_BY(mutex_);
  std::vector<coord::ControlPlane::Member*> members_;  // set in ctor only
  std::chrono::steady_clock::time_point epoch_;
};

}  // namespace sharegrid::live
