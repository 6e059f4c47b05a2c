// Clock drivers for the control plane (the tentpole seam of DESIGN.md D10).
//
// ControlPlane knows nothing about time; these two shims decide when window
// boundaries happen:
//
//  * SimWindowDriver — one PeriodicTask per member on the DES Simulator, in
//    member-index order, so event sequence numbers (and therefore D4
//    bit-reproducibility) match the historical per-redirector wiring.
//  * WallClockDriver — clock-agnostic window roller for the live stack: the
//    caller polls with the current time in microseconds (steady_clock in
//    production, a fake in tests), and every window boundary on the fixed
//    grid since reset() that has elapsed is advanced, at most kMaxCatchup
//    per poll. The in-process snapshot exchange runs after each new
//    window's quotas are in place (so window k plans against the aggregate
//    sampled at the end of window k-1 — the same one-window snapshot lag a
//    zero-delay sim tree produces).
#pragma once

#include <cstdint>
#include <memory>
#include <vector>

#include "coord/control_plane.hpp"
#include "coord/snapshot_transport.hpp"
#include "sim/simulator.hpp"
#include "util/time.hpp"

namespace sharegrid::coord {

/// DES driver: periodic window tasks on the simulator.
class SimWindowDriver {
 public:
  SimWindowDriver(sim::Simulator* sim, ControlPlane* plane);

  /// Creates one PeriodicTask per member (member-index order — load-bearing
  /// for D4: creation order fixes equal-time event ordering) firing every
  /// plane window starting at @p first_window.
  void start(SimTime first_window);
  void stop();

 private:
  sim::Simulator* sim_;
  ControlPlane* plane_;
  std::vector<std::unique_ptr<sim::PeriodicTask>> tasks_;
};

/// Live driver: rolls wall-clock windows on poll(). Not internally
/// synchronized — the admission facade above it holds the mutex.
class WallClockDriver {
 public:
  /// Idle-gap bound: at most this many windows advance per poll, so the
  /// estimators decay without replaying hours of empty history.
  static constexpr std::int64_t kMaxCatchup = 16;

  /// @param transport   in-process exchange to run after every window; may
  ///                    be nullptr (members then stay on their stale policy).
  /// @param window_usec scheduling window in microseconds.
  WallClockDriver(ControlPlane* plane, InProcessTransport* transport,
                  std::int64_t window_usec);

  /// Re-anchors the window grid at @p now_usec (call when serving starts).
  void reset(std::int64_t now_usec);

  /// Advances every grid boundary that elapsed by @p now_usec, at most
  /// kMaxCatchup of them; returns how many windows were rolled. The first
  /// poll always opens a window. A late poll does not move the grid: the
  /// next boundary stays a whole number of windows after reset().
  std::int64_t poll(std::int64_t now_usec);

  std::uint64_t windows_begun() const { return windows_begun_; }

 private:
  ControlPlane* plane_;
  InProcessTransport* transport_;
  std::int64_t window_usec_;
  std::int64_t window_start_usec_ = 0;
  bool first_window_done_ = false;
  std::uint64_t windows_begun_ = 0;
};

}  // namespace sharegrid::coord
