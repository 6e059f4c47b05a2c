#include "coord/window_driver.hpp"

#include <algorithm>

#include "audit/invariant_auditor.hpp"
#include "util/assert.hpp"

namespace sharegrid::coord {

SimWindowDriver::SimWindowDriver(sim::Simulator* sim, ControlPlane* plane)
    : sim_(sim), plane_(plane) {
  SHAREGRID_EXPECTS(sim != nullptr);
  SHAREGRID_EXPECTS(plane != nullptr);
}

void SimWindowDriver::start(SimTime first_window) {
  SHAREGRID_EXPECTS(tasks_.empty());
  SHAREGRID_EXPECTS(plane_->member_count() >= 1);
  for (std::size_t m = 0; m < plane_->member_count(); ++m) {
    ControlPlane::Member* member = plane_->member(m);
    tasks_.push_back(std::make_unique<sim::PeriodicTask>(
        sim_, first_window, plane_->config().window,
        [this, member] { member->advance_window(sim_->now()); }));
  }
}

void SimWindowDriver::stop() {
  for (const auto& task : tasks_) task->cancel();
}

WallClockDriver::WallClockDriver(ControlPlane* plane,
                                 InProcessTransport* transport,
                                 std::int64_t window_usec)
    : plane_(plane), transport_(transport), window_usec_(window_usec) {
  SHAREGRID_EXPECTS(plane != nullptr);
  SHAREGRID_EXPECTS(window_usec > 0);
}

void WallClockDriver::reset(std::int64_t now_usec) {
  window_start_usec_ = now_usec;
}

std::int64_t WallClockDriver::poll(std::int64_t now_usec) {
  const std::int64_t due = (now_usec - window_start_usec_) / window_usec_;
  // The very first poll must open a window — before it, no quota exists at
  // all; after an idle gap, catch up a bounded number of windows so the
  // estimators decay without replaying hours of empty history.
  std::int64_t elapsed = due;
  if (!first_window_done_) elapsed = std::max<std::int64_t>(elapsed, 1);
  elapsed = std::min(elapsed, kMaxCatchup);
  for (std::int64_t w = 0; w < elapsed; ++w) {
    // Same member-by-member boundary order as the sim driver's periodic
    // tasks: each member folds its estimators and begins its window before
    // the next member runs, so the shared scheduler sees the identical call
    // sequence on both drivers.
    for (std::size_t m = 0; m < plane_->member_count(); ++m)
      plane_->member(m)->advance_window(static_cast<SimTime>(now_usec));
    first_window_done_ = true;
    ++windows_begun_;
    SHAREGRID_AUDIT_HOOK(plane_->audit_window_slices());
    // Exchange *after* the window begins: window k runs on the aggregate
    // sampled at boundary k-1 (one-window lag, like a zero-delay sim tree),
    // and the very first window runs snapshot-less — the conservative 1/R
    // startup phase of §5.1.
    if (transport_ != nullptr) transport_->exchange();
  }
  // Whole windows only, so the boundaries stay on their grid: a late poll
  // opens the window it finds due without stretching it.
  if (due > 0) window_start_usec_ += due * window_usec_;
  return elapsed;
}

}  // namespace sharegrid::coord
