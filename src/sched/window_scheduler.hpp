// Per-redirector window driver: turns fractional scheduler plans into
// integer per-window admission quotas (§3.1.2 queuing + §3.2 distribution).
//
// Every time window the redirector:
//   1. forms a global demand estimate from the latest combining-tree snapshot
//      and its own local queues;
//   2. asks the shared Scheduler for a plan on that global estimate;
//   3. takes its proportional slice (local_i / global_i, §3.2) of each
//      plan cell as that cell's quota, plus any debt carried in: requests
//      are admitted while the quota is above 1e-3, each deducting one, so
//      a fractional slice may overdraw by up to one request and the next
//      window repays it; positive leftovers are dropped (DESIGN.md D5).
//
// When no snapshot has arrived yet the driver is *conservative* (paper §5.1,
// Figure 8 phase 1): it assumes every principal is saturated — pinning each
// to its mandatory level — and takes only a 1/R slice of that, where R is
// the number of redirectors.
#pragma once

#include <cstdint>
#include <memory>
#include <optional>
#include <vector>

#include "core/principal.hpp"
#include "sched/plan.hpp"
#include "sched/scheduler.hpp"
#include "util/matrix.hpp"
#include "util/time.hpp"

namespace sharegrid::sched {

/// EWMA estimator of per-principal offered load (requests/sec), used in the
/// credit-based L7 mode where queues are implicit (§4.1, DESIGN.md D3).
class ArrivalEstimator {
 public:
  /// @param alpha  EWMA weight of the newest window. Must be finite and in
  ///               (0, 1]: NaN or out-of-range weights would silently poison
  ///               every downstream demand estimate, so construction throws.
  explicit ArrivalEstimator(double alpha = 0.3);

  /// Records the arrivals observed in one window of length @p window.
  void observe(double arrivals, SimDuration window);

  /// Current rate estimate in requests/sec.
  double rate() const { return rate_; }

 private:
  double alpha_;
  double rate_ = 0.0;
  bool primed_ = false;
};

/// Snapshot of global per-principal demand (requests/sec), as distributed by
/// the combining tree. `valid` is false before the first aggregate arrives.
struct GlobalDemand {
  std::vector<double> demand;
  bool valid = false;
};

/// What a redirector assumes before the first global aggregate arrives.
enum class StalePolicy {
  /// Assume every principal is saturated and take a 1/R slice of the plan —
  /// each principal gets at most mandatory/R (the paper's behaviour,
  /// Figure 8 phase 1). Can never over-admit, at the cost of under-using an
  /// idle system.
  kConservative,
  /// Assume local queues are the whole system (share = 1, demand = local).
  /// Uses an idle system fully but over-admits by up to a factor of R when
  /// other redirectors carry load — the ablation bench quantifies the
  /// resulting overload.
  kOptimistic,
};

/// Per-redirector admission state for one time window.
class WindowScheduler {
 public:
  /// @param scheduler        shared planning logic (not owned).
  /// @param window           scheduling window length (paper: 100 ms).
  /// @param redirector_count R, for the conservative no-snapshot slice.
  /// @param stale_policy     behaviour before the first global aggregate.
  WindowScheduler(const Scheduler* scheduler, SimDuration window,
                  std::size_t redirector_count,
                  StalePolicy stale_policy = StalePolicy::kConservative);

  /// Starts a new window. @p local_demand is this redirector's own queue
  /// state in requests/sec; @p global is the latest combining-tree snapshot.
  void begin_window(const std::vector<double>& local_demand,
                    const GlobalDemand& global);

  /// Mid-window re-plan: recomputes this window's quotas against fresher
  /// demand estimates while preserving everything already consumed this
  /// window (and any debt carried into it), so a demand spike can open
  /// quota without letting repeated re-plans over-admit. Used by the live
  /// service when a cold estimator starved the current window.
  void replan(const std::vector<double>& local_demand,
              const GlobalDemand& global);

  /// Attempts to admit one request of principal @p i. On success returns
  /// the id of the principal whose server should process it. Admission
  /// requires a remaining quota above 1e-3; one request is then deducted,
  /// possibly borrowing from the next window (negative quota carries
  /// over), so long-run rates match the plan.
  std::optional<core::PrincipalId> try_admit(core::PrincipalId i);

  /// Remaining admission quota (requests) for principal i in this window;
  /// can be negative after a borrow.
  double remaining_quota(core::PrincipalId i) const;

  SimDuration window() const { return window_; }
  const Plan& last_plan() const { return plan_; }
  /// This window's plan slices in requests (quota + consumed ==
  /// slices + debt); exposed for the control-plane conservation audits.
  const Matrix& slices() const { return slices_; }

  /// Windows (including re-plans) whose plan was a fallback because the
  /// LP solver reached no optimum (Plan::lp_fallback).
  std::uint64_t plan_fallbacks() const { return plan_fallbacks_; }

 private:
  const Scheduler* scheduler_;
  SimDuration window_;
  std::size_t redirector_count_;
  StalePolicy stale_policy_;

  /// Recomputes slices_ for the current demand/share state, reusing the
  /// member scratch buffers — windows fire ten times a second per
  /// redirector, and steady state should not touch the heap (DESIGN.md D8).
  void compute_slices(const std::vector<double>& local_demand,
                      const GlobalDemand& global);

  std::vector<double> demand_scratch_;
  std::vector<double> share_scratch_;

  Matrix quota_;     // (i, k) units remaining this window
  Matrix debt_;      // (i, k) borrow carried into this window (<= 0)
  Matrix consumed_;  // (i, k) units admitted since the window began
  Matrix slices_;    // (i, k) this window's plan slice (audit reference:
                     // quota + consumed == slices + debt at all times)
  Plan plan_;
  std::uint64_t plan_fallbacks_ = 0;
};

}  // namespace sharegrid::sched
