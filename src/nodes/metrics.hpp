// Central measurement hub for simulated experiments.
//
// Records the same quantities the paper plots: per-principal served
// requests/second over time (every figure), offered load, rejections
// (self-redirects / queue drops), response latency, and reply bandwidth.
#pragma once

#include <cstddef>
#include <cstdint>
#include <vector>

#include "core/principal.hpp"
#include "util/assert.hpp"
#include "util/stats.hpp"
#include "util/time.hpp"
#include "util/time_series.hpp"

namespace sharegrid::nodes {

/// Per-principal time-series metrics; one instance per experiment.
class Metrics {
 public:
  explicit Metrics(std::size_t principal_count,
                   SimDuration bin_width = kSecond);

  std::size_t principal_count() const { return served_.size(); }

  void on_offered(core::PrincipalId p, SimTime t);
  void on_served(core::PrincipalId p, SimTime t);
  void on_rejected(core::PrincipalId p, SimTime t);
  void on_latency(core::PrincipalId p, double seconds);
  void on_reply_bytes(core::PrincipalId p, SimTime t, double bytes);
  /// Adds one control-plane member's window counts: its plan fallbacks
  /// (sched::WindowScheduler::plan_fallbacks) and its spike re-plans taken
  /// and suppressed (ControlPlane::Member::spike_replans /
  /// replans_suppressed). A scenario copies them in once, when it reports.
  void add_member_counts(std::uint64_t plan_fallbacks,
                         std::uint64_t spike_replans,
                         std::uint64_t replans_suppressed) {
    plan_fallbacks_ += plan_fallbacks;
    spike_replans_ += spike_replans;
    replans_suppressed_ += replans_suppressed;
  }

  /// Folds another Metrics (same principal count and bin width) into this
  /// one — used by the cluster-partitioned scenarios to combine per-cluster
  /// measurement hubs into one global report. Rate series add integer bin
  /// counts (order-independent); latency stats use the parallel Welford
  /// combination, so callers merge clusters in index order to keep the
  /// floating-point result reproducible.
  void merge_from(const Metrics& other);

  const RateSeries& offered(core::PrincipalId p) const;
  const RateSeries& served(core::PrincipalId p) const;
  const RateSeries& rejected(core::PrincipalId p) const;
  const RunningStats& latency(core::PrincipalId p) const;
  /// Reply bytes/sec series (events weighted by size).
  const RateSeries& reply_bytes(core::PrincipalId p) const;
  /// Plans that fell back to a stale plan because the LP solver hit its
  /// iteration budget (Plan::lp_fallback), across the redirector fleet. Rare
  /// by construction; a nonzero count in a steady experiment means the
  /// solver budget is undersized for the principal count.
  std::uint64_t plan_fallbacks() const { return plan_fallbacks_; }
  /// Mid-window spike re-plans executed across the redirector fleet.
  std::uint64_t spike_replans() const { return spike_replans_; }
  /// Spike re-plans suppressed by the per-window budget.
  std::uint64_t replans_suppressed() const { return replans_suppressed_; }

 private:
  void check(core::PrincipalId p) const { SHAREGRID_EXPECTS(p < served_.size()); }

  std::vector<RateSeries> offered_;
  std::vector<RateSeries> served_;
  std::vector<RateSeries> rejected_;
  std::vector<RunningStats> latency_;
  std::vector<RateSeries> bytes_;
  std::uint64_t plan_fallbacks_ = 0;
  std::uint64_t spike_replans_ = 0;
  std::uint64_t replans_suppressed_ = 0;
};

}  // namespace sharegrid::nodes
