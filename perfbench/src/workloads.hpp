// The four benchmark workloads. Each builds its inputs from Options::seed,
// measures for Options::seconds, checks its outputs, and fills a Report.
// A traced run (Options::trace) adds the per-layer metrics.
#pragma once

#include <atomic>
#include <string>

#include "bench_common.hpp"
#include "core/agreement_graph.hpp"
#include "core/flow.hpp"
#include "experiments/scenario.hpp"
#include "lp/solve_context.hpp"
#include "sched/response_time_scheduler.hpp"

namespace perfbench {

Report run_cluster_l4(const Options& options);
Report run_many_principals(const Options& options);
Report run_live_l7(const Options& options);
Report run_socket_fleet(const Options& options);

/// Parses scenario text the way scenario files are loaded.
sharegrid::experiments::ScenarioConfig load_scenario_text(const std::string& text);

/// The agreement graph a scenario plans against: capacities from the declared
/// servers (times `clusters` for the cluster-partitioned path).
sharegrid::core::AgreementGraph planning_graph(
    const sharegrid::experiments::ScenarioConfig& config);

/// Worst principal's shortfall below min(offered, guarantee) or excess above
/// its ceiling, as a % of total capacity. Guarantee = MC_i and ceiling =
/// MC_i + OC_i from core::compute_access_levels.
double violation_pct(const sharegrid::core::AccessLevels& levels,
                     double total_capacity, const std::vector<double>& offered,
                     const std::vector<double>& served);

/// Forwards plan() to a response-time scheduler, timing each call into its
/// own list (the plan-latency metrics read that, not the capped span list),
/// recording a "sched.plan" span on the current tracer for the span file,
/// and counting iteration-limit fallbacks. The tracer may be swapped between
/// phases of a run.
class TimedScheduler final : public sharegrid::sched::Scheduler {
 public:
  TimedScheduler(const sharegrid::sched::ResponseTimeScheduler* inner,
                 Tracer* tracer)
      : inner_(inner), tracer_(tracer) {}

  sharegrid::sched::Plan plan(const std::vector<double>& demand) const override;
  std::size_t size() const override { return inner_->size(); }

  void set_tracer(Tracer* tracer) { tracer_.store(tracer); }
  std::uint64_t fallbacks() const { return fallbacks_.load(); }
  sharegrid::lp::SolveStats solver_stats() const { return inner_->solver_stats(); }

  /// Durations of the plan calls since construction or the last clear_plans().
  std::vector<double> plan_us() const;
  void clear_plans();

 private:
  const sharegrid::sched::ResponseTimeScheduler* inner_;
  std::atomic<Tracer*> tracer_;
  mutable std::atomic<std::uint64_t> fallbacks_{0};
  // Grows as plans are made: a buffer allocated up front would be set-up
  // work, and these runs make at most one plan per 2 ms per scheduler.
  mutable std::mutex mutex_;
  mutable std::vector<double> plan_us_;  // guarded by mutex_
};

/// The sched.* and lp.* layer metrics: plan latencies (microseconds), the
/// share of @p busy_base_s spent planning, and the solver's counters.
void add_plan_metrics(Report& report, const std::vector<double>& plan_us,
                      double busy_base_s, const sharegrid::lp::SolveStats& stats,
                      std::uint64_t iteration_limits);

}  // namespace perfbench
