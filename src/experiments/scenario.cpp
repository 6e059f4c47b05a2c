#include "experiments/scenario.hpp"

#include <algorithm>
#include <memory>
#include <optional>
#include <utility>

#include "coord/combining_tree.hpp"
#include "experiments/scenario_assembly.hpp"
#include "sched/swappable_scheduler.hpp"
#include "sim/simulator.hpp"
#include "util/assert.hpp"
#include "util/metrics_registry.hpp"
#include "util/rng.hpp"

namespace sharegrid::experiments {

double ScenarioResult::phase_served(std::size_t phase,
                                    std::size_t principal) const {
  SHAREGRID_EXPECTS(phase < phase_reports.size());
  SHAREGRID_EXPECTS(principal < phase_reports[phase].served_rate.size());
  return phase_reports[phase].served_rate[principal];
}

TextTable ScenarioResult::series_table(SimDuration bin) const {
  std::vector<std::string> headers{"time_s"};
  for (const auto& name : principal_names) headers.push_back(name + "_req_s");
  TextTable table(std::move(headers));

  std::size_t bins = 0;
  for (std::size_t p = 0; p < principal_names.size(); ++p)
    bins = std::max(bins, metrics.served(p).bin_count());
  for (std::size_t b = 0; b < bins; ++b) {
    std::vector<std::string> row;
    row.push_back(TextTable::num(
        to_seconds(static_cast<SimTime>(b) * bin), 0));
    for (std::size_t p = 0; p < principal_names.size(); ++p)
      row.push_back(TextTable::num(metrics.served(p).rate_in_bin(b)));
    table.add_row(std::move(row));
  }
  return table;
}

TextTable ScenarioResult::phase_table() const {
  std::vector<std::string> headers{"phase", "interval_s"};
  for (const auto& name : principal_names) {
    headers.push_back(name + "_served");
    headers.push_back(name + "_offered");
  }
  TextTable table(std::move(headers));
  for (const auto& report : phase_reports) {
    std::vector<std::string> row{
        report.name, TextTable::num(report.start_sec, 0) + "-" +
                         TextTable::num(report.end_sec, 0)};
    for (std::size_t p = 0; p < principal_names.size(); ++p) {
      row.push_back(TextTable::num(report.served_rate[p]));
      row.push_back(TextTable::num(report.offered_rate[p]));
    }
    table.add_row(std::move(row));
  }
  return table;
}

ScenarioResult run_scenario(const ScenarioConfig& config) {
  if (config.transport == ScenarioConfig::TransportKind::kSocket)
    throw ContractViolation(
        "scenario: control_plane.transport = socket describes a "
        "multi-process deployment (one OS process per redirector over "
        "loopback TCP) and cannot run under the simulator — drive it with "
        "examples/multi_process_demo, or use transport = sim_tree here");
  if (config.clusters > 0) return run_clustered_scenario(config);
  SHAREGRID_EXPECTS(!config.servers.empty());
  SHAREGRID_EXPECTS(!config.clients.empty());
  SHAREGRID_EXPECTS(config.redirector_count >= 1);
  SHAREGRID_EXPECTS(config.duration_sec > 0.0);

  // Always-on telemetry is reported per run: zero the process-wide registry
  // so the totals printed afterwards cover exactly this scenario.
  util::global_metrics().reset();

  // One domain of R redirectors. Capacity events swap its scheduler.
  core::AgreementGraph graph = planning_graph(config, 1);
  const SchedulerFactory build_scheduler = scheduler_factory(config);
  auto swappable =
      std::make_unique<sched::SwappableScheduler>(build_scheduler(graph));
  sched::SwappableScheduler* scheduler = swappable.get();
  sim::Simulator sim;
  Rng master(config.seed);
  Domain domain(config, graph, &sim, std::move(swappable), std::nullopt);

  // --- Snapshot transport + window driver ----------------------------------
  // Redirectors are the members of one combining tree under a virtual root;
  // in a star every one of them sees the same aggregate lag of
  // 2 * link_delay.
  coord::CombiningTree transport(&sim, config.redirector_count, graph.size(),
                                 exchange_options(config));
  domain.plane->connect(&transport);
  // Task creation order is load-bearing (D4): the tree's periodic task must
  // exist before the member window tasks so equal-time events fire in the
  // historical order and figure output stays bit-identical.
  transport.start();
  domain.start_windows();

  // --- Clients, capacity events, backlog probe ------------------------------
  // One shared WebBench-style size model; per-machine RNG streams keep runs
  // deterministic regardless of event interleaving. Capacity events are
  // scheduled before the probe exists, so one that lands on a probe tick
  // fires first (D4).
  const workload::ReplySizeDistribution reply_sizes;
  domain.add_clients(config, graph, master, &reply_sizes);
  for (const CapacityEvent& event : config.capacity_events) {
    SHAREGRID_EXPECTS(event.server < domain.servers.size());
    SHAREGRID_EXPECTS(event.capacity > 0.0);
    SHAREGRID_EXPECTS(event.time_sec >= 0.0);
    sim.schedule_at(seconds(event.time_sec), [&, event] {
      nodes::Server* machine = domain.servers[event.server].get();
      const core::PrincipalId owner = machine->config().owner;
      // Shift the owner's aggregate capacity by the machine's delta, then
      // rebuild the flow analysis + scheduler against the new graph.
      const double delta = event.capacity - machine->config().capacity;
      machine->set_capacity(event.capacity);
      graph.set_capacity(owner, std::max(0.0, graph.capacity(owner) + delta));
      scheduler->replace(build_scheduler(graph));
    });
  }
  domain.start_backlog_probe();

  // --- Run -----------------------------------------------------------------
  sim.run_until(seconds(config.duration_sec));
  transport.stop();
  domain.stop();
  return collect_result(config, graph, {&domain}, transport.messages_sent());
}

}  // namespace sharegrid::experiments
