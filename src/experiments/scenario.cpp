#include "experiments/scenario.hpp"

#include <algorithm>
#include <memory>
#include <utility>

#include "coord/control_plane.hpp"
#include "coord/snapshot_transport.hpp"
#include "coord/window_driver.hpp"
#include "core/flow.hpp"
#include "experiments/scenario_assembly.hpp"
#include "nodes/client.hpp"
#include "nodes/l4_redirector.hpp"
#include "nodes/server.hpp"
#include "sched/income_scheduler.hpp"
#include "sched/multi_provider_scheduler.hpp"
#include "sched/response_time_scheduler.hpp"
#include "sched/swappable_scheduler.hpp"
#include "sim/simulator.hpp"
#include "util/assert.hpp"
#include "util/metrics_registry.hpp"
#include "util/rng.hpp"
#include "util/worker_pool.hpp"

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

  // --- Agreement analysis ------------------------------------------------
  core::AgreementGraph graph = config.graph;
  const std::size_t n = graph.size();
  // Capacities come from the declared machines.
  for (core::PrincipalId p = 0; p < n; ++p) graph.set_capacity(p, 0.0);
  for (const auto& spec : config.servers) {
    const core::PrincipalId owner = resolve(graph, spec.owner);
    graph.set_capacity(owner, graph.capacity(owner) + spec.capacity);
  }
  // Scheduler factory: re-invoked whenever capacities change at runtime
  // (agreements are interpreted dynamically, §2.2). The worker pool is
  // shared across rebuilds so capacity events don't respawn threads.
  std::shared_ptr<WorkerPool> plan_pool;
  if (!config.providers.empty() && config.plan_solver_threads > 0)
    plan_pool = std::make_shared<WorkerPool>(config.plan_solver_threads);
  auto build_scheduler =
      [&config, n, &plan_pool](
          const core::AgreementGraph& g) -> std::unique_ptr<sched::Scheduler> {
    const core::AccessLevels levels = core::compute_access_levels(g);
    if (config.scheduler == SchedulerKind::kResponseTime) {
      sched::ResponseTimeOptions options;
      if (!config.locality_caps.empty()) {
        SHAREGRID_EXPECTS(config.locality_caps.size() == n);
        options.locality_caps = config.locality_caps;
      }
      return std::make_unique<sched::ResponseTimeScheduler>(g, levels,
                                                            options);
    }
    SHAREGRID_EXPECTS(config.prices.size() == n);
    if (!config.providers.empty()) {
      std::vector<core::PrincipalId> providers;
      providers.reserve(config.providers.size());
      for (const std::string& name : config.providers)
        providers.push_back(resolve(g, name));
      return std::make_unique<sched::MultiProviderScheduler>(
          g, levels, std::move(providers), config.prices, plan_pool);
    }
    return std::make_unique<sched::IncomeScheduler>(
        g, levels, resolve(g, config.provider), config.prices);
  };
  auto scheduler =
      std::make_unique<sched::SwappableScheduler>(build_scheduler(graph));

  // --- Nodes ---------------------------------------------------------------
  sim::Simulator sim;
  nodes::Metrics metrics(n);
  Rng master(config.seed);

  std::vector<std::unique_ptr<nodes::Server>> servers;
  nodes::ServerPool pool;
  for (std::size_t s = 0; s < config.servers.size(); ++s) {
    nodes::Server::Config sc;
    sc.name = "server-" + std::to_string(s);
    sc.owner = resolve(graph, config.servers[s].owner);
    sc.capacity = config.servers[s].capacity;
    sc.endpoint = {0x14000000u + static_cast<std::uint32_t>(s), 80};
    servers.push_back(std::make_unique<nodes::Server>(&sim, &metrics, sc));
    pool.add(servers.back().get());
  }

  // --- Control plane -------------------------------------------------------
  // One ControlPlane owns the full window loop (DESIGN.md D10); each
  // redirector node is a thin packet/HTTP shell around one of its members.
  coord::ControlPlaneConfig cp_config;
  cp_config.window = config.window;
  cp_config.redirector_count = config.redirector_count;
  cp_config.stale_policy = config.stale_policy;
  cp_config.spike_replan_limit = config.spike_replan_limit;
  cp_config.on_spike_replan = [&metrics] { metrics.on_spike_replan(); };
  cp_config.on_replan_suppressed = [&metrics] {
    metrics.on_replan_suppressed();
  };
  coord::ControlPlane plane(scheduler.get(), cp_config);

  nodes::WindowTrace trace;
  nodes::WindowTrace* trace_ptr = config.trace_windows ? &trace : nullptr;
  std::vector<std::unique_ptr<nodes::L7Redirector>> l7s;
  std::vector<std::unique_ptr<nodes::L4Redirector>> l4s;
  std::vector<nodes::RedirectorBase*> redirectors;
  for (std::size_t r = 0; r < config.redirector_count; ++r) {
    coord::ControlPlane::Member* member = plane.add_member();
    if (config.layer == Layer::kL7) {
      nodes::L7Redirector::Config rc;
      rc.name = "l7-" + std::to_string(r);
      rc.mode = config.l7_mode;
      rc.net_delay = config.net_delay;
      rc.weighted_admission = config.weighted_admission;
      rc.trace = trace_ptr;
      l7s.push_back(std::make_unique<nodes::L7Redirector>(
          &sim, &metrics, &pool, member, rc));
      redirectors.push_back(l7s.back().get());
    } else {
      nodes::L4Redirector::Config rc;
      rc.name = "l4-" + std::to_string(r);
      rc.net_delay = config.net_delay;
      rc.weighted_admission = config.weighted_admission;
      rc.trace = trace_ptr;
      l4s.push_back(std::make_unique<nodes::L4Redirector>(
          &sim, &metrics, &pool, member, rc));
      redirectors.push_back(l4s.back().get());
    }
  }

  // --- Snapshot transport + window driver ----------------------------------
  // Redirectors hang as leaves off a virtual root so every one of them sees
  // the same aggregate lag of 2 * link_delay.
  coord::SimTreeTransport::Options tree_options;
  tree_options.period =
      config.tree_period > 0 ? config.tree_period : config.window;
  tree_options.link_delay = config.tree_link_delay;
  tree_options.fanout = config.tree_fanout;
  // Aggregation rounds interleave halfway between scheduling windows so a
  // zero-delay tree still feeds each window the freshest possible snapshot.
  tree_options.first_round = config.window / 2;
  coord::SimTreeTransport transport(&sim, config.redirector_count, n,
                                    tree_options);
  plane.connect(&transport);
  // Task creation order is load-bearing (D4): the tree's periodic task must
  // exist before the member window tasks so equal-time events fire in the
  // historical order and figure output stays bit-identical.
  transport.start();
  coord::SimWindowDriver driver(&sim, &plane);
  driver.start(config.window);

  // --- Clients and phase schedule ------------------------------------------
  // One shared WebBench-style size model; per-machine RNG streams keep runs
  // deterministic regardless of event interleaving.
  const workload::ReplySizeDistribution reply_sizes;
  const std::vector<std::unique_ptr<nodes::ClientFleet>> clients =
      build_client_fleets(config, graph, &sim, &metrics, redirectors, master,
                          &reply_sizes);

  // --- Capacity events -------------------------------------------------------
  for (const CapacityEvent& event : config.capacity_events) {
    SHAREGRID_EXPECTS(event.server < servers.size());
    SHAREGRID_EXPECTS(event.capacity > 0.0);
    SHAREGRID_EXPECTS(event.time_sec >= 0.0);
    sim.schedule_at(seconds(event.time_sec), [&, event] {
      nodes::Server* machine = servers[event.server].get();
      const core::PrincipalId owner = machine->config().owner;
      // Shift the owner's aggregate capacity by the machine's delta, then
      // rebuild the flow analysis + scheduler against the new graph.
      const double delta = event.capacity - machine->config().capacity;
      machine->set_capacity(event.capacity);
      graph.set_capacity(owner, std::max(0.0, graph.capacity(owner) + delta));
      scheduler->replace(build_scheduler(graph));
    });
  }

  // --- Run -----------------------------------------------------------------
  // Sample the worst per-server backlog periodically: the overload signal.
  RunningStats backlog_samples;
  sim::PeriodicTask backlog_probe(&sim, 500 * kMillisecond,
                                  500 * kMillisecond, [&] {
                                    double worst = 0.0;
                                    for (const auto& s : servers)
                                      worst = std::max(worst,
                                                       s->backlog_seconds());
                                    backlog_samples.add(worst);
                                  });
  sim.run_until(seconds(config.duration_sec));
  transport.stop();
  driver.stop();
  backlog_probe.cancel();

  // --- Report ----------------------------------------------------------------
  ScenarioResult result{.principal_names = {},
                        .metrics = std::move(metrics),
                        .phase_reports = {},
                        .total_admitted = 0,
                        .total_rejected_or_queued = 0,
                        .coordination_messages = transport.messages_sent(),
                        .server_backlog_sec = backlog_samples,
                        .window_trace = std::move(trace)};
  for (core::PrincipalId p = 0; p < n; ++p)
    result.principal_names.push_back(graph.name(p));
  for (const auto& l7 : l7s) {
    result.total_admitted += l7->admitted();
    result.total_rejected_or_queued += l7->self_redirects();
  }
  for (const auto& l4 : l4s) {
    result.total_admitted += l4->admitted();
    for (core::PrincipalId p = 0; p < n; ++p)
      result.total_rejected_or_queued += l4->queue_length(p);
  }
  for (const auto& phase : config.phases) {
    PhaseReport report;
    report.name = phase.name;
    report.start_sec = phase.start_sec;
    report.end_sec = phase.end_sec;
    for (core::PrincipalId p = 0; p < n; ++p) {
      report.served_rate.push_back(result.metrics.served(p).average_rate(
          seconds(phase.start_sec), seconds(phase.end_sec)));
      report.offered_rate.push_back(result.metrics.offered(p).average_rate(
          seconds(phase.start_sec), seconds(phase.end_sec)));
    }
    result.phase_reports.push_back(std::move(report));
  }
  return result;
}

}  // namespace sharegrid::experiments
