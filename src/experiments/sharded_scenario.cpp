// Cluster-partitioned scenario runner (DESIGN.md D13).
//
// The declared servers/clients describe ONE cluster; `clusters` replicas of
// it run side by side, each in its own simulation domain of a conservatively
// synchronized ShardedSimulator. Every cluster owns a full vertical slice —
// servers, one L4 redirector, one control-plane member, clients, its own
// Metrics hub — so domains share no mutable state and the worker lanes never
// contend. The agreement graph is global (declared capacity x clusters) and
// each member plans a 1/clusters slice of it, exactly the paper's
// multi-redirector mode with the fleet spread across sites.
//
// The ONLY cross-domain traffic is the star snapshot exchange
// (coord::ShardedStarTransport); its one-way link delay doubles as the
// engine's lookahead, so the physics of the modeled network IS the
// synchronization bound. Results are bitwise-invariant to `sim_shards` by
// construction, and SHAREGRID_AUDIT builds prove it per run by re-running
// serially and comparing every metric bin (audit_shard_merge_match).
#include <algorithm>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "audit/invariant_auditor.hpp"
#include "coord/control_plane.hpp"
#include "coord/sharded_transport.hpp"
#include "coord/window_driver.hpp"
#include "experiments/scenario.hpp"
#include "experiments/scenario_assembly.hpp"
#include "nodes/client.hpp"
#include "nodes/l4_redirector.hpp"
#include "nodes/server.hpp"
#include "sched/income_scheduler.hpp"
#include "sched/multi_provider_scheduler.hpp"
#include "sched/response_time_scheduler.hpp"
#include "sim/sharded_simulator.hpp"
#include "util/assert.hpp"
#include "util/metrics_registry.hpp"
#include "util/rng.hpp"

namespace sharegrid::experiments {
namespace {

/// One cluster's full vertical slice. Everything here is touched only by
/// events of the cluster's own domain, so lanes never share mutable state.
struct Cluster {
  explicit Cluster(std::size_t principal_count) : metrics(principal_count) {}

  std::unique_ptr<sched::Scheduler> scheduler;
  nodes::Metrics metrics;
  std::vector<std::unique_ptr<nodes::Server>> servers;
  nodes::ServerPool pool;
  std::unique_ptr<coord::ControlPlane> plane;
  nodes::WindowTrace trace;
  std::unique_ptr<nodes::L4Redirector> redirector;
  std::unique_ptr<coord::SimWindowDriver> driver;
  std::vector<std::unique_ptr<nodes::ClientFleet>> clients;
  RunningStats backlog;
  std::unique_ptr<sim::PeriodicTask> backlog_probe;
};

}  // namespace

ScenarioResult run_clustered_scenario(const ScenarioConfig& config) {
  SHAREGRID_EXPECTS(config.clusters >= 1);
  SHAREGRID_EXPECTS(config.sim_shards >= 1);
  SHAREGRID_EXPECTS(config.client_scale >= 1);
  SHAREGRID_EXPECTS(!config.servers.empty());
  SHAREGRID_EXPECTS(!config.clients.empty());
  SHAREGRID_EXPECTS(config.duration_sec > 0.0);
  // The partitioning contract: one L4 redirector per cluster, a star
  // exchange whose link delay is the lookahead, and no mid-run capacity
  // rewires (those would need their own cross-domain channel).
  SHAREGRID_EXPECTS(config.layer == Layer::kL4);
  SHAREGRID_EXPECTS(config.redirector_count == 1);
  SHAREGRID_EXPECTS(config.tree_link_delay > 0);
  SHAREGRID_EXPECTS(config.tree_fanout == 0);
  SHAREGRID_EXPECTS(config.capacity_events.empty());
  // Plan solves stay serial inside each cluster: the parallelism budget is
  // already spent on the cluster lanes, and a WorkerPool shared by
  // concurrently-solving clusters would race.
  SHAREGRID_EXPECTS(config.plan_solver_threads == 0);

  util::global_metrics().reset();

  // --- Global agreement analysis ------------------------------------------
  // Capacities are global: every cluster hosts one replica of the declared
  // machines, so each owner's entitlement is `clusters` times the declared
  // sum, and a 1/clusters plan slice matches one cluster's local hardware.
  core::AgreementGraph graph = config.graph;
  const std::size_t n = graph.size();
  for (core::PrincipalId p = 0; p < n; ++p) graph.set_capacity(p, 0.0);
  for (const auto& spec : config.servers) {
    const core::PrincipalId owner = resolve(graph, spec.owner);
    graph.set_capacity(owner,
                       graph.capacity(owner) +
                           spec.capacity * static_cast<double>(config.clusters));
  }
  auto build_scheduler = [&config, &graph,
                          n]() -> std::unique_ptr<sched::Scheduler> {
    const core::AccessLevels levels = core::compute_access_levels(graph);
    if (config.scheduler == SchedulerKind::kResponseTime) {
      sched::ResponseTimeOptions options;
      if (!config.locality_caps.empty()) {
        SHAREGRID_EXPECTS(config.locality_caps.size() == n);
        options.locality_caps = config.locality_caps;
      }
      return std::make_unique<sched::ResponseTimeScheduler>(graph, levels,
                                                            options);
    }
    SHAREGRID_EXPECTS(config.prices.size() == n);
    if (!config.providers.empty()) {
      std::vector<core::PrincipalId> providers;
      providers.reserve(config.providers.size());
      for (const std::string& name : config.providers)
        providers.push_back(resolve(graph, name));
      return std::make_unique<sched::MultiProviderScheduler>(
          graph, levels, std::move(providers), config.prices, nullptr);
    }
    return std::make_unique<sched::IncomeScheduler>(
        graph, levels, resolve(graph, config.provider), config.prices);
  };

  // --- Engine + per-cluster slices ----------------------------------------
  sim::ShardedSimulator::Options engine;
  engine.lookahead = config.tree_link_delay;
  engine.shards = config.sim_shards;
  sim::ShardedSimulator sharded(config.clusters, engine);

  Rng master(config.seed);
  const workload::ReplySizeDistribution reply_sizes;  // immutable, shared
  std::vector<std::unique_ptr<Cluster>> clusters;
  clusters.reserve(config.clusters);

  // Phase 1, cluster order: nodes and control planes (no periodic tasks yet;
  // per-domain task creation order is fixed in phases 2-4 below to mirror
  // the classic path: snapshot task, then window task, then clients).
  for (std::size_t c = 0; c < config.clusters; ++c) {
    sim::Simulator& sim = sharded.domain(c);
    auto cluster = std::make_unique<Cluster>(n);
    cluster->scheduler = build_scheduler();

    for (std::size_t s = 0; s < config.servers.size(); ++s) {
      nodes::Server::Config sc;
      sc.name = "c" + std::to_string(c) + "-server-" + std::to_string(s);
      sc.owner = resolve(graph, config.servers[s].owner);
      sc.capacity = config.servers[s].capacity;
      sc.endpoint = {0x14000000u + (static_cast<std::uint32_t>(c) << 12) +
                         static_cast<std::uint32_t>(s),
                     80};
      cluster->servers.push_back(
          std::make_unique<nodes::Server>(&sim, &cluster->metrics, sc));
      cluster->pool.add(cluster->servers.back().get());
    }

    coord::ControlPlaneConfig cp_config;
    cp_config.window = config.window;
    // The member slices the GLOBAL plan: 1/clusters of it is this cluster's
    // share, the same conservative split the multi-redirector mode uses.
    cp_config.redirector_count = config.clusters;
    cp_config.stale_policy = config.stale_policy;
    cp_config.spike_replan_limit = config.spike_replan_limit;
    nodes::Metrics* metrics = &cluster->metrics;
    cp_config.on_spike_replan = [metrics] { metrics->on_spike_replan(); };
    cp_config.on_replan_suppressed = [metrics] {
      metrics->on_replan_suppressed();
    };
    cluster->plane = std::make_unique<coord::ControlPlane>(
        cluster->scheduler.get(), cp_config);
    coord::ControlPlane::Member* member = cluster->plane->add_member();

    nodes::L4Redirector::Config rc;
    rc.name = "l4-c" + std::to_string(c);
    rc.net_delay = config.net_delay;
    rc.weighted_admission = config.weighted_admission;
    rc.trace = config.trace_windows ? &cluster->trace : nullptr;
    cluster->redirector = std::make_unique<nodes::L4Redirector>(
        &sim, &cluster->metrics, &cluster->pool, member, rc);
    clusters.push_back(std::move(cluster));
  }

  // Phase 2: the star exchange across clusters — one sampling task per
  // domain, created in cluster order.
  coord::ShardedStarTransport::Options star_options;
  star_options.period =
      config.tree_period > 0 ? config.tree_period : config.window;
  star_options.link_delay = config.tree_link_delay;
  star_options.first_round = config.window / 2;
  coord::ShardedStarTransport star(&sharded, n, star_options);
  for (std::size_t c = 0; c < config.clusters; ++c) {
    coord::ControlPlane::Member* member = clusters[c]->plane->member(0);
    star.attach(
        c, [member] { return member->local_demand(); },
        [member](std::uint64_t round, const std::vector<double>& aggregate) {
          member->receive_global(round, aggregate);
        });
  }
  star.start();

  // Phase 3: window drivers (after the snapshot task, as in the classic
  // path — creation order fixes equal-time event ordering, D4).
  for (std::size_t c = 0; c < config.clusters; ++c) {
    clusters[c]->driver = std::make_unique<coord::SimWindowDriver>(
        &sharded.domain(c), clusters[c]->plane.get());
    clusters[c]->driver->start(config.window);
  }

  // Phase 4: clients and probes. RNG streams split per cluster first, then
  // per machine, so every cluster's workload is an independent deterministic
  // stream whatever the lane assignment.
  for (std::size_t c = 0; c < config.clusters; ++c) {
    sim::Simulator& sim = sharded.domain(c);
    Cluster& cluster = *clusters[c];
    Rng cluster_rng = master.split();
    cluster.clients = build_client_fleets(
        config, graph, &sim, &cluster.metrics, {cluster.redirector.get()},
        cluster_rng, &reply_sizes);
    cluster.backlog_probe = std::make_unique<sim::PeriodicTask>(
        &sim, 500 * kMillisecond, 500 * kMillisecond, [&cluster] {
          double worst = 0.0;
          for (const auto& s : cluster.servers)
            worst = std::max(worst, s->backlog_seconds());
          cluster.backlog.add(worst);
        });
  }

  // --- Run ----------------------------------------------------------------
  sharded.run_until(seconds(config.duration_sec));
  star.stop();
  for (auto& cluster : clusters) {
    cluster->driver->stop();
    cluster->backlog_probe->cancel();
  }

  // --- Merge + report ------------------------------------------------------
  // Per-cluster hubs fold into one global report in cluster index order —
  // the fixed order keeps the floating-point latency combination (and so
  // the whole result) reproducible and shard-count-invariant.
  nodes::Metrics merged(n);
  for (const auto& cluster : clusters) merged.merge_from(cluster->metrics);
  ScenarioResult result{.principal_names = {},
                        .metrics = std::move(merged),
                        .phase_reports = {},
                        .total_admitted = 0,
                        .total_rejected_or_queued = 0,
                        .coordination_messages = star.messages_sent(),
                        .server_backlog_sec = {},
                        .window_trace = nodes::WindowTrace()};
  for (const auto& cluster : clusters) {
    result.total_admitted += cluster->redirector->admitted();
    for (core::PrincipalId p = 0; p < n; ++p)
      result.total_rejected_or_queued += cluster->redirector->queue_length(p);
    result.server_backlog_sec.merge_from(cluster->backlog);
    for (const auto& row : cluster->trace.rows())
      result.window_trace.record(row);
  }
  for (core::PrincipalId p = 0; p < n; ++p)
    result.principal_names.push_back(graph.name(p));
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

  // Serial-as-oracle: in audit builds every parallel run re-runs with one
  // lane and must match bitwise. The rerun has sim_shards == 1, so it does
  // not recurse.
  if (config.sim_shards > 1) {
    SHAREGRID_AUDIT_HOOK([&] {
      ScenarioConfig oracle = config;
      oracle.sim_shards = 1;
      audit::audit_shard_merge_match(result, run_clustered_scenario(oracle));
    }());
  }
  return result;
}

}  // namespace sharegrid::experiments
