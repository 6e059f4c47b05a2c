// Cluster-partitioned scenario runner (DESIGN.md D13).
//
// The declared servers/clients describe ONE cluster; `clusters` replicas of
// it run side by side, each as one Domain (scenario_assembly.hpp) in its own
// simulation domain of a conservatively synchronized ShardedSimulator. A
// Domain is a full vertical slice — servers, one L4 redirector, one
// control-plane member, clients, its own Metrics hub — so domains share no
// mutable state and the worker lanes never contend. The agreement graph is
// global (declared capacity x clusters) and each member plans a 1/clusters
// slice of it, exactly the paper's multi-redirector mode with the fleet
// spread across sites.
//
// run_scenario (scenario.cpp) builds one Domain of R redirectors from the
// same planning graph, scheduler factory, domain builder and result step.
// The two runners differ only in the engine, the snapshot transport, the
// capacity events (classic only), the partitioning contract and the
// serial-oracle rerun below.
//
// The ONLY cross-domain traffic is the star snapshot exchange
// (coord::ShardedStarTransport); its one-way link delay doubles as the
// engine's lookahead, so the physics of the modeled network IS the
// synchronization bound. Results are bitwise-invariant to `sim_shards` by
// construction, and SHAREGRID_AUDIT builds prove it per run by re-running
// serially and comparing every metric bin (audit_shard_merge_match).
#include <memory>
#include <vector>

#include "audit/invariant_auditor.hpp"
#include "coord/sharded_transport.hpp"
#include "experiments/scenario.hpp"
#include "experiments/scenario_assembly.hpp"
#include "sim/sharded_simulator.hpp"
#include "util/assert.hpp"
#include "util/metrics_registry.hpp"
#include "util/rng.hpp"

namespace sharegrid::experiments {

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

  util::global_metrics().reset();

  // Capacities are global: every cluster hosts one replica of the declared
  // machines, so a 1/clusters plan slice matches one cluster's hardware.
  const core::AgreementGraph graph = planning_graph(config, config.clusters);
  const SchedulerFactory build_scheduler = scheduler_factory(config);

  sim::ShardedSimulator::Options engine;
  engine.lookahead = config.tree_link_delay;
  engine.shards = config.sim_shards;
  sim::ShardedSimulator sharded(config.clusters, engine);

  Rng master(config.seed);
  const workload::ReplySizeDistribution reply_sizes;  // immutable, shared
  std::vector<std::unique_ptr<Domain>> clusters;
  clusters.reserve(config.clusters);

  // Phase 1, cluster order: nodes and control planes (no periodic tasks yet;
  // per-domain task creation order is fixed in phases 2-4 below to mirror
  // the classic path: snapshot task, then window task, then clients).
  for (std::size_t c = 0; c < config.clusters; ++c)
    clusters.push_back(std::make_unique<Domain>(
        config, graph, &sharded.domain(c), build_scheduler(graph), c));

  // Phase 2: the star exchange across clusters — one sampling task per
  // domain, created in cluster order.
  coord::ShardedStarTransport star(&sharded, graph.size(),
                                   exchange_options(config));
  for (std::size_t c = 0; c < config.clusters; ++c) {
    coord::ControlPlane::Member* member = clusters[c]->plane->member(0);
    star.attach(
        c, [member] { return member->local_demand(); },
        [member](std::uint64_t round, const std::vector<double>& aggregate) {
          member->receive_global(round, aggregate);
        });
  }
  star.start();

  // Phase 3: window drivers, after the snapshot task as in the classic path.
  for (const auto& cluster : clusters) cluster->start_windows();

  // Phase 4: clients and probes. RNG streams split per cluster first, then
  // per machine, so every cluster's workload is an independent deterministic
  // stream whatever the lane assignment.
  for (const auto& cluster : clusters) {
    Rng cluster_rng = master.split();
    cluster->add_clients(config, graph, cluster_rng, &reply_sizes);
    cluster->start_backlog_probe();
  }

  sharded.run_until(seconds(config.duration_sec));
  star.stop();
  for (const auto& cluster : clusters) cluster->stop();

  std::vector<const Domain*> domains;
  for (const auto& cluster : clusters) domains.push_back(cluster.get());
  ScenarioResult result =
      collect_result(config, graph, domains, star.messages_sent());

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
