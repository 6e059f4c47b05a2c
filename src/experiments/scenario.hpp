// Declarative experiment scenarios: agreements + servers + redirectors +
// phased client load, run end-to-end on the simulator. Shared by the figure
// benches, the examples, and the integration tests.
#pragma once

#include <cstdint>
#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "core/agreement_graph.hpp"
#include "nodes/l7_redirector.hpp"
#include "nodes/metrics.hpp"
#include "sched/scheduler.hpp"
#include "util/table.hpp"
#include "util/time.hpp"

namespace sharegrid::experiments {

/// Which prototype layer handles redirection (§4).
enum class Layer { kL7, kL4 };

/// Which optimization the windows solve (§3.1.2).
enum class SchedulerKind { kResponseTime, kIncome };

/// One physical server machine.
struct ServerSpec {
  std::string owner;  ///< principal name
  double capacity = 320.0;
};

/// One WebBench-style client machine.
struct ClientSpec {
  std::string name;
  std::string principal;        ///< whose service it requests
  std::size_t redirector = 0;   ///< which redirector it dials
  double rate = 400.0;          ///< max generation rate (req/s)
  /// Active intervals in seconds, e.g. {{0, 100}, {200, 300}}.
  std::vector<std::pair<double, double>> active_sec;
};

/// Named reporting phase (seconds).
struct PhaseSpec {
  std::string name;
  double start_sec = 0.0;
  double end_sec = 0.0;
};

/// Runtime re-provisioning of one server machine (degradation, recovery,
/// upgrade). Agreements are interpreted dynamically (§2.2): at event time
/// the flow analysis and scheduler are rebuilt against the new capacities,
/// so every principal's entitlement shifts with the physical resources.
struct CapacityEvent {
  double time_sec = 0.0;
  std::size_t server = 0;  ///< index into ScenarioConfig::servers
  double capacity = 0.0;   ///< new capacity (> 0)
};

/// Full experiment description.
struct ScenarioConfig {
  core::AgreementGraph graph;  ///< capacities are overwritten from `servers`
  Layer layer = Layer::kL4;
  SchedulerKind scheduler = SchedulerKind::kResponseTime;
  /// Income scheduler input (ignored for response-time): the price per
  /// extra request of every principal. Every principal that owns a server
  /// is a provider and runs its own per-window income LP over its
  /// entitlement column (src/sched/income_scheduler.hpp).
  std::vector<double> prices;

  /// Locality caps c_k (§3.1.2 extension): at most this many requests/sec
  /// may be pushed to principal k's servers per window, modeling forwarding
  /// cost. Empty = unconstrained. Response-time scheduler only.
  std::vector<double> locality_caps;

  std::size_t redirector_count = 1;
  std::vector<ServerSpec> servers;
  std::vector<ClientSpec> clients;

  /// Cluster-partitioned mode (DESIGN.md D13): when > 0, the declared
  /// servers/clients describe ONE cluster, replicated this many times. Each
  /// cluster runs in its own simulation domain with one redirector + one
  /// control-plane member planning a 1/clusters slice of the global
  /// agreements; the only cross-cluster traffic is the star snapshot
  /// exchange, whose `tree_link_delay` (required > 0) is the conservative
  /// lookahead the sharded engine steps by. 0 = classic single-domain path
  /// (byte-identical to previous behaviour).
  std::size_t clusters = 0;
  /// Worker lanes running the cluster domains (1 = serial oracle). Results
  /// are bitwise-identical for any value — audited against the serial rerun
  /// in SHAREGRID_AUDIT builds. Ignored when clusters == 0.
  std::size_t sim_shards = 1;
  /// Replicates every declared client machine this many times (applies in
  /// both modes) — the scale knob for the million-client scenarios.
  std::size_t client_scale = 1;
  std::vector<PhaseSpec> phases;
  std::vector<CapacityEvent> capacity_events;

  double duration_sec = 100.0;
  SimDuration window = 100 * kMillisecond;

  /// Combining-tree knobs: aggregation every `tree_period` (defaults to the
  /// window), each tree link adding `tree_link_delay` one-way — redirectors
  /// see aggregates lagging ~2x this (Figure 8 uses 5 s links for a 10 s lag).
  SimDuration tree_period = 0;  ///< 0 = use `window`
  SimDuration tree_link_delay = 0;
  /// Tree shape over the redirectors: 0 = flat star under a virtual root
  /// (depth 1); k >= 2 = balanced k-ary tree (redirectors at interior nodes
  /// both contribute and combine, as in the paper's §3.2).
  std::size_t tree_fanout = 0;

  /// Which SnapshotTransport the control plane rides on. kSimTree runs under
  /// the simulator (everything above); kSocket describes a multi-process
  /// deployment — one OS process per redirector exchanging round-tagged
  /// demand vectors over loopback TCP (coord::SocketTransport). Socket
  /// scenarios are driven by examples/multi_process_demo, not run_scenario;
  /// the demo sets the membership timings (lease TTL, redial backoff,
  /// election) itself.
  enum class TransportKind { kSimTree, kSocket };
  TransportKind transport = TransportKind::kSimTree;
  /// host:port per redirector process, index-aligned; entry 0 is the
  /// aggregation root. Required (and only meaningful) for kSocket.
  std::vector<std::string> socket_peers;

  // Client behaviour; the arrival process is the fleet config's default,
  // and the retry backoff and hop delay are node constants.
  std::size_t max_outstanding = 128;

  nodes::L7Redirector::Mode l7_mode = nodes::L7Redirector::Mode::kCreditBased;
  sched::StalePolicy stale_policy = sched::StalePolicy::kConservative;
  /// Record one WindowTrace row per redirector per window (see
  /// ScenarioResult::window_trace).
  bool trace_windows = false;

  std::uint64_t seed = 42;
};

/// Per-phase, per-principal average rates.
struct PhaseReport {
  std::string name;
  double start_sec = 0.0;
  double end_sec = 0.0;
  std::vector<double> served_rate;   ///< req/s, by principal
  std::vector<double> offered_rate;  ///< req/s, by principal
};

/// Everything measured in one run.
struct ScenarioResult {
  std::vector<std::string> principal_names;
  nodes::Metrics metrics;
  std::vector<PhaseReport> phase_reports;
  std::uint64_t total_admitted = 0;
  std::uint64_t total_rejected_or_queued = 0;
  std::uint64_t coordination_messages = 0;
  /// Worst per-server backlog (seconds of queued work), sampled every 500 ms
  /// across the run — the overload indicator: a redirector fleet that
  /// respects capacity keeps this near zero.
  RunningStats server_backlog_sec;
  /// Per-window decision log (populated when ScenarioConfig::trace_windows).
  nodes::WindowTrace window_trace;

  /// Average served rate for `principal` during phase `phase` (by index).
  double phase_served(std::size_t phase, std::size_t principal) const;

  /// Per-second served-rate table ("time A B ..." — the paper's plot data).
  TextTable series_table(SimDuration bin = kSecond) const;

  /// Per-phase average table.
  TextTable phase_table() const;
};

/// Builds every node, wires the combining tree, applies the client phase
/// schedule, runs the simulation for `duration_sec`, and reports. Dispatches
/// to run_clustered_scenario() when `config.clusters > 0`.
ScenarioResult run_scenario(const ScenarioConfig& config);

/// Cluster-partitioned runner (sharded_scenario.cpp): one simulation domain
/// per cluster on a conservatively synchronized ShardedSimulator, metrics
/// merged in cluster order. Requires layer == kL4, redirector_count == 1,
/// tree_link_delay > 0, tree_fanout == 0 and no capacity events; see
/// ScenarioConfig::clusters.
ScenarioResult run_clustered_scenario(const ScenarioConfig& config);

/// The graph the schedulers plan against: config.graph with each owner's
/// capacity set to its declared machines' sum times @p replicas — 1 for
/// the classic domain, `clusters` for the partitioned run, where every
/// cluster hosts one replica and each member plans a 1/clusters slice.
core::AgreementGraph planning_graph(const ScenarioConfig& config,
                                    std::size_t replicas);

/// Builds the configured scheduler against a planning graph. Re-invoked
/// whenever capacities change at runtime (agreements are interpreted
/// dynamically, §2.2).
using SchedulerFactory = std::function<std::unique_ptr<sched::Scheduler>(
    const core::AgreementGraph&)>;

/// The factory for @p config, which must outlive it.
SchedulerFactory scheduler_factory(const ScenarioConfig& config);

}  // namespace sharegrid::experiments
