// Scenario assembly shared by the two runners (DESIGN.md D13). Private to
// the experiments library.
//
// A Domain is one simulation domain's full vertical slice: servers, one
// control plane with a member per redirector, the redirectors, clients, and
// the domain's own Metrics hub, window trace and backlog probe. run_scenario
// (scenario.cpp) wires one Domain of R redirectors to a plain
// sim::Simulator and a CombiningTree; run_clustered_scenario
// (sharded_scenario.cpp) wires one single-redirector Domain per cluster to
// the ShardedSimulator and a ShardedStarTransport. The domain builder, the
// exchange options and the result step below, with planning_graph and
// scheduler_factory (scenario.hpp), exist once, for both.
#pragma once

#include <cstdint>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "coord/control_plane.hpp"
#include "coord/snapshot_transport.hpp"
#include "coord/window_driver.hpp"
#include "core/agreement_graph.hpp"
#include "experiments/scenario.hpp"
#include "nodes/client.hpp"
#include "nodes/l4_redirector.hpp"
#include "nodes/l7_redirector.hpp"
#include "nodes/metrics.hpp"
#include "nodes/server.hpp"
#include "nodes/window_trace.hpp"
#include "sched/scheduler.hpp"
#include "sim/simulator.hpp"
#include "util/rng.hpp"
#include "util/stats.hpp"
#include "workload/reply_size.hpp"

namespace sharegrid::experiments {

/// Resolves a principal name, failing loudly on typos in scenario specs.
core::PrincipalId resolve(const core::AgreementGraph& graph,
                          const std::string& name);

/// The snapshot exchange's schedule and shape: a round every `tree_period`
/// (the window when unset), each link adding `tree_link_delay`, with the
/// first round half a window in. Rounds interleave halfway between
/// scheduling windows, so a zero-delay exchange still feeds each window the
/// freshest possible snapshot.
coord::SimExchangeOptions exchange_options(const ScenarioConfig& config);

/// One simulation domain. Everything here is touched only by events of the
/// domain's own simulator, so the lanes of a sharded engine never share
/// mutable state.
///
/// The constructor builds servers, the control plane and its members, and
/// the redirectors, and creates no simulator task. The runner then starts
/// its snapshot transport, and calls start_windows(), add_clients() and
/// start_backlog_probe() in that order: task creation order fixes the
/// order of equal-time events (DESIGN.md D4).
struct Domain {
  /// @param cluster  the cluster index, or nullopt for the classic single
  ///                 domain. It names the nodes ("server-<s>" and
  ///                 "l7-<r>"/"l4-<r>" classic, "c<c>-server-<s>" and
  ///                 "l4-c<c>" per cluster) and sizes the fleet each
  ///                 member slices the global plan for:
  ///                 config.redirector_count members per domain, times
  ///                 `clusters` domains.
  Domain(const ScenarioConfig& config, const core::AgreementGraph& graph,
         sim::Simulator* sim, std::unique_ptr<sched::Scheduler> planner,
         std::optional<std::size_t> cluster);
  Domain(const Domain&) = delete;
  Domain& operator=(const Domain&) = delete;

  /// One window task per member, first firing one window in.
  void start_windows();
  /// Builds one nodes::ClientFleet of `config.client_scale` machines per
  /// declared client spec, in spec order, and schedules each fleet's active
  /// intervals. Machines take consecutive client indices from 0 and one RNG
  /// stream each, split from @p streams in spec-then-machine order.
  void add_clients(const ScenarioConfig& config,
                   const core::AgreementGraph& graph, Rng& streams,
                   const workload::ReplySizeDistribution* sizes);
  /// Samples the worst per-server backlog every 500 ms: the overload signal.
  void start_backlog_probe();
  /// Cancels the window and probe tasks once the run is over.
  void stop();

  sim::Simulator* simulator;
  std::unique_ptr<sched::Scheduler> scheduler;
  nodes::Metrics metrics;
  /// Requests in flight between the domain's clients, redirectors and
  /// servers; the request path's events carry handles into it.
  nodes::RequestSlab requests;
  std::vector<std::unique_ptr<nodes::Server>> servers;
  nodes::ServerPool pool;
  std::unique_ptr<coord::ControlPlane> plane;
  nodes::WindowTrace trace;
  std::vector<std::unique_ptr<nodes::L7Redirector>> l7s;
  std::vector<std::unique_ptr<nodes::L4Redirector>> l4s;
  /// Indexed like the members (ClientSpec::redirector).
  std::vector<nodes::RedirectorBase*> redirectors;
  std::unique_ptr<coord::SimWindowDriver> driver;
  std::vector<std::unique_ptr<nodes::ClientFleet>> clients;
  RunningStats backlog;
  std::unique_ptr<sim::PeriodicTask> backlog_probe;
};

/// The report of a finished run: admission totals, the members' plan
/// fallback and spike re-plan counts, principal names and phase reports, with every domain's
/// Metrics, backlog samples and trace rows merged in domain order. The
/// fixed order keeps the floating-point latency combination reproducible
/// and lane-count-invariant; merging a single domain copies it exactly.
ScenarioResult collect_result(const ScenarioConfig& config,
                              const core::AgreementGraph& graph,
                              const std::vector<const Domain*>& domains,
                              std::uint64_t coordination_messages);

}  // namespace sharegrid::experiments
