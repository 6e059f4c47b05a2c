#include "experiments/scenario_assembly.hpp"

#include <algorithm>
#include <utility>

#include "core/flow.hpp"
#include "sched/income_scheduler.hpp"
#include "sched/response_time_scheduler.hpp"
#include "util/assert.hpp"

namespace sharegrid::experiments {

core::PrincipalId resolve(const core::AgreementGraph& graph,
                          const std::string& name) {
  const core::PrincipalId id = graph.find(name);
  SHAREGRID_EXPECTS(id != core::kNoPrincipal);
  return id;
}

core::AgreementGraph planning_graph(const ScenarioConfig& config,
                                    std::size_t replicas) {
  core::AgreementGraph graph = config.graph;
  for (core::PrincipalId p = 0; p < graph.size(); ++p)
    graph.set_capacity(p, 0.0);
  for (const auto& spec : config.servers) {
    const core::PrincipalId owner = resolve(graph, spec.owner);
    graph.set_capacity(owner, graph.capacity(owner) +
                                  spec.capacity *
                                      static_cast<double>(replicas));
  }
  return graph;
}

coord::SimExchangeOptions exchange_options(const ScenarioConfig& config) {
  coord::SimExchangeOptions options;
  options.period = config.tree_period > 0 ? config.tree_period : config.window;
  options.link_delay = config.tree_link_delay;
  options.first_round = config.window / 2;
  options.fanout = config.tree_fanout;
  return options;
}

SchedulerFactory scheduler_factory(const ScenarioConfig& config) {
  return [&config](const core::AgreementGraph& graph)
             -> std::unique_ptr<sched::Scheduler> {
    const std::size_t n = graph.size();
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
    return std::make_unique<sched::IncomeScheduler>(graph, levels,
                                                    config.prices);
  };
}

Domain::Domain(const ScenarioConfig& config,
               const core::AgreementGraph& graph, sim::Simulator* sim,
               std::unique_ptr<sched::Scheduler> planner,
               std::optional<std::size_t> cluster)
    : simulator(sim), scheduler(std::move(planner)), metrics(graph.size()) {
  const std::string site =
      cluster ? "c" + std::to_string(*cluster) : std::string();
  for (std::size_t s = 0; s < config.servers.size(); ++s) {
    nodes::Server::Config sc;
    sc.name = (cluster ? site + "-" : "") + "server-" + std::to_string(s);
    sc.owner = resolve(graph, config.servers[s].owner);
    sc.capacity = config.servers[s].capacity;
    servers.push_back(
        std::make_unique<nodes::Server>(sim, &requests, &metrics, sc));
    pool.add(servers.back().get());
  }

  // One ControlPlane owns the window loop (DESIGN.md D10); each redirector
  // is a thin packet/HTTP shell around one of its members. Every member
  // slices the GLOBAL plan, so the conservative no-snapshot share is one
  // over the whole fleet.
  coord::ControlPlaneConfig cp_config;
  cp_config.window = config.window;
  cp_config.redirector_count =
      config.redirector_count * (cluster ? config.clusters : 1);
  cp_config.stale_policy = config.stale_policy;
  plane = std::make_unique<coord::ControlPlane>(scheduler.get(), cp_config);

  nodes::WindowTrace* trace_ptr = config.trace_windows ? &trace : nullptr;
  for (std::size_t r = 0; r < config.redirector_count; ++r) {
    coord::ControlPlane::Member* member = plane->add_member();
    const std::string suffix = cluster ? site : std::to_string(r);
    if (config.layer == Layer::kL7) {
      nodes::L7Redirector::Config rc;
      rc.name = "l7-" + suffix;
      rc.mode = config.l7_mode;
      rc.trace = trace_ptr;
      l7s.push_back(std::make_unique<nodes::L7Redirector>(sim, &requests,
                                                          &pool, member, rc));
      redirectors.push_back(l7s.back().get());
    } else {
      nodes::L4Redirector::Config rc;
      rc.name = "l4-" + suffix;
      rc.trace = trace_ptr;
      l4s.push_back(std::make_unique<nodes::L4Redirector>(
          sim, &requests, &metrics, &pool, member, rc));
      redirectors.push_back(l4s.back().get());
    }
  }
}

void Domain::start_windows() {
  driver = std::make_unique<coord::SimWindowDriver>(simulator, plane.get());
  driver->start(plane->config().window);
}

void Domain::add_clients(const ScenarioConfig& config,
                         const core::AgreementGraph& graph, Rng& streams,
                         const workload::ReplySizeDistribution* sizes) {
  SHAREGRID_EXPECTS(config.client_scale >= 1);
  clients.reserve(config.clients.size());
  std::size_t next_index = 0;
  std::vector<Rng> machine_streams;
  machine_streams.reserve(config.client_scale);
  for (const ClientSpec& spec : config.clients) {
    SHAREGRID_EXPECTS(spec.redirector < redirectors.size());
    nodes::ClientFleet::Config fc;
    fc.principal = resolve(graph, spec.principal);
    fc.first_index = next_index;
    fc.rate = spec.rate;
    fc.max_outstanding = config.max_outstanding;
    machine_streams.clear();
    for (std::size_t m = 0; m < config.client_scale; ++m)
      machine_streams.push_back(streams.split());
    clients.push_back(std::make_unique<nodes::ClientFleet>(
        simulator, &requests, &metrics, redirectors[spec.redirector], fc,
        machine_streams, sizes));
    next_index += config.client_scale;

    // One toggle per fleet per interval boundary. The per-machine toggles
    // they replace were contiguous in scheduling order at each timestamp,
    // so flipping the whole fleet at once fires in the same order.
    nodes::ClientFleet* fleet = clients.back().get();
    for (const auto& [start, end] : spec.active_sec) {
      SHAREGRID_EXPECTS(end > start);
      simulator->schedule_at(seconds(start),
                             [fleet] { fleet->set_active(true); });
      simulator->schedule_at(seconds(end),
                             [fleet] { fleet->set_active(false); });
    }
  }
}

void Domain::start_backlog_probe() {
  backlog_probe = std::make_unique<sim::PeriodicTask>(
      simulator, 500 * kMillisecond, 500 * kMillisecond, [this] {
        double worst = 0.0;
        for (const auto& s : servers)
          worst = std::max(worst, s->backlog_seconds());
        backlog.add(worst);
      });
}

void Domain::stop() {
  driver->stop();
  backlog_probe->cancel();
}

ScenarioResult collect_result(const ScenarioConfig& config,
                              const core::AgreementGraph& graph,
                              const std::vector<const Domain*>& domains,
                              std::uint64_t coordination_messages) {
  const std::size_t n = graph.size();
  ScenarioResult result{.principal_names = {},
                        .metrics = nodes::Metrics(n),
                        .phase_reports = {},
                        .total_admitted = 0,
                        .total_rejected_or_queued = 0,
                        .coordination_messages = coordination_messages,
                        .server_backlog_sec = {},
                        .window_trace = nodes::WindowTrace()};
  for (const Domain* domain : domains) {
    result.metrics.merge_from(domain->metrics);
    result.server_backlog_sec.merge_from(domain->backlog);
    result.window_trace.merge_from(domain->trace);
    for (const auto& l7 : domain->l7s) {
      result.total_admitted += l7->admitted();
      result.total_rejected_or_queued += l7->self_redirects();
    }
    for (const auto& l4 : domain->l4s) {
      result.total_admitted += l4->admitted();
      for (core::PrincipalId p = 0; p < n; ++p)
        result.total_rejected_or_queued += l4->queue_length(p);
    }
    for (std::size_t m = 0; m < domain->plane->member_count(); ++m) {
      const coord::ControlPlane::Member* member = domain->plane->member(m);
      result.metrics.add_member_counts(
          member->window_scheduler().plan_fallbacks(),
          member->spike_replans(), member->replans_suppressed());
    }
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
  return result;
}

}  // namespace sharegrid::experiments
