#include "experiments/scenario_assembly.hpp"

#include "util/assert.hpp"

namespace sharegrid::experiments {

core::PrincipalId resolve(const core::AgreementGraph& graph,
                          const std::string& name) {
  const core::PrincipalId id = graph.find(name);
  SHAREGRID_EXPECTS(id != core::kNoPrincipal);
  return id;
}

std::vector<std::unique_ptr<nodes::ClientFleet>> build_client_fleets(
    const ScenarioConfig& config, const core::AgreementGraph& graph,
    sim::Simulator* sim, nodes::Metrics* metrics,
    const std::vector<nodes::RedirectorBase*>& redirectors, Rng& streams,
    const workload::ReplySizeDistribution* sizes) {
  SHAREGRID_EXPECTS(config.client_scale >= 1);
  std::vector<std::unique_ptr<nodes::ClientFleet>> fleets;
  fleets.reserve(config.clients.size());
  std::size_t next_index = 0;
  std::vector<Rng> machine_streams;
  for (const ClientSpec& spec : config.clients) {
    SHAREGRID_EXPECTS(spec.redirector < redirectors.size());
    nodes::ClientFleet::Config fc;
    fc.principal = resolve(graph, spec.principal);
    fc.first_index = next_index;
    fc.rate = spec.rate;
    fc.retry_delay_sec = config.retry_delay_sec;
    fc.max_outstanding = config.max_outstanding;
    fc.exponential_arrivals = config.exponential_arrivals;
    fc.net_delay = config.net_delay;
    fc.weighted_requests = config.weighted_admission;
    machine_streams.clear();
    for (std::size_t m = 0; m < config.client_scale; ++m)
      machine_streams.push_back(streams.split());
    fleets.push_back(std::make_unique<nodes::ClientFleet>(
        sim, metrics, redirectors[spec.redirector], fc,
        machine_streams, sizes));
    next_index += config.client_scale;

    // One toggle per fleet per interval boundary. The per-machine toggles
    // they replace were contiguous in scheduling order at each timestamp,
    // so flipping the whole fleet at once fires in the same order.
    nodes::ClientFleet* fleet = fleets.back().get();
    for (const auto& [start, end] : spec.active_sec) {
      SHAREGRID_EXPECTS(end > start);
      sim->schedule_at(seconds(start), [fleet] { fleet->set_active(true); });
      sim->schedule_at(seconds(end), [fleet] { fleet->set_active(false); });
    }
  }
  return fleets;
}

}  // namespace sharegrid::experiments
