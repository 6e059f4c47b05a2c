// Assembly steps shared by run_scenario (scenario.cpp) and
// run_clustered_scenario (sharded_scenario.cpp). Private to the experiments
// library.
#pragma once

#include <memory>
#include <string>
#include <vector>

#include "core/agreement_graph.hpp"
#include "experiments/scenario.hpp"
#include "nodes/client.hpp"
#include "nodes/metrics.hpp"
#include "sim/simulator.hpp"
#include "util/rng.hpp"
#include "workload/reply_size.hpp"

namespace sharegrid::experiments {

/// Resolves a principal name, failing loudly on typos in scenario specs.
core::PrincipalId resolve(const core::AgreementGraph& graph,
                          const std::string& name);

/// Builds one nodes::ClientFleet of `config.client_scale` machines per
/// declared client spec, in spec order, on one simulation domain, and
/// schedules each fleet's active intervals. Machines take consecutive
/// client indices from 0 and one RNG stream each, split from @p streams in
/// spec-then-machine order.
/// @param redirectors the domain's redirectors, indexed by
///                    ClientSpec::redirector.
std::vector<std::unique_ptr<nodes::ClientFleet>> build_client_fleets(
    const ScenarioConfig& config, const core::AgreementGraph& graph,
    sim::Simulator* sim, nodes::Metrics* metrics,
    const std::vector<nodes::RedirectorBase*>& redirectors, Rng& streams,
    const workload::ReplySizeDistribution* sizes);

}  // namespace sharegrid::experiments
