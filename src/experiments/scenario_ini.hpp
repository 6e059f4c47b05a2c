// Scenario files: describe a full experiment in a small INI dialect and run
// it without recompiling. Used by examples/run_scenario_file and handy for
// exploring agreement structures beyond the paper's figures.
//
// File format (see examples/scenarios/*.ini for complete files):
//
//   layer = l4                    # l4 | l7
//   scheduler = response_time     # response_time | income
//   duration = 120                # seconds
//   window_ms = 100
//   redirectors = 2
//   tree_link_delay = 5           # seconds, one-way per tree link
//   stale_policy = conservative   # conservative | optimistic
//   l7_mode = credit              # credit | explicit
//   seed = 42
//
//   [principal]                   # one block per principal, in id order
//   name = S
//   price = 0                     # income scheduler only (default 0)
//
//   [agreement]
//   owner = S
//   user = A
//   lower = 0.8
//   upper = 1.0
//
//   [server]                      # one block per machine; under income,
//                                 # every owner is a provider
//   owner = S
//   capacity = 320
//
//   [client]
//   name = C1
//   principal = A
//   redirector = 0
//   rate = 400
//   active = 0-125, 250-375       # seconds; comma-separated ranges
//
//   [phase]                       # reporting intervals
//   name = phase1
//   start = 15
//   end = 120
#pragma once

#include <string>

#include "experiments/scenario.hpp"
#include "util/ini.hpp"

namespace sharegrid::experiments {

/// Builds a ScenarioConfig from a parsed INI document. Throws
/// ContractViolation with a descriptive message on any schema violation,
/// including a number that cannot become the integer it sets: counts,
/// indices and the seed must be whole, and every such number, durations
/// and times included, finite and in range.
ScenarioConfig scenario_from_ini(const IniDocument& document);

/// Convenience: parse + build from a file path.
ScenarioConfig load_scenario_file(const std::string& path);

}  // namespace sharegrid::experiments
