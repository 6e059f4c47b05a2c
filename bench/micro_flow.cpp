// Micro-benchmark M2: cost of the quasi-static flow/entitlement computation
// (§3.1.1) versus principal count and agreement density. This runs once per
// agreement change, not per window, but bounded-length paths matter on dense
// graphs — the max_path_length knob is measured too.
//
// Also home to BM_ConnectionTable, the L4 redirector's NAT work per
// connection, recorded in BENCH_sim.json (tools/update_bench.py).
#include <cstddef>
#include <cstdint>
#include <optional>
#include <vector>

#include <benchmark/benchmark.h>

#include "core/agreement_graph.hpp"
#include "core/flow.hpp"
#include "l4/connection_table.hpp"
#include "util/rng.hpp"

using namespace sharegrid;

namespace {

core::AgreementGraph make_random_graph(std::size_t n, double density,
                                       Rng& rng) {
  core::AgreementGraph g;
  for (std::size_t i = 0; i < n; ++i)
    g.add_principal("P" + std::to_string(i), rng.uniform(10.0, 1000.0));
  for (core::PrincipalId i = 0; i < n; ++i) {
    double budget = 1.0;
    for (core::PrincipalId j = 0; j < n; ++j) {
      if (i == j || !rng.chance(density)) continue;
      const double lb = rng.uniform(0.0, budget * 0.3);
      g.set_agreement(i, j, lb, rng.uniform(lb, 1.0));
      budget -= lb;
    }
  }
  return g;
}

void BM_AccessLevelsSparse(benchmark::State& state) {
  Rng rng(7);
  const auto n = static_cast<std::size_t>(state.range(0));
  const core::AgreementGraph g = make_random_graph(n, 0.2, rng);
  for (auto _ : state) {
    benchmark::DoNotOptimize(core::compute_access_levels(g));
  }
}
BENCHMARK(BM_AccessLevelsSparse)->Arg(4)->Arg(8)->Arg(12)->Arg(16);

void BM_AccessLevelsDenseBoundedPaths(benchmark::State& state) {
  Rng rng(8);
  const core::AgreementGraph g = make_random_graph(12, 0.8, rng);
  core::FlowOptions opt;
  opt.max_path_length = static_cast<std::size_t>(state.range(0));
  for (auto _ : state) {
    benchmark::DoNotOptimize(core::compute_access_levels(g, opt));
  }
}
BENCHMARK(BM_AccessLevelsDenseBoundedPaths)->Arg(2)->Arg(3)->Arg(4)->Arg(5);

// --- Connection table ----------------------------------------------------
//
// What the L4 redirector asks of its table per connection. Each iteration
// fills a new table with @p flows connections from distinct client
// endpoints through open_new(), as a client's first 4,096 ports open in
// cluster_l4, with no index probe, and closes them by id; then it opens and
// closes every flow again through open(), as a client port that comes back
// finds its hint (the port reuse of Figure 10): the first of those opens
// files every pending entry in the index, and each makes one probe.
void BM_ConnectionTable(benchmark::State& state) {
  const auto flows = static_cast<std::uint32_t>(state.range(0));
  std::vector<l4::ConnectionTable::FlowId> ids(flows);
  const auto client_of = [](std::uint32_t i) {
    return l4::Endpoint{0x0C000000u + i / 4096,
                        static_cast<std::uint16_t>(1024 + i % 4096)};
  };
  for (auto _ : state) {
    l4::ConnectionTable table;
    for (std::uint32_t i = 0; i < flows; ++i)
      ids[i] = table.open_new(client_of(i), i % 2, i % 8);
    for (const l4::ConnectionTable::FlowId id : ids) table.close(id);
    for (std::uint32_t i = 0; i < flows; ++i) {
      ids[i] = table.open(client_of(i), i % 2,
                          [i](std::optional<std::size_t> hint) {
                            return hint.value_or(i % 8);
                          });
    }
    for (const l4::ConnectionTable::FlowId id : ids) table.close(id);
    benchmark::DoNotOptimize(table.flows());
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(flows) * 2);
}
BENCHMARK(BM_ConnectionTable)->Arg(1 << 10)->Arg(1 << 14)->Arg(1 << 17);

}  // namespace
