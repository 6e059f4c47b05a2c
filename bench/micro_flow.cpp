// Micro-benchmark M2: cost of the quasi-static flow/entitlement computation
// (§3.1.1) versus principal count and agreement density. This runs once per
// agreement change, not per window, but bounded-length paths matter on dense
// graphs — the max_path_length knob is measured too.
//
// Also home to the connection-table container pair (BM_FlowTable*): the NAT
// table was migrated from std::map to util::FlatHashMap for the
// million-client scenarios, and the before/after is recorded in
// BENCH_sim.json (tools/update_bench.py).
#include <cstdint>
#include <map>
#include <utility>

#include <benchmark/benchmark.h>

#include "core/agreement_graph.hpp"
#include "core/flow.hpp"
#include "l4/connection_table.hpp"
#include "util/flat_map.hpp"
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

// --- Connection-table container pair -----------------------------------
//
// Records the swap of the NAT table's std::map for a flat hash map: a
// (client, vip) pair key with an endpoint value, inserted per connection,
// looked up per packet and erased per FIN. l4::ConnectionTable has since
// moved on to one 12-byte entry per flow whose release clears an open bit
// (docs/sim-performance.md), so neither side is its current layout. Keys
// keep the (client, vip) endpoint pair the table was keyed by then.

using FlowKey = std::pair<l4::Endpoint, l4::Endpoint>;  // (client, vip)

struct FlowKeyHash {
  std::size_t operator()(const FlowKey& key) const {
    const auto pack = [](const l4::Endpoint& ep) {
      return (static_cast<std::uint64_t>(ep.host) << 16) | ep.port;
    };
    return static_cast<std::size_t>(
        util::hash_combine(util::mix64(pack(key.first)), pack(key.second)));
  }
};

FlowKey make_flow(std::uint64_t id) {
  const l4::Endpoint client{0x0C000000u + static_cast<std::uint32_t>(id / 4096),
                            static_cast<std::uint16_t>(1024 + (id & 0xFFF))};
  const l4::Endpoint vip{0x0A000000u + static_cast<std::uint32_t>(id % 4), 80};
  return {client, vip};
}

/// Establish/lookup/release churn over @p flows concurrent connections, with
/// 4 packet lookups per connection — the op mix the redirector generates.
template <class Table>
void flow_table_churn(benchmark::State& state) {
  const auto flows = static_cast<std::uint64_t>(state.range(0));
  const l4::Endpoint server{0x0B000000u, 8080};
  for (auto _ : state) {
    Table table;
    for (std::uint64_t id = 0; id < flows; ++id)
      table[make_flow(id)] = server;
    for (int pass = 0; pass < 4; ++pass) {
      for (std::uint64_t id = 0; id < flows; ++id) {
        auto it = table.find(make_flow(id));
        benchmark::DoNotOptimize(it->second);
      }
    }
    for (std::uint64_t id = 0; id < flows; ++id) table.erase(make_flow(id));
    benchmark::DoNotOptimize(table.size());
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(flows) * 6);
}

void BM_FlowTableMap(benchmark::State& state) {
  flow_table_churn<std::map<FlowKey, l4::Endpoint>>(state);
}
BENCHMARK(BM_FlowTableMap)->Arg(1 << 10)->Arg(1 << 14)->Arg(1 << 17);

void BM_FlowTableFlat(benchmark::State& state) {
  flow_table_churn<util::FlatHashMap<FlowKey, l4::Endpoint, FlowKeyHash>>(
      state);
}
BENCHMARK(BM_FlowTableFlat)->Arg(1 << 10)->Arg(1 << 14)->Arg(1 << 17);

}  // namespace
