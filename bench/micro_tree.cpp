// Micro-benchmark M4: combining-tree aggregation vs pairwise exchange.
//
// The paper's §3.2 scalability argument: a combining tree needs 2(n-1)
// messages per aggregation round against O(n^2) for pairwise exchange. This
// bench measures both the message counts (reported as counters) and the
// simulation cost of a round at increasing redirector counts. The tree's n
// nodes are its virtual root and n - 1 members in a 4-ary tree.
#include <benchmark/benchmark.h>

#include <vector>

#include "coord/combining_tree.hpp"
#include "sim/simulator.hpp"

using namespace sharegrid;
using namespace sharegrid::coord;

namespace {

constexpr std::size_t kVectorSize = 4;  // principals per aggregate

void BM_CombiningTreeRound(benchmark::State& state) {
  const auto n = static_cast<std::size_t>(state.range(0));
  std::uint64_t messages = 0;
  std::uint64_t rounds = 0;
  for (auto _ : state) {
    sim::Simulator sim;
    CombiningTree tree(&sim, n - 1, kVectorSize,
                       {.period = 100, .link_delay = 1, .fanout = 4});
    std::vector<double> local(kVectorSize, 1.0);
    std::size_t delivered = 0;
    for (std::size_t i = 0; i + 1 < n; ++i) {
      tree.attach(
          i, [&local] { return local; },
          [&delivered](std::uint64_t, const std::vector<double>&) {
            ++delivered;
          });
    }
    tree.start();
    sim.run_until(99);  // exactly one full round per fresh tree
    benchmark::DoNotOptimize(delivered);
    messages = tree.messages_sent();
    rounds = tree.rounds_completed();
  }
  state.counters["msgs_per_round"] =
      rounds > 0 ? static_cast<double>(messages) / static_cast<double>(rounds)
                 : 0.0;
  state.counters["expected_2(n-1)"] = static_cast<double>(2 * (n - 1));
}
BENCHMARK(BM_CombiningTreeRound)->Arg(4)->Arg(16)->Arg(64)->Arg(256);

void BM_PairwiseExchangeRound(benchmark::State& state) {
  const auto n = static_cast<std::size_t>(state.range(0));
  std::uint64_t messages = 0;
  std::uint64_t rounds = 0;
  for (auto _ : state) {
    sim::Simulator sim;
    PairwiseExchange exchange(&sim, n, kVectorSize,
                              {.period = 100, .link_delay = 1});
    std::vector<double> local(kVectorSize, 1.0);
    std::size_t delivered = 0;
    for (std::size_t i = 0; i < n; ++i) {
      exchange.attach(
          i, [&local] { return local; },
          [&delivered](std::uint64_t, const std::vector<double>&) {
            ++delivered;
          });
    }
    exchange.start();
    sim.run_until(99);  // exactly one round per fresh exchange
    benchmark::DoNotOptimize(delivered);
    messages = exchange.messages_sent();
    rounds = 1;
  }
  state.counters["msgs_per_round"] =
      rounds > 0 ? static_cast<double>(messages) : 0.0;
  state.counters["expected_n(n-1)"] = static_cast<double>(n * (n - 1));
}
BENCHMARK(BM_PairwiseExchangeRound)->Arg(4)->Arg(16)->Arg(64)->Arg(256);

}  // namespace
