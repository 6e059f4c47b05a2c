// Micro-benchmark M3: simulator engine throughput and the relative cost of
// the two redirector implementations.
//
// The paper reports the L4 redirector "outperforms the application-level
// redirector in terms of its impact on request latency and bandwidth"
// (§5.2): the L7 path doubles the network round trips. In the simulator the
// same asymmetry appears as more events (hops) per request, measured here.
//
// The engine workloads cover the timing wheel's regimes (see
// docs/sim-performance.md): dense near-future chains (level 0), mixed
// horizons that force cascades across levels, far-future one-shots that
// land in the overflow list, and cancellation churn where most wheel
// traffic is inert tombstone events from dead PeriodicTasks.
#include <benchmark/benchmark.h>

#include <cstdint>
#include <deque>
#include <functional>
#include <memory>
#include <vector>

#include "experiments/scenario.hpp"
#include "sim/simulator.hpp"

using namespace sharegrid;
using namespace sharegrid::experiments;

namespace {

void BM_SimulatorEventThroughput(benchmark::State& state) {
  // Self-rescheduling event chains: the engine's core cost. The chain
  // closures live in a vector so the self-reference stays valid for the
  // whole run; the scheduled hop captures only one pointer, so the engine's
  // per-event storage cost is measured, not std::function copying.
  const auto chains = static_cast<std::size_t>(state.range(0));
  for (auto _ : state) {
    sim::Simulator sim;
    std::uint64_t fired = 0;
    std::vector<std::function<void()>> hop(chains);
    for (std::size_t c = 0; c < chains; ++c) {
      std::function<void()>& self = hop[c];
      self = [&sim, &fired, &self] {
        if (++fired % 1000 != 0) sim.schedule_after(10, [&self] { self(); });
      };
      sim.schedule_at(static_cast<SimTime>(c), [&self] { self(); });
    }
    sim.run_all();
    benchmark::DoNotOptimize(fired);
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(chains) * 1000);
}
BENCHMARK(BM_SimulatorEventThroughput)->Arg(1)->Arg(8)->Arg(64);

void BM_SimulatorMixedHorizon(benchmark::State& state) {
  // Chains that hop across wildly different horizons: 10 us, ~8 ms, ~0.5 s,
  // ~34 s. Far hops park events in high wheel levels and every firing drags
  // them down through cascades — the wheel's worst case relative to a heap,
  // which pays the same O(log n) regardless of horizon.
  static constexpr SimDuration kDeltas[] = {10, SimDuration{1} << 13,
                                            SimDuration{1} << 19,
                                            SimDuration{1} << 25};
  const auto chains = static_cast<std::size_t>(state.range(0));
  constexpr std::uint64_t kFiresPerChain = 200;
  for (auto _ : state) {
    sim::Simulator sim;
    std::uint64_t fired = 0;
    std::vector<std::function<void()>> hop(chains);
    for (std::size_t c = 0; c < chains; ++c) {
      std::function<void()>& self = hop[c];
      std::uint64_t step = c;  // stagger which horizon each chain starts on
      self = [&sim, &fired, &self, step]() mutable {
        ++fired;
        if (++step % kFiresPerChain != 0)
          sim.schedule_after(kDeltas[step % 4], [&self] { self(); });
      };
      sim.schedule_at(static_cast<SimTime>(c), [&self] { self(); });
    }
    sim.run_all();
    benchmark::DoNotOptimize(fired);
  }
  state.SetItemsProcessed(
      static_cast<std::int64_t>(state.iterations()) *
      static_cast<std::int64_t>(chains * kFiresPerChain));
}
BENCHMARK(BM_SimulatorMixedHorizon)->Arg(64);

void BM_SimulatorFarFuture(benchmark::State& state) {
  // One-shot events scattered up to ~2^42 us (= 52 days) ahead, plus a few
  // past the wheel horizon entirely: exercises deep-level insertion, the
  // multi-level cascade path, and the overflow list.
  constexpr std::size_t kEvents = 4096;
  for (auto _ : state) {
    sim::Simulator sim;
    std::uint64_t fired = 0;
    std::uint64_t rng = 0x9e3779b97f4a7c15ull;  // deterministic xorshift
    for (std::size_t i = 0; i < kEvents; ++i) {
      rng ^= rng << 13;
      rng ^= rng >> 7;
      rng ^= rng << 17;
      const auto t = static_cast<SimTime>(rng & ((std::uint64_t{1} << 42) - 1));
      sim.schedule_at(t, [&fired] { ++fired; });
    }
    for (int i = 0; i < 8; ++i)  // beyond the 2^47-us wheel horizon
      sim.schedule_at((SimTime{1} << 50) + i, [&fired] { ++fired; });
    sim.run_all();
    benchmark::DoNotOptimize(fired);
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(kEvents + 8));
}
BENCHMARK(BM_SimulatorFarFuture);

void BM_SimulatorCancellationChurn(benchmark::State& state) {
  // Periodic-task churn: a rolling fleet of tasks where the oldest is
  // cancelled and replaced every millisecond. Cancelled tasks leave inert
  // events behind, so a large share of wheel traffic is tombstones — the
  // pattern window schedulers and combining-tree rounds produce when nodes
  // are rebuilt mid-run.
  constexpr std::size_t kTasks = 64;
  for (auto _ : state) {
    sim::Simulator sim;
    std::uint64_t fired = 0;
    std::deque<std::unique_ptr<sim::PeriodicTask>> tasks;
    for (std::size_t i = 0; i < kTasks; ++i)
      tasks.push_back(std::make_unique<sim::PeriodicTask>(
          &sim, static_cast<SimTime>(i), 100, [&fired] { ++fired; }));
    sim::PeriodicTask churn(&sim, 500, 1000, [&] {
      tasks.pop_front();  // cancels via destructor; pending event goes inert
      tasks.push_back(std::make_unique<sim::PeriodicTask>(
          &sim, sim.now() + 1, 100, [&fired] { ++fired; }));
    });
    sim.run_until(seconds(1.0));
    churn.cancel();
    tasks.clear();
    benchmark::DoNotOptimize(fired);
    benchmark::DoNotOptimize(sim.events_processed());
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(kTasks) * 10000);
}
BENCHMARK(BM_SimulatorCancellationChurn);

ScenarioConfig small_scenario(Layer layer) {
  core::AgreementGraph g;
  const auto s = g.add_principal("S", 0.0);
  const auto a = g.add_principal("A", 0.0);
  g.set_agreement(s, a, 1.0, 1.0);

  ScenarioConfig c;
  c.graph = g;
  c.layer = layer;
  c.servers = {{"S", 320.0}};
  c.clients = {{"C1", "A", 0, 200.0, {{0.0, 10.0}}}};
  c.phases = {{"steady", 1.0, 10.0}};
  c.duration_sec = 10.0;
  return c;
}

/// Wall-clock cost of simulating ~2000 requests end to end per layer. The
/// L7 path is costlier per request (redirect bounce = extra hops), mirroring
/// the paper's overhead comparison.
void BM_ScenarioL7(benchmark::State& state) {
  const ScenarioConfig config = small_scenario(Layer::kL7);
  for (auto _ : state) benchmark::DoNotOptimize(run_scenario(config));
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) * 2000);
}
BENCHMARK(BM_ScenarioL7);

void BM_ScenarioL4(benchmark::State& state) {
  const ScenarioConfig config = small_scenario(Layer::kL4);
  for (auto _ : state) benchmark::DoNotOptimize(run_scenario(config));
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) * 2000);
}
BENCHMARK(BM_ScenarioL4);

/// Cluster-partitioned runner at 1/2/4/8 worker lanes: 8 clusters of the
/// community workload, ~26k requests per run, with the star exchange on
/// 50 ms links. The /1 point is the serial oracle every other point must
/// match bitwise (and does — audited); on multi-core hosts the others show
/// the lane speedup, on a single hardware thread they show the lanes
/// timeslicing (barrier + handoff overhead only). See
/// docs/sim-performance.md for the recorded ratios.
void BM_ScenarioSharded(benchmark::State& state) {
  core::AgreementGraph g;
  const auto a = g.add_principal("A", 0.0);
  const auto b = g.add_principal("B", 0.0);
  g.set_agreement(a, b, 0.3, 1.0);
  g.set_agreement(b, a, 0.3, 1.0);

  ScenarioConfig c;
  c.graph = g;
  c.layer = Layer::kL4;
  c.servers = {{"A", 200.0}, {"B", 200.0}};
  c.clients = {{"CA", "A", 0, 240.0, {{0.0, 10.0}}},
               {"CB", "B", 0, 160.0, {{2.0, 9.0}}}};
  c.phases = {{"steady", 1.0, 10.0}};
  c.duration_sec = 10.0;
  c.tree_link_delay = 50 * kMillisecond;
  c.clusters = 8;
  c.sim_shards = static_cast<std::size_t>(state.range(0));
  for (auto _ : state) benchmark::DoNotOptimize(run_scenario(c));
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          8 * 3280);
}
// Wall-clock, not per-thread CPU: the work runs on pool lanes the harness's
// CPU counter never sees, so CPU-time rates would overstate lane scaling.
BENCHMARK(BM_ScenarioSharded)->Arg(1)->Arg(2)->Arg(4)->Arg(8)->UseRealTime();

}  // namespace
