// Micro-benchmark M1: per-window LP solve cost as the number of principals
// grows. The paper argues the strategy's complexity "only depends on the
// number of principals involved in the agreements", expected to be small —
// these numbers quantify what "small" buys.
#include <benchmark/benchmark.h>

#include <utility>
#include <vector>

#include "core/agreement_graph.hpp"
#include "core/flow.hpp"
#include "lp/solve_context.hpp"
#include "sched/income_scheduler.hpp"
#include "sched/response_time_scheduler.hpp"
#include "util/rng.hpp"

using namespace sharegrid;

namespace {

/// Provider + (n-1) customers with random [lb, ub] SLAs.
core::AgreementGraph make_provider_graph(std::size_t n, Rng& rng) {
  core::AgreementGraph g;
  g.add_principal("S", 1000.0);
  double budget = 1.0;
  for (std::size_t i = 1; i < n; ++i) {
    g.add_principal("P" + std::to_string(i), 0.0);
    const double lb = rng.uniform(0.0, budget * 0.5);
    g.set_agreement(0, i, lb, rng.uniform(lb, 1.0));
    budget -= lb;
  }
  return g;
}

std::vector<double> make_demand(std::size_t n, Rng& rng) {
  std::vector<double> demand(n, 0.0);
  for (std::size_t i = 1; i < n; ++i) demand[i] = rng.uniform(0.0, 500.0);
  return demand;
}

void BM_ResponseTimePlan(benchmark::State& state) {
  Rng rng(42);
  const auto n = static_cast<std::size_t>(state.range(0));
  const core::AgreementGraph g = make_provider_graph(n, rng);
  const sched::ResponseTimeScheduler scheduler(
      g, core::compute_access_levels(g));
  const std::vector<double> demand = make_demand(n, rng);
  for (auto _ : state) {
    benchmark::DoNotOptimize(scheduler.plan(demand));
  }
  state.SetLabel(std::to_string(n * n + 1) + " vars");
}
BENCHMARK(BM_ResponseTimePlan)->Arg(2)->Arg(4)->Arg(8)->Arg(12)->Arg(16);

void BM_IncomePlan(benchmark::State& state) {
  Rng rng(43);
  const auto n = static_cast<std::size_t>(state.range(0));
  const core::AgreementGraph g = make_provider_graph(n, rng);
  std::vector<double> prices(n, 0.0);
  for (std::size_t i = 1; i < n; ++i) prices[i] = rng.uniform(0.5, 3.0);
  const sched::IncomeScheduler scheduler(g, core::compute_access_levels(g),
                                         prices);
  const std::vector<double> demand = make_demand(n, rng);
  for (auto _ : state) {
    benchmark::DoNotOptimize(scheduler.plan(demand));
  }
}
BENCHMARK(BM_IncomePlan)->Arg(2)->Arg(4)->Arg(8)->Arg(16)->Arg(32);

// -- M2: per-window plan re-solve, cold vs warm-started ----------------------
//
// The redirector's real per-window cost: ResponseTimeScheduler::plan over a
// sequence of windows whose demand estimates drift ±15% (right-hand sides and
// the theta column move; the agreement structure and objective stay fixed).
// "Cold" disables the warm-start pipeline through the solver options, which
// is exactly what every window cost before SolveContext; "Warm" is the
// default configuration, where the previous window's optimal basis re-enters
// phase 2 (falling back to dual-simplex recovery or a cold solve as needed).

std::vector<std::vector<double>> make_demand_sequence(std::size_t n, Rng& rng) {
  const std::vector<double> base = make_demand(n, rng);
  std::vector<std::vector<double>> windows(32, base);
  for (auto& demand : windows)
    for (std::size_t i = 1; i < n; ++i) demand[i] *= rng.uniform(0.85, 1.15);
  return windows;
}

void resolve_bench(benchmark::State& state, std::size_t warm_refresh_interval) {
  Rng rng(42);
  const auto n = static_cast<std::size_t>(state.range(0));
  const core::AgreementGraph g = make_provider_graph(n, rng);
  sched::ResponseTimeScheduler scheduler(g, core::compute_access_levels(g));
  lp::SolverOptions options;
  options.warm_refresh_interval = warm_refresh_interval;
  scheduler.set_solver_options(options);
  const auto windows = make_demand_sequence(n, rng);
  std::size_t w = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(scheduler.plan(windows[w]));
    w = (w + 1) % windows.size();
  }
  const lp::SolveStats stats = scheduler.solver_stats();
  state.SetLabel(std::to_string(stats.warm_solves) + "/" +
                 std::to_string(stats.solves) + " warm solves");
}

// The n = 64 and n = 128 points (4097- and 16385-variable programs) are the
// revised-simplex scaling targets: the dense tableau was O(rows · cols) per
// pivot and O(m²) per warm rhs recompute, which priced those sizes out of the
// 100 ms window budget entirely.
void BM_LpResolveCold(benchmark::State& state) { resolve_bench(state, 0); }
BENCHMARK(BM_LpResolveCold)
    ->Arg(4)->Arg(8)->Arg(16)->Arg(32)->Arg(64)->Arg(128)
    ->Unit(benchmark::kMicrosecond);

void BM_LpResolveWarm(benchmark::State& state) {
  resolve_bench(state, lp::SolverOptions{}.warm_refresh_interval);
}
BENCHMARK(BM_LpResolveWarm)
    ->Arg(4)->Arg(8)->Arg(16)->Arg(32)->Arg(64)->Arg(128)
    ->Unit(benchmark::kMicrosecond);

// -- M4: implicit upper bounds vs explicit bound rows -------------------------
//
// The bounded-variable ratio test keeps upper bounds out of the tableau
// entirely; the engine used to emit one `y_j <= hi_j - lo_j` row per finite
// bound. This pair solves the identical box-constrained program cold, once
// in its natural form and once reformulated with the explicit bound rows
// the old tableau carried, isolating the dense-tableau row-count win from
// everything else the pipeline does.

lp::Problem make_boxed_program(std::size_t n, bool explicit_rows, Rng& rng) {
  lp::Problem p(n, lp::Sense::kMaximize);
  std::vector<double> hi(n);
  for (std::size_t j = 0; j < n; ++j) {
    hi[j] = rng.uniform(1.0, 10.0);
    p.set_objective(j, rng.uniform(0.5, 3.0));
    if (!explicit_rows) p.set_bounds(j, 0.0, hi[j]);
  }
  for (std::size_t i = 0; i < n / 2; ++i) {
    std::vector<std::pair<std::size_t, double>> terms;
    for (std::size_t j = 0; j < n; ++j)
      terms.emplace_back(j, rng.uniform(0.0, 2.0));
    p.add_constraint(std::move(terms), lp::Relation::kLessEq,
                     rng.uniform(static_cast<double>(n) / 2.0,
                                 2.0 * static_cast<double>(n)));
  }
  if (explicit_rows) {
    for (std::size_t j = 0; j < n; ++j)
      p.add_constraint({{j, 1.0}}, lp::Relation::kLessEq, hi[j]);
  }
  return p;
}

void bounded_bench(benchmark::State& state, bool explicit_rows) {
  Rng rng(45);
  const auto n = static_cast<std::size_t>(state.range(0));
  const lp::Problem problem = make_boxed_program(n, explicit_rows, rng);
  for (auto _ : state) {
    lp::SolveContext context;  // fresh context: every solve runs cold
    benchmark::DoNotOptimize(context.solve(problem));
  }
  state.SetLabel(std::to_string(problem.num_constraints()) + " rows");
}

void BM_LpColdImplicitBounds(benchmark::State& state) {
  bounded_bench(state, false);
}
BENCHMARK(BM_LpColdImplicitBounds)
    ->Arg(16)->Arg(32)->Arg(64)->Unit(benchmark::kMicrosecond);

void BM_LpColdExplicitRows(benchmark::State& state) {
  bounded_bench(state, true);
}
BENCHMARK(BM_LpColdExplicitRows)
    ->Arg(16)->Arg(32)->Arg(64)->Unit(benchmark::kMicrosecond);

// -- M3: multi-provider plan ---------------------------------------------------
//
// One deployment hosting `p` providers solves `p` independent per-provider
// income programs each window (DESIGN.md D8), one after another in provider
// order on the calling thread.

void BM_MultiProviderPlan(benchmark::State& state) {
  Rng rng(44);
  const auto p = static_cast<std::size_t>(state.range(0));
  constexpr std::size_t kCustomers = 8;
  core::AgreementGraph g;
  std::vector<core::PrincipalId> providers;
  for (std::size_t s = 0; s < p; ++s)
    providers.push_back(g.add_principal("S" + std::to_string(s), 1000.0));
  for (std::size_t i = 0; i < kCustomers; ++i) {
    const auto c = g.add_principal("C" + std::to_string(i), 0.0);
    for (std::size_t s = 0; s < p; ++s) {
      const double lb = rng.uniform(0.0, 0.4 / static_cast<double>(kCustomers));
      g.set_agreement(providers[s], c, lb, rng.uniform(lb, 0.8));
    }
  }
  std::vector<double> prices(g.size(), 0.0);
  for (std::size_t i = p; i < g.size(); ++i) prices[i] = rng.uniform(0.5, 3.0);
  const sched::IncomeScheduler scheduler(g, core::compute_access_levels(g),
                                         prices);
  auto windows = make_demand_sequence(g.size(), rng);
  for (auto& demand : windows)  // providers issue no demand of their own
    for (std::size_t s = 0; s < p; ++s) demand[s] = 0.0;
  std::size_t w = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(scheduler.plan(windows[w]));
    w = (w + 1) % windows.size();
  }
}
BENCHMARK(BM_MultiProviderPlan)
    ->Arg(2)->Arg(4)->Arg(8)->Unit(benchmark::kMicrosecond);

}  // namespace
