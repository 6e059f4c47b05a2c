// Warm-started LP pipeline: equivalence with cold solves, fallback paths,
// and the iteration-limit degradation in the schedulers.
#include "lp/solve_context.hpp"

#include <gtest/gtest.h>

#include <cmath>
#include <vector>

#include "audit/invariant_auditor.hpp"
#include "core/agreement_graph.hpp"
#include "core/flow.hpp"
#include "sched/income_scheduler.hpp"
#include "sched/response_time_scheduler.hpp"
#include "sched/window_scheduler.hpp"
#include "util/rng.hpp"

namespace sharegrid::lp {
namespace {

/// Warm and cold solves of the same problem must agree on status and (for
/// optimal solves) on the objective within 1e-9 relative; vertices may
/// legitimately differ under alternate optima, so values are checked only
/// through primal feasibility (the always-compiled auditor).
void expect_equivalent(const Problem& problem, const Solution& warm,
                       const Solution& cold) {
  ASSERT_EQ(static_cast<int>(warm.status), static_cast<int>(cold.status));
  if (!cold.optimal()) return;
  EXPECT_NEAR(warm.objective, cold.objective,
              1e-9 * (1.0 + std::abs(cold.objective)));
  ASSERT_NO_THROW(audit::audit_lp_solution(problem, warm, 1e-6));
  ASSERT_NO_THROW(audit::audit_lp_solution(problem, cold, 1e-6));
}

/// A scheduler-shaped LP family with a fixed layout and per-window data:
/// per-variable upper bounds, one shared capacity row, a mandatory floor
/// (>=, exercising artificials), and a theta-style row whose coefficient on
/// the last variable carries the demand (a *structural* change between
/// windows, exercising the warm repair pivots).
Problem make_window_problem(std::size_t n, double capacity, double floor,
                            const std::vector<double>& hi, double theta_demand,
                            const std::vector<double>& prices) {
  Problem p(n + 1, Sense::kMaximize);
  for (std::size_t j = 0; j < n; ++j) {
    p.set_objective(j, prices[j]);
    p.set_bounds(j, 0.0, hi[j]);
  }
  p.set_bounds(n, 0.0, 1.0);
  p.set_objective(n, capacity);  // reward theta like the max-min stage

  std::vector<std::pair<std::size_t, double>> cap_terms;
  for (std::size_t j = 0; j < n; ++j) cap_terms.emplace_back(j, 1.0);
  p.add_constraint(std::move(cap_terms), Relation::kLessEq, capacity);

  p.add_constraint({{0, 1.0}, {1, 1.0}}, Relation::kGreaterEq, floor);

  std::vector<std::pair<std::size_t, double>> theta_terms;
  for (std::size_t j = 0; j < n; ++j) theta_terms.emplace_back(j, 1.0);
  theta_terms.emplace_back(n, -theta_demand);
  p.add_constraint(std::move(theta_terms), Relation::kGreaterEq, 0.0);
  return p;
}

TEST(SolveContext, WarmMatchesColdOverPerturbedWindows) {
  // Scheduler-realistic drift: right-hand sides, bounds, and the theta
  // column move every window; the objective (structural in every scheduler
  // stage) is re-rolled only occasionally, which may legitimately force a
  // cold solve when the cached basis also lost primal feasibility.
  constexpr std::size_t kVars = 8;
  constexpr int kWindows = 220;
  Rng rng(20240811);
  SolveContext context;

  std::vector<double> hi(kVars, 0.0);
  std::vector<double> prices(kVars, 1.0);
  int warm_checked = 0;
  for (int w = 0; w < kWindows; ++w) {
    const double capacity = rng.uniform(50.0, 150.0);
    const double floor = rng.uniform(0.0, 20.0);
    for (double& h : hi) h = rng.uniform(0.0, 40.0);
    const double theta_demand = rng.uniform(10.0, 400.0);
    if (w % 10 == 0)
      for (double& p : prices) p = rng.uniform(0.0, 5.0);

    const Problem p = make_window_problem(kVars, capacity, floor, hi,
                                          theta_demand, prices);
    const Solution warm = context.solve(p);
    const Solution cold = solve(p);  // fresh context: cold by construction
    expect_equivalent(p, warm, cold);
    if (warm.warm_started) ++warm_checked;
  }

  const SolveStats& stats = context.stats();
  EXPECT_EQ(stats.solves, static_cast<std::uint64_t>(kWindows));
  EXPECT_EQ(stats.warm_solves + stats.cold_solves, stats.solves);
  // The point of the pipeline: most perturbed windows re-enter phase 2.
  EXPECT_GT(warm_checked, kWindows / 2);
  EXPECT_GT(stats.warm_solves, 0u);
}

TEST(SolveContext, RhsOnlyPerturbationsStayWarm) {
  // Pure right-hand-side drift (capacity/bounds) with frozen structure: the
  // cached basis should survive nearly every window.
  constexpr std::size_t kVars = 6;
  Rng rng(7);
  SolveContext context;
  std::vector<double> hi(kVars, 30.0);
  std::vector<double> prices(kVars, 1.0);
  for (int w = 0; w < 50; ++w) {
    const double capacity = 100.0 + rng.uniform(-5.0, 5.0);
    for (double& h : hi) h = 30.0 + rng.uniform(-1.0, 1.0);
    const Problem p =
        make_window_problem(kVars, capacity, 10.0, hi, 200.0, prices);
    const Solution warm = context.solve(p);
    const Solution cold = solve(p);
    expect_equivalent(p, warm, cold);
  }
  EXPECT_GT(context.stats().warm_solves, 40u);
}

TEST(SolveContext, InfeasibleRhsRecoveredByDualSimplex) {
  // Window 2's capacity collapses below what the cached basis allocated:
  // primal infeasible for the new rhs. The objective is unchanged, so the
  // basis is still dual feasible and dual simplex must recover the warm
  // start instead of falling back to phase 1.
  constexpr std::size_t kVars = 4;
  std::vector<double> hi(kVars, 50.0);
  std::vector<double> prices(kVars, 1.0);
  SolveContext context;

  const Problem loose =
      make_window_problem(kVars, 120.0, 10.0, hi, 100.0, prices);
  const Solution first = context.solve(loose);
  ASSERT_TRUE(first.optimal());
  ASSERT_FALSE(first.warm_started);

  const Problem tight = make_window_problem(kVars, 12.0, 10.0, hi, 100.0,
                                            prices);
  const Solution second = context.solve(tight);
  const Solution cold = solve(tight);
  expect_equivalent(tight, second, cold);
  EXPECT_TRUE(second.warm_started);
  EXPECT_GE(context.stats().dual_recoveries, 1u);
  EXPECT_EQ(context.stats().rhs_rejections, 0u);
}

TEST(SolveContext, InfeasibleRhsWithMovedObjectiveFallsBackToPhase1) {
  // When the right-hand side breaks primal feasibility AND the objective
  // moved (so the cached basis is not dual feasible either), no warm
  // re-entry is possible: the context must reject the warm start
  // (rhs_rejections) and produce the answer through the full two-phase
  // method — the forced phase-1 fallback case.
  auto make = [](double x0_cap, double price1) {
    Problem p(2, Sense::kMaximize);
    p.set_objective(0, 1.0);
    p.set_objective(1, price1);
    p.set_bounds(0, 0.0, x0_cap);
    p.set_bounds(1, 0.0, 10.0);
    p.add_constraint({{0, 1.0}, {1, 1.0}}, Relation::kLessEq, 15.0);
    p.add_constraint({{0, 1.0}, {1, 1.0}}, Relation::kGreaterEq, 5.0);
    return p;
  };
  SolveContext context;
  const Problem first = make(10.0, 0.0);
  ASSERT_TRUE(context.solve(first).optimal());  // x0 = 10, x1 nonbasic at 0

  // x0's ceiling collapses to 2 (the floor row goes primal infeasible for
  // the old basis) and x1 — nonbasic — suddenly earns a positive reduced
  // cost: dual recovery must refuse and the solve must go cold.
  const Problem second = make(2.0, 2.0);
  const Solution warm = context.solve(second);
  const Solution cold = solve(second);
  expect_equivalent(second, warm, cold);
  EXPECT_FALSE(warm.warm_started);
  EXPECT_GE(context.stats().rhs_rejections, 1u);
  ASSERT_TRUE(warm.optimal());
  EXPECT_NEAR(warm.objective, 2.0 + 2.0 * 10.0, 1e-6);
}

TEST(SolveContext, WarmRefreshIntervalForcesPeriodicColdSolves) {
  constexpr std::size_t kVars = 4;
  std::vector<double> hi(kVars, 25.0);
  std::vector<double> prices(kVars, 1.0);
  SolverOptions options;
  options.warm_refresh_interval = 4;
  SolveContext context;
  for (int w = 0; w < 20; ++w) {
    const Problem p = make_window_problem(
        kVars, 80.0 + static_cast<double>(w % 3), 5.0, hi, 150.0, prices);
    ASSERT_TRUE(context.solve(p, options).optimal());
  }
  EXPECT_GE(context.stats().refreshes, 3u);
  EXPECT_GE(context.stats().cold_solves, 4u);
}

TEST(SolveContext, ZeroRefreshIntervalDisablesWarmStarts) {
  constexpr std::size_t kVars = 4;
  std::vector<double> hi(kVars, 25.0);
  std::vector<double> prices(kVars, 1.0);
  SolverOptions options;
  options.warm_refresh_interval = 0;
  SolveContext context;
  for (int w = 0; w < 5; ++w) {
    const Problem p = make_window_problem(kVars, 80.0, 5.0, hi, 150.0, prices);
    ASSERT_TRUE(context.solve(p, options).optimal());
  }
  EXPECT_EQ(context.stats().warm_solves, 0u);
  EXPECT_EQ(context.stats().cold_solves, 5u);
}

TEST(SolveContext, IterationLimitReportedGracefully) {
  // A pivot budget of zero cannot certify optimality; the solver must report
  // kIterationLimit instead of asserting (the old behaviour crashed).
  Problem p(2, Sense::kMaximize);
  p.set_objective(0, 3.0);
  p.set_objective(1, 5.0);
  p.add_constraint({{0, 1.0}, {1, 2.0}}, Relation::kLessEq, 10.0);
  SolverOptions options;
  options.max_iterations = 0;
  const Solution s = solve(p, options);
  EXPECT_EQ(static_cast<int>(s.status),
            static_cast<int>(Status::kIterationLimit));
}

TEST(SolveContext, StructureChangeGoesColdThenReWarms) {
  // Dropping the floor row changes the constraint pattern: the next solve
  // must be cold (structure miss), and the one after that warm again.
  constexpr std::size_t kVars = 4;
  std::vector<double> hi(kVars, 25.0);
  std::vector<double> prices(kVars, 1.0);
  SolveContext context;
  const Problem with_floor =
      make_window_problem(kVars, 80.0, 5.0, hi, 150.0, prices);
  ASSERT_TRUE(context.solve(with_floor).optimal());

  Problem no_floor(kVars, Sense::kMaximize);
  for (std::size_t j = 0; j < kVars; ++j) {
    no_floor.set_objective(j, 1.0);
    no_floor.set_bounds(j, 0.0, hi[j]);
  }
  std::vector<std::pair<std::size_t, double>> cap_terms;
  for (std::size_t j = 0; j < kVars; ++j) cap_terms.emplace_back(j, 1.0);
  no_floor.add_constraint(std::move(cap_terms), Relation::kLessEq, 80.0);
  const Solution cold_again = context.solve(no_floor);
  ASSERT_TRUE(cold_again.optimal());
  EXPECT_FALSE(cold_again.warm_started);
  EXPECT_GE(context.stats().structure_misses, 1u);

  const Solution rewarm = context.solve(no_floor);
  ASSERT_TRUE(rewarm.optimal());
  EXPECT_TRUE(rewarm.warm_started);
}

/// maximize 2*x0 + x1 over x0 in [0, h0], x1 in [0, h1], x0 + x1 <= cap.
/// With h0 + h1 < cap both variables sit nonbasic at their upper bounds at
/// the optimum — reached by bound flips, since the single constraint row
/// admits only one basic structural variable.
Problem make_box_problem(double h0, double h1, double cap) {
  Problem p(2, Sense::kMaximize);
  p.set_objective(0, 2.0);
  p.set_objective(1, 1.0);
  p.set_bounds(0, 0.0, h0);
  p.set_bounds(1, 0.0, h1);
  p.add_constraint({{0, 1.0}, {1, 1.0}}, Relation::kLessEq, cap);
  return p;
}

TEST(SolveContext, BoundFlipSurvivesWarmReEntry) {
  SolveContext warm;
  const Problem first = make_box_problem(3.0, 4.0, 10.0);
  const Solution base = warm.solve(first);
  ASSERT_TRUE(base.optimal());
  EXPECT_NEAR(base.objective, 10.0, 1e-9);
  // The optimum parks both variables nonbasic-at-upper via flips.
  EXPECT_GT(warm.stats().bound_flips, 0u);

  // Drift the finite bound values between windows: that is data, not
  // layout, so every re-solve stays warm, and the flipped variables must
  // track their moving bounds through the recomputed basic values.
  for (const double d : {0.25, 0.5, 0.75, 1.0}) {
    const Problem next = make_box_problem(3.0 + d, 4.0 - d, 10.0);
    SolveContext cold;
    const Solution w = warm.solve(next);
    const Solution c = cold.solve(next);
    EXPECT_TRUE(w.warm_started);
    expect_equivalent(next, w, c);
  }
  EXPECT_EQ(warm.stats().warm_solves, 4u);
  EXPECT_EQ(warm.stats().structure_misses, 0u);
}

TEST(SolveContext, BoundCrossingInfinityIsAStructureMissBothWays) {
  // cap = 5 keeps the program bounded even when x1 loses its upper bound.
  auto with_hi = [](double h1) { return make_box_problem(3.0, h1, 5.0); };
  SolveContext context;
  ASSERT_TRUE(context.solve(with_hi(4.0)).optimal());

  // finite -> kInfinity: the set of flippable variables changed, so the
  // cached tableau must not be reused even though every coefficient and
  // right-hand side is identical.
  const Solution widened = context.solve(with_hi(kInfinity));
  ASSERT_TRUE(widened.optimal());
  EXPECT_NEAR(widened.objective, 2.0 * 3.0 + 2.0, 1e-9);
  EXPECT_FALSE(widened.warm_started);
  EXPECT_EQ(context.stats().structure_misses, 1u);

  // kInfinity -> finite: same in the other direction.
  const Solution narrowed = context.solve(with_hi(4.0));
  ASSERT_TRUE(narrowed.optimal());
  EXPECT_FALSE(narrowed.warm_started);
  EXPECT_EQ(context.stats().structure_misses, 2u);

  // finite -> finite is a data rewrite and must stay warm.
  const Solution drifted = context.solve(with_hi(3.5));
  ASSERT_TRUE(drifted.optimal());
  EXPECT_TRUE(drifted.warm_started);
  EXPECT_EQ(context.stats().structure_misses, 2u);
}

TEST(SolveContext, StatsStayConsistentAcrossMixedOutcomes) {
  // A workload that exercises warm solves, layout misses, periodic
  // refreshes, and an iteration-limited window, then cross-checks the
  // counters with the audit-layer consistency assertion (the same check the
  // solver runs after every solve in SHAREGRID_AUDIT builds).
  constexpr std::size_t kVars = 4;
  std::vector<double> prices = {1.0, 0.8, 1.2, 0.9};
  SolveContext context;
  SolverOptions opt;
  opt.warm_refresh_interval = 8;
  Rng rng(2026);
  for (int w = 0; w < 40; ++w) {
    std::vector<double> hi(kVars, 20.0 + rng.uniform(0.0, 10.0));
    if (w % 13 == 12) {
      // Different constraint pattern: forces a structure miss.
      Problem other(kVars, Sense::kMaximize);
      for (std::size_t j = 0; j < kVars; ++j) {
        other.set_objective(j, prices[j]);
        other.set_bounds(j, 0.0, hi[j]);
      }
      other.add_constraint({{0, 1.0}, {2, 1.0}}, Relation::kLessEq, 30.0);
      ASSERT_TRUE(context.solve(other, opt).optimal());
      continue;
    }
    const Problem p = make_window_problem(
        kVars, 70.0 + rng.uniform(0.0, 20.0), 4.0 + rng.uniform(0.0, 2.0), hi,
        120.0 + rng.uniform(0.0, 60.0), prices);
    if (w == 20) {
      SolverOptions strangled = opt;
      strangled.max_iterations = 0;
      context.solve(p, strangled);  // iteration-limited, still one solve
      continue;
    }
    ASSERT_TRUE(context.solve(p, opt).optimal());
  }
  const SolveStats& s = context.stats();
  EXPECT_NO_THROW(audit::audit_solve_stats(s));
  EXPECT_EQ(s.solves, 40u);
  EXPECT_EQ(s.warm_solves + s.cold_solves, s.solves);
  EXPECT_GE(s.warm_solves, 1u);
  EXPECT_GE(s.structure_misses, 1u);
  EXPECT_GE(s.refreshes, 1u);
}

}  // namespace
}  // namespace sharegrid::lp

namespace sharegrid::sched {
namespace {

/// Four principals with capacity and a ring of partial agreements: enough
/// cross-entitlement structure that the response-time LP is non-trivial.
core::AgreementGraph ring_graph() {
  core::AgreementGraph g;
  const auto a = g.add_principal("A", 120.0);
  const auto b = g.add_principal("B", 90.0);
  const auto c = g.add_principal("C", 60.0);
  const auto d = g.add_principal("D", 30.0);
  g.set_agreement(a, b, 0.2, 0.6);
  g.set_agreement(b, c, 0.3, 0.7);
  g.set_agreement(c, d, 0.1, 0.5);
  g.set_agreement(d, a, 0.2, 0.8);
  return g;
}

TEST(SchedulerWarmStart, ResponseTimePlansMatchColdSchedulers) {
  const auto g = ring_graph();
  const auto levels = core::compute_access_levels(g);
  ResponseTimeScheduler warm_sched(g, levels);

  Rng rng(99);
  for (int w = 0; w < 60; ++w) {
    std::vector<double> demand(4);
    for (double& d : demand) d = rng.uniform(0.0, 200.0);

    const Plan warm = warm_sched.plan(demand);
    // A fresh scheduler has fresh (cold) solver contexts.
    ResponseTimeScheduler cold_sched(g, levels);
    const Plan cold = cold_sched.plan(demand);

    ASSERT_FALSE(warm.lp_fallback);
    EXPECT_NEAR(warm.theta, cold.theta, 1e-9 * (1.0 + cold.theta));
    double warm_total = 0.0;
    double cold_total = 0.0;
    for (std::size_t i = 0; i < 4; ++i) {
      warm_total += warm.admitted(i);
      cold_total += cold.admitted(i);
      // Feasibility: queue limits and capacities hold for the warm plan.
      EXPECT_LE(warm.admitted(i), demand[i] + 1e-6);
      EXPECT_LE(warm.server_load(i), g.capacity(i) + 1e-6);
    }
    EXPECT_NEAR(warm_total, cold_total, 1e-9 * (1.0 + cold_total));
  }
  EXPECT_GT(warm_sched.solver_stats().warm_solves, 0u);
}

/// Provider/customer star graph: the income scheduler allocates one
/// provider's servers among customers with SLA shares, so only the provider
/// carries capacity (a ring would make the mandatory floors infeasible).
core::AgreementGraph star_graph() {
  core::AgreementGraph g;
  const auto s = g.add_principal("S", 300.0);
  const auto a = g.add_principal("A", 0.0);
  const auto b = g.add_principal("B", 0.0);
  const auto c = g.add_principal("C", 0.0);
  g.set_agreement(s, a, 0.2, 0.6);
  g.set_agreement(s, b, 0.3, 0.7);
  g.set_agreement(s, c, 0.1, 0.5);
  return g;
}

TEST(SchedulerWarmStart, IncomePlansMatchColdSchedulers) {
  const auto g = star_graph();
  const auto levels = core::compute_access_levels(g);
  IncomeScheduler warm_sched(g, levels, {0.0, 3.0, 2.0, 1.0});

  Rng rng(77);
  for (int w = 0; w < 60; ++w) {
    std::vector<double> demand(4);
    for (double& d : demand) d = rng.uniform(0.0, 150.0);

    const Plan warm = warm_sched.plan(demand);
    IncomeScheduler cold_sched(g, levels, {0.0, 3.0, 2.0, 1.0});
    const Plan cold = cold_sched.plan(demand);

    ASSERT_FALSE(warm.lp_fallback);
    // Stage 2's income floor is built from stage 1's floating-point
    // objective, so warm/cold rounding differences compound across the two
    // chained solves; 1e-9 holds per-LP (see SolveContext tests) but not
    // end-to-end.
    const double warm_income = warm_sched.income(warm);
    const double cold_income = cold_sched.income(cold);
    EXPECT_NEAR(warm_income, cold_income, 1e-6 * (1.0 + cold_income));
  }
  EXPECT_GT(warm_sched.solver_stats().warm_solves, 0u);
}

TEST(SchedulerWarmStart, IterationLimitFallsBackToPreviousPlan) {
  const auto g = ring_graph();
  ResponseTimeScheduler sched(g, core::compute_access_levels(g));
  const std::vector<double> demand = {50.0, 40.0, 30.0, 20.0};

  const Plan good = sched.plan(demand);
  ASSERT_FALSE(good.lp_fallback);

  lp::SolverOptions strangled;
  strangled.max_iterations = 0;
  sched.set_solver_options(strangled);
  const std::vector<double> new_demand = {60.0, 10.0, 80.0, 5.0};
  const Plan stale = sched.plan(new_demand);
  EXPECT_TRUE(stale.lp_fallback);
  // The stale plan reuses the previous window's allocation against the
  // current demand estimate.
  EXPECT_EQ(stale.demand, new_demand);
  for (std::size_t i = 0; i < 4; ++i)
    for (std::size_t k = 0; k < 4; ++k)
      EXPECT_EQ(stale.rate(i, k), good.rate(i, k));

  // Recovery: restoring the budget produces fresh plans again.
  sched.set_solver_options(lp::SolverOptions{});
  EXPECT_FALSE(sched.plan(new_demand).lp_fallback);
}

TEST(SchedulerWarmStart, FallbackBeforeAnySuccessfulPlanIsEmpty) {
  const auto g = ring_graph();
  ResponseTimeScheduler sched(g, core::compute_access_levels(g));
  lp::SolverOptions strangled;
  strangled.max_iterations = 0;
  sched.set_solver_options(strangled);
  const Plan p = sched.plan({10.0, 10.0, 10.0, 10.0});
  EXPECT_TRUE(p.lp_fallback);
  EXPECT_EQ(p.theta, 0.0);
  for (std::size_t i = 0; i < 4; ++i) EXPECT_EQ(p.admitted(i), 0.0);
}

TEST(SchedulerWarmStart, WindowSchedulerCountsPlanFallbacks) {
  const auto g = ring_graph();
  ResponseTimeScheduler sched(g, core::compute_access_levels(g));
  WindowScheduler window(&sched, 100 * kMillisecond, 1);

  GlobalDemand global;
  global.demand = {50.0, 40.0, 30.0, 20.0};
  global.valid = true;
  window.begin_window(global.demand, global);
  EXPECT_EQ(window.plan_fallbacks(), 0u);

  lp::SolverOptions strangled;
  strangled.max_iterations = 0;
  sched.set_solver_options(strangled);
  window.begin_window(global.demand, global);
  EXPECT_EQ(window.plan_fallbacks(), 1u);
  EXPECT_TRUE(window.last_plan().lp_fallback);
}

}  // namespace
}  // namespace sharegrid::sched
