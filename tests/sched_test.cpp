// Unit tests for the LP schedulers and the end-point baseline.
#include <gtest/gtest.h>

#include <cmath>

#include "core/agreement_graph.hpp"
#include "core/flow.hpp"
#include "sched/endpoint_enforcer.hpp"
#include "sched/income_scheduler.hpp"
#include "sched/response_time_scheduler.hpp"
#include "util/rng.hpp"

namespace sharegrid::sched {
namespace {

/// Provider S with capacity `v` and agreements [lb_a,ub_a] / [lb_b,ub_b].
core::AgreementGraph two_customer_graph(double v, double lb_a, double ub_a,
                                        double lb_b, double ub_b) {
  core::AgreementGraph g;
  const auto s = g.add_principal("S", v);
  const auto a = g.add_principal("A", 0.0);
  const auto b = g.add_principal("B", 0.0);
  g.set_agreement(s, a, lb_a, ub_a);
  g.set_agreement(s, b, lb_b, ub_b);
  return g;
}

ResponseTimeScheduler make_rts(const core::AgreementGraph& g,
                               ResponseTimeOptions opt = {}) {
  return ResponseTimeScheduler(g, core::compute_access_levels(g),
                               std::move(opt));
}

// --- ResponseTimeScheduler -------------------------------------------------

TEST(ResponseTimeScheduler, Figure1CoordinatedAllocation) {
  // Global demand (A:40, B:80) against 100 req/s with shares 20%/80%
  // must yield exactly (20, 80) — the coordinated half of Figure 1.
  const auto g = two_customer_graph(100.0, 0.2, 1.0, 0.8, 1.0);
  const Plan plan = make_rts(g).plan({0.0, 40.0, 80.0});
  EXPECT_NEAR(plan.admitted(1), 20.0, 1e-6);
  EXPECT_NEAR(plan.admitted(2), 80.0, 1e-6);
}

TEST(ResponseTimeScheduler, MandatoryFloorProtectsLightPrincipal) {
  // Figure 6 arithmetic: B's one-client demand (135) is under its 256
  // mandatory, so B is fully served and A takes the remainder.
  const auto g = two_customer_graph(320.0, 0.2, 1.0, 0.8, 1.0);
  const Plan plan = make_rts(g).plan({0.0, 270.0, 135.0});
  EXPECT_NEAR(plan.admitted(2), 135.0, 1e-6);
  EXPECT_NEAR(plan.admitted(1), 185.0, 1e-6);
}

TEST(ResponseTimeScheduler, OptionalSplitsProportionallyToDemand) {
  // Figure 7 arithmetic: equal agreements, A demands twice B => A is served
  // at twice B's rate.
  const auto g = two_customer_graph(250.0, 0.2, 1.0, 0.2, 1.0);
  const Plan plan = make_rts(g).plan({0.0, 270.0, 135.0});
  EXPECT_NEAR(plan.admitted(1), 2.0 * plan.admitted(2), 1e-6);
  EXPECT_NEAR(plan.admitted(1) + plan.admitted(2), 250.0, 1e-6);
}

TEST(ResponseTimeScheduler, CommunityOverflowUsesPartnerServer) {
  // Figure 9 arithmetic, phase 3: A's own 320 plus B's ceded half; work
  // conservation hands B the slack A's one client leaves.
  core::AgreementGraph g;
  const auto a = g.add_principal("A", 320.0);
  const auto b = g.add_principal("B", 320.0);
  g.set_agreement(b, a, 0.5, 0.5);
  const Plan plan = make_rts(g).plan({400.0, 400.0});
  EXPECT_NEAR(plan.admitted(a), 400.0, 1e-6);
  EXPECT_NEAR(plan.admitted(b), 240.0, 1e-6);
  // B's requests can only run on B's server.
  EXPECT_NEAR(plan.rate(b, a), 0.0, 1e-9);
}

TEST(ResponseTimeScheduler, ZeroDemandYieldsEmptyPlan) {
  const auto g = two_customer_graph(320.0, 0.2, 1.0, 0.8, 1.0);
  const Plan plan = make_rts(g).plan({0.0, 0.0, 0.0});
  for (std::size_t i = 0; i < 3; ++i) EXPECT_NEAR(plan.admitted(i), 0.0, 1e-9);
}

TEST(ResponseTimeScheduler, UnderloadServesEverything) {
  const auto g = two_customer_graph(320.0, 0.2, 1.0, 0.8, 1.0);
  const Plan plan = make_rts(g).plan({0.0, 50.0, 60.0});
  EXPECT_NEAR(plan.admitted(1), 50.0, 1e-6);
  EXPECT_NEAR(plan.admitted(2), 60.0, 1e-6);
  EXPECT_NEAR(plan.theta, 1.0, 1e-6);
}

TEST(ResponseTimeScheduler, ServerCapacityNeverExceeded) {
  const auto g = two_customer_graph(320.0, 0.2, 1.0, 0.8, 1.0);
  const Plan plan = make_rts(g).plan({0.0, 1000.0, 1000.0});
  for (std::size_t k = 0; k < 3; ++k)
    EXPECT_LE(plan.server_load(k), g.capacity(k) + 1e-6);
}

TEST(ResponseTimeScheduler, UpperBoundsRespected) {
  // B's agreement caps at 0.5 even with the server otherwise idle.
  const auto g = two_customer_graph(100.0, 0.1, 0.2, 0.1, 0.5);
  const Plan plan = make_rts(g).plan({0.0, 1000.0, 1000.0});
  EXPECT_LE(plan.admitted(1), 20.0 + 1e-6);
  EXPECT_LE(plan.admitted(2), 50.0 + 1e-6);
}

TEST(ResponseTimeScheduler, LocalityCapsLimitPerServerPush) {
  core::AgreementGraph g;
  const auto a = g.add_principal("A", 100.0);
  const auto b = g.add_principal("B", 100.0);
  g.set_agreement(b, a, 0.5, 0.5);
  ResponseTimeOptions opt;
  opt.locality_caps = {100.0, 30.0};  // only 30 req/s may go to B's server
  const Plan plan = ResponseTimeScheduler(g, core::compute_access_levels(g),
                                          opt)
                        .plan({200.0, 0.0});
  EXPECT_LE(plan.server_load(b), 30.0 + 1e-6);
  EXPECT_NEAR(plan.admitted(a), 130.0, 1e-6);
}

TEST(ResponseTimeScheduler, RejectsWrongDemandSize) {
  const auto g = two_customer_graph(320.0, 0.2, 1.0, 0.8, 1.0);
  EXPECT_THROW(make_rts(g).plan({1.0, 2.0}), ContractViolation);
  EXPECT_THROW(make_rts(g).plan({1.0, 2.0, -3.0}), ContractViolation);
}

// Property sweep: random demands against a fixed provider graph must always
// respect capacity, entitlement ceilings, and the mandatory floor.
class ResponseTimePropertyTest
    : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(ResponseTimePropertyTest, PlansAreAlwaysAgreementCompliant) {
  Rng rng(GetParam());
  core::AgreementGraph g;
  const std::size_t n = 3 + rng.bounded(3);
  for (std::size_t i = 0; i < n; ++i)
    g.add_principal("P" + std::to_string(i), rng.uniform(50.0, 500.0));
  for (core::PrincipalId i = 0; i < n; ++i) {
    double budget = 1.0;
    for (core::PrincipalId j = 0; j < n; ++j) {
      if (i == j || !rng.chance(0.4)) continue;
      const double lb = rng.uniform(0.0, budget * 0.5);
      g.set_agreement(i, j, lb, rng.uniform(lb, 1.0));
      budget -= lb;
    }
  }
  const core::AccessLevels levels = core::compute_access_levels(g);
  const ResponseTimeScheduler scheduler(g, levels);

  for (int round = 0; round < 5; ++round) {
    std::vector<double> demand(n);
    for (auto& d : demand) d = rng.uniform(0.0, 800.0);
    const Plan plan = scheduler.plan(demand);

    for (core::PrincipalId i = 0; i < n; ++i) {
      // Admitted never exceeds demand.
      EXPECT_LE(plan.admitted(i), demand[i] + 1e-6);
      // Mandatory floor: every principal gets min(MC, demand).
      EXPECT_GE(plan.admitted(i),
                std::min(levels.mandatory_capacity[i], demand[i]) - 1e-5);
      for (core::PrincipalId k = 0; k < n; ++k) {
        // Per-pair ceiling.
        EXPECT_LE(plan.rate(i, k), levels.mandatory_entitlement(i, k) +
                                       levels.optional_entitlement(i, k) +
                                       1e-6);
        EXPECT_GE(plan.rate(i, k), -1e-9);
      }
    }
    for (core::PrincipalId k = 0; k < n; ++k)
      EXPECT_LE(plan.server_load(k), g.capacity(k) + 1e-6);
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, ResponseTimePropertyTest,
                         ::testing::Range<std::uint64_t>(1, 25));

// --- IncomeScheduler -------------------------------------------------------

TEST(IncomeScheduler, HigherPayingCustomerGetsPreference) {
  // Figure 10 arithmetic, phase 1.
  const auto g = two_customer_graph(640.0, 0.8, 1.0, 0.2, 1.0);
  const IncomeScheduler scheduler(g, core::compute_access_levels(g),
                                  {0.0, 2.0, 1.0});
  const Plan plan = scheduler.plan({0.0, 800.0, 400.0});
  EXPECT_NEAR(plan.admitted(1), 512.0, 1e-6);
  EXPECT_NEAR(plan.admitted(2), 128.0, 1e-6);
}

TEST(IncomeScheduler, MandatoryLevelIsHonouredEvenForCheapCustomer) {
  const auto g = two_customer_graph(640.0, 0.8, 1.0, 0.2, 1.0);
  const IncomeScheduler scheduler(g, core::compute_access_levels(g),
                                  {0.0, 100.0, 0.01});
  const Plan plan = scheduler.plan({0.0, 10000.0, 10000.0});
  EXPECT_NEAR(plan.admitted(2), 128.0, 1e-6);  // never below mandatory
}

TEST(IncomeScheduler, IdleExpensiveCustomerFreesCapacity) {
  // Figure 10 phase 2: A idle, B takes everything its upper bound allows.
  const auto g = two_customer_graph(640.0, 0.8, 1.0, 0.2, 1.0);
  const IncomeScheduler scheduler(g, core::compute_access_levels(g),
                                  {0.0, 2.0, 1.0});
  const Plan plan = scheduler.plan({0.0, 0.0, 400.0});
  EXPECT_NEAR(plan.admitted(1), 0.0, 1e-9);
  EXPECT_NEAR(plan.admitted(2), 400.0, 1e-6);
}

TEST(IncomeScheduler, UpperBoundCapsGreedyCustomer) {
  const auto g = two_customer_graph(640.0, 0.1, 0.3, 0.1, 0.3);
  const IncomeScheduler scheduler(g, core::compute_access_levels(g),
                                  {0.0, 5.0, 1.0});
  const Plan plan = scheduler.plan({0.0, 10000.0, 0.0});
  EXPECT_NEAR(plan.admitted(1), 0.3 * 640.0, 1e-6);
}

TEST(IncomeScheduler, WorkConservationServesFreeTraffic) {
  // The provider itself (price 0) has demand; with the paying customers
  // idle, stage 2 lets the free traffic use the capacity.
  const auto g = two_customer_graph(640.0, 0.5, 0.8, 0.2, 0.4);
  const IncomeScheduler scheduler(g, core::compute_access_levels(g),
                                  {0.0, 2.0, 1.0});
  const Plan plan = scheduler.plan({300.0, 0.0, 0.0});
  EXPECT_NEAR(plan.admitted(0), 300.0, 1e-6);

  // Work conservation never costs income: with everyone loaded, every
  // mandatory floor binds first (S retains 192 = 30% of 640, B holds 128)
  // and A buys all the remaining capacity.
  const Plan loaded = scheduler.plan({1000.0, 1000.0, 1000.0});
  EXPECT_NEAR(loaded.admitted(0), 192.0, 1e-4);
  EXPECT_NEAR(loaded.admitted(1), 320.0, 1e-4);
  EXPECT_NEAR(loaded.admitted(2), 128.0, 1e-4);
}

TEST(IncomeScheduler, IncomeComputation) {
  const auto g = two_customer_graph(640.0, 0.8, 1.0, 0.2, 1.0);
  const core::AccessLevels levels = core::compute_access_levels(g);
  const IncomeScheduler scheduler(g, levels, {0.0, 2.0, 1.0});
  const Plan plan = scheduler.plan({0.0, 800.0, 400.0});
  // A: (512 - 512) * 2 = 0 extra; B: (128 - 128) * 1 = 0 extra.
  EXPECT_NEAR(scheduler.income(plan), 0.0, 1e-6);
  // With A idle, B's 400 is 272 beyond its 128 mandatory.
  const Plan plan2 = scheduler.plan({0.0, 0.0, 400.0});
  EXPECT_NEAR(scheduler.income(plan2), 272.0, 1e-6);
}

TEST(IncomeScheduler, IncomeAtLeastMatchesGreedyBaseline) {
  // Property: LP income >= a simple greedy fill by descending price.
  Rng rng(99);
  for (int trial = 0; trial < 20; ++trial) {
    core::AgreementGraph g;
    g.add_principal("S", 500.0);
    const std::size_t customers = 2 + rng.bounded(4);
    std::vector<double> prices{0.0};
    double budget = 1.0;
    for (std::size_t i = 1; i <= customers; ++i) {
      g.add_principal("C" + std::to_string(i), 0.0);
      const double lb = rng.uniform(0.0, budget * 0.4);
      g.set_agreement(0, i, lb, rng.uniform(lb, 1.0));
      budget -= lb;
      prices.push_back(rng.uniform(0.1, 3.0));
    }
    const core::AccessLevels levels = core::compute_access_levels(g);
    const IncomeScheduler scheduler(g, levels, prices);

    std::vector<double> demand(customers + 1, 0.0);
    for (std::size_t i = 1; i <= customers; ++i)
      demand[i] = rng.uniform(0.0, 400.0);
    const Plan plan = scheduler.plan(demand);

    // Greedy baseline: grant mandatory to all, then fill by price.
    std::vector<double> x(customers + 1, 0.0);
    double used = 0.0;
    for (std::size_t i = 1; i <= customers; ++i) {
      x[i] = std::min(levels.mandatory_capacity[i], demand[i]);
      used += x[i];
    }
    std::vector<std::size_t> order;
    for (std::size_t i = 1; i <= customers; ++i) order.push_back(i);
    std::sort(order.begin(), order.end(),
              [&](std::size_t a, std::size_t b) { return prices[a] > prices[b]; });
    for (std::size_t i : order) {
      const double cap = std::min(
          demand[i], levels.mandatory_capacity[i] + levels.optional_capacity[i]);
      const double extra = std::min(cap - x[i], 500.0 - used);
      if (extra > 0) {
        x[i] += extra;
        used += extra;
      }
    }
    double greedy_income = 0.0;
    for (std::size_t i = 1; i <= customers; ++i)
      greedy_income +=
          prices[i] * std::max(0.0, x[i] - levels.mandatory_capacity[i]);
    // Slack covers the work-conserving stage's epsilon on the income bound.
    EXPECT_GE(scheduler.income(plan),
              greedy_income - 1e-4 * (1.0 + greedy_income));
  }
}

/// Two providers, three customers, asymmetric agreements.
core::AgreementGraph two_provider_graph() {
  core::AgreementGraph graph;
  const auto s1 = graph.add_principal("S1", 300.0);
  const auto s2 = graph.add_principal("S2", 500.0);
  const auto a = graph.add_principal("A", 0.0);
  const auto b = graph.add_principal("B", 0.0);
  const auto c = graph.add_principal("C", 0.0);
  graph.set_agreement(s1, a, 0.3, 0.6);
  graph.set_agreement(s1, b, 0.2, 0.7);
  graph.set_agreement(s2, b, 0.4, 0.8);
  graph.set_agreement(s2, c, 0.3, 0.5);
  return graph;
}

TEST(IncomeScheduler, PlansRespectEntitlementColumns) {
  // Asymmetric prices too. No provider may admit beyond its own capacity,
  // and plans only fill provider columns.
  const core::AgreementGraph graph = two_provider_graph();
  const IncomeScheduler scheduler(graph, core::compute_access_levels(graph),
                                  {0.0, 0.0, 2.0, 1.0, 3.0});
  const Plan plan = scheduler.plan({0.0, 0.0, 500.0, 500.0, 500.0});
  EXPECT_LE(plan.server_load(0), graph.capacity(0) + 1e-7);
  EXPECT_LE(plan.server_load(1), graph.capacity(1) + 1e-7);
  for (std::size_t i = 0; i < plan.rate.rows(); ++i)
    for (std::size_t k = 2; k < plan.rate.cols(); ++k)
      EXPECT_EQ(plan.rate(i, k), 0.0);
  // With saturated paying demand both pools should fill completely.
  EXPECT_NEAR(plan.server_load(0) + plan.server_load(1),
              graph.capacity(0) + graph.capacity(1), 1e-6);
}

TEST(IncomeScheduler, CustomerOwnedServerLeavesTheProviderProgramFeasible) {
  // Customer A owns a server beside provider S's. A's access level
  // MC_A = 150 counts that server, so a floor of min(MC_A, 60) on S's pool
  // plus S's own 50 would exceed S's 100 and leave stage 1 infeasible. A's
  // bounds at S are its entitlement column there, EM + EO = 50.
  core::AgreementGraph g;
  const auto s = g.add_principal("S", 100.0);
  const auto a = g.add_principal("A", 100.0);
  g.set_agreement(s, a, 0.5, 0.5);
  const core::AccessLevels levels = core::compute_access_levels(g);
  const IncomeScheduler scheduler(g, levels, {0.0, 1.0});
  Plan plan;
  ASSERT_NO_THROW(plan = scheduler.plan({50.0, 60.0}));
  EXPECT_FALSE(plan.lp_fallback);
  const double a_at_s = levels.mandatory_entitlement(a, s) +
                        levels.optional_entitlement(a, s);
  EXPECT_NEAR(a_at_s, 50.0, 1e-9);
  EXPECT_LE(plan.rate(a, s), a_at_s + 1e-9);
  EXPECT_LE(plan.server_load(s), g.capacity(s) + 1e-9);
}

TEST(IncomeScheduler, PlansEveryServerOwnersPool) {
  // A customer that owns a server is a provider too: A's 300 req/s fill
  // its 50 at S (EM + EO there) and all of its own 100, MC_A = 150.
  core::AgreementGraph g;
  const auto s = g.add_principal("S", 100.0);
  const auto a = g.add_principal("A", 100.0);
  g.set_agreement(s, a, 0.5, 0.5);
  const IncomeScheduler scheduler(g, core::compute_access_levels(g),
                                  {0.0, 1.0});
  const Plan plan = scheduler.plan({0.0, 300.0});
  EXPECT_FALSE(plan.lp_fallback);
  EXPECT_NEAR(plan.rate(a, s), 50.0, 1e-6);
  EXPECT_NEAR(plan.rate(a, a), 100.0, 1e-6);
}

TEST(IncomeScheduler, NoOptimumKeepsEachProvidersLastGoodColumn) {
  const core::AgreementGraph graph = two_provider_graph();
  IncomeScheduler scheduler(graph, core::compute_access_levels(graph),
                            {0.0, 0.0, 2.0, 1.0, 3.0});
  const Plan good = scheduler.plan({0.0, 0.0, 500.0, 500.0, 500.0});
  ASSERT_FALSE(good.lp_fallback);

  lp::SolverOptions strangled;
  strangled.max_iterations = 0;
  scheduler.set_solver_options(strangled);
  const std::vector<double> new_demand = {0.0, 0.0, 100.0, 50.0, 300.0};
  const Plan stale = scheduler.plan(new_demand);
  EXPECT_TRUE(stale.lp_fallback);
  EXPECT_EQ(stale.demand, new_demand);
  for (std::size_t i = 0; i < good.rate.rows(); ++i)
    for (std::size_t k = 0; k < good.rate.cols(); ++k)
      EXPECT_EQ(stale.rate(i, k), good.rate(i, k));

  // Recovery: restoring the budget produces fresh plans again.
  scheduler.set_solver_options(lp::SolverOptions{});
  EXPECT_FALSE(scheduler.plan(new_demand).lp_fallback);
}

// --- EndpointEnforcer -------------------------------------------------------

TEST(EndpointEnforcer, Figure1ServerAllocations) {
  const EndpointEnforcer s1(50.0, {0.2, 0.8});
  const auto a1 = s1.allocate({20.0, 30.0});
  EXPECT_NEAR(a1[0], 20.0, 1e-9);  // under capacity: everyone served
  EXPECT_NEAR(a1[1], 30.0, 1e-9);

  const auto a2 = s1.allocate({20.0, 50.0});  // the overloaded S2 case
  EXPECT_NEAR(a2[0], 10.0, 1e-9);
  EXPECT_NEAR(a2[1], 40.0, 1e-9);
}

TEST(EndpointEnforcer, RedistributesUnusedShare) {
  const EndpointEnforcer e(100.0, {0.5, 0.5});
  const auto a = e.allocate({10.0, 500.0});
  EXPECT_NEAR(a[0], 10.0, 1e-9);
  EXPECT_NEAR(a[1], 90.0, 1e-9);  // B absorbs A's unused half
}

TEST(EndpointEnforcer, NeverExceedsCapacityOrDemand) {
  Rng rng(5);
  const EndpointEnforcer e(100.0, {0.1, 0.2, 0.3, 0.4});
  for (int trial = 0; trial < 50; ++trial) {
    std::vector<double> demand(4);
    for (auto& d : demand) d = rng.uniform(0.0, 200.0);
    const auto alloc = e.allocate(demand);
    double total = 0.0;
    for (std::size_t i = 0; i < 4; ++i) {
      EXPECT_LE(alloc[i], demand[i] + 1e-9);
      EXPECT_GE(alloc[i], -1e-9);
      total += alloc[i];
    }
    EXPECT_LE(total, 100.0 + 1e-6);
  }
}

TEST(EndpointEnforcer, GuaranteesShareUnderOverload) {
  const EndpointEnforcer e(100.0, {0.25, 0.75});
  const auto a = e.allocate({1000.0, 1000.0});
  EXPECT_NEAR(a[0], 25.0, 1e-9);
  EXPECT_NEAR(a[1], 75.0, 1e-9);
}

TEST(EndpointEnforcer, RejectsBadShares) {
  EXPECT_THROW(EndpointEnforcer(100.0, {0.6, 0.6}), ContractViolation);
  EXPECT_THROW(EndpointEnforcer(0.0, {0.5}), ContractViolation);
  EXPECT_THROW(EndpointEnforcer(10.0, {-0.1}), ContractViolation);
}

}  // namespace
}  // namespace sharegrid::sched
