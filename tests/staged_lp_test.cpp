// StagedLp: the one rule for a window whose solve ends without an optimum,
// checked for each verdict the solver returns instead of one, at each stage.
#include "sched/staged_lp.hpp"

#include <gtest/gtest.h>

#include <vector>

#include "lp/problem.hpp"

namespace sharegrid::sched {
namespace {

using lp::Problem;
using lp::Relation;

enum class Verdict { kOptimal, kInfeasible, kUnbounded, kIterationLimit };

/// The test program: x0 in [lo, 4] and x1 >= 0 under x0 + x1 <= cap. Its
/// spoiled forms have no optimum: a second row x0 + x1 >= cap + 1 makes it
/// infeasible, and taking away x0's ceiling and row makes it unbounded.
/// (The iteration-limit verdict comes from the solver options instead.)
Problem program(double lo, double cap, Verdict verdict) {
  Problem p(2);
  if (verdict == Verdict::kUnbounded) {
    p.set_bounds(0, lo, lp::kInfinity);
    p.add_constraint({{1, 1.0}}, Relation::kLessEq, cap);
    return p;
  }
  p.set_bounds(0, lo, 4.0);
  p.add_constraint({{0, 1.0}, {1, 1.0}}, Relation::kLessEq, cap);
  if (verdict == Verdict::kInfeasible)
    p.add_constraint({{0, 1.0}, {1, 1.0}}, Relation::kGreaterEq, cap + 1.0);
  return p;
}

/// Nothing admitted, theta 0.
Plan empty_plan() {
  Plan empty;
  empty.rate = Matrix(1, 2, 0.0);
  empty.theta = 0.0;
  return empty;
}

/// Plans one window with demand {cap}: stage 1 maximizes x0, stage 2 holds
/// x0 at its stage-1 value and maximizes x0 + x1, and the plan's rates are
/// the kept values, its theta stage 1's x0. Stage @p spoiled (1 or 2; 0 for
/// neither) reaches @p verdict; an iteration limit is forced by allowing no
/// pivots while that stage's program is built, which is just before it
/// solves. @p stage1_values receives stage 1's solution when it had one.
Plan window(StagedLp& lp, double cap, int spoiled, Verdict verdict,
            std::vector<double>* stage1_values = nullptr) {
  auto verdict_at = [&](int stage) {
    return stage == spoiled ? verdict : Verdict::kOptimal;
  };
  auto set_budget = [&](int stage) {
    lp::SolverOptions options;
    if (verdict_at(stage) == Verdict::kIterationLimit)
      options.max_iterations = 0;
    lp.set_options(options);
  };
  return lp.solve(
      {cap},
      [&](std::size_t) {
        set_budget(1);
        Problem p1 = program(0.0, cap, verdict_at(1));
        p1.set_objective(0, 1.0);
        return p1;
      },
      [&](std::size_t, const lp::Solution& s1) {
        if (stage1_values != nullptr) *stage1_values = s1.values;
        set_budget(2);
        Problem p2 = program(s1.values[0], cap, verdict_at(2));
        p2.set_objective(0, 1.0);
        p2.set_objective(1, 1.0);
        return p2;
      },
      [](const lp::Solution& s1, const std::vector<double>& values,
         Plan& out) {
        out.theta = s1.values[0];
        out.rate = Matrix(1, 2, 0.0);
        out.rate(0, 0) = values[0];
        out.rate(0, 1) = values[1];
      });
}

void expect_rates(const Plan& plan, double x0, double x1) {
  EXPECT_EQ(plan.rate(0, 0), x0);
  EXPECT_EQ(plan.rate(0, 1), x1);
}

/// Every window of the rule, for one verdict.
void expect_fallbacks(Verdict verdict) {
  StagedLp lp(empty_plan());

  // No stage-1 optimum before any success: the empty plan, flagged.
  const Plan first = window(lp, 10.0, 1, verdict);
  EXPECT_TRUE(first.lp_fallback);
  EXPECT_EQ(first.demand, std::vector<double>{10.0});
  EXPECT_EQ(first.theta, 0.0);
  expect_rates(first, 0.0, 0.0);

  const Plan good = window(lp, 10.0, 0, verdict);
  ASSERT_FALSE(good.lp_fallback);
  EXPECT_NEAR(good.rate(0, 0), 4.0, 1e-9);
  EXPECT_NEAR(good.rate(0, 1), 6.0, 1e-9);

  // No stage-1 optimum after a success: the last good plan against the
  // current demand, flagged.
  const Plan stale = window(lp, 12.0, 1, verdict);
  EXPECT_TRUE(stale.lp_fallback);
  EXPECT_EQ(stale.demand, std::vector<double>{12.0});
  EXPECT_EQ(stale.theta, good.theta);
  expect_rates(stale, good.rate(0, 0), good.rate(0, 1));

  // No stage-2 optimum: stage 1's values, flagged. Stage 1 leaves x1 where
  // stage 2 would have raised it to 8.
  std::vector<double> s1;
  const Plan partial = window(lp, 12.0, 2, verdict, &s1);
  EXPECT_TRUE(partial.lp_fallback);
  ASSERT_EQ(s1.size(), 2u);
  expect_rates(partial, s1[0], s1[1]);
  EXPECT_LT(s1[1], 8.0 - 1e-6);
  EXPECT_EQ(partial.theta, s1[0]);

  // A window that kept stage 1's values is still the last good plan.
  const Plan after = window(lp, 11.0, 1, verdict);
  EXPECT_TRUE(after.lp_fallback);
  expect_rates(after, s1[0], s1[1]);
}

TEST(StagedLp, InfeasibleFallsBackAtEitherStage) {
  expect_fallbacks(Verdict::kInfeasible);
}

TEST(StagedLp, UnboundedFallsBackAtEitherStage) {
  expect_fallbacks(Verdict::kUnbounded);
}

TEST(StagedLp, IterationLimitFallsBackAtEitherStage) {
  expect_fallbacks(Verdict::kIterationLimit);
}

}  // namespace
}  // namespace sharegrid::sched
