// Tests for the related-work baseline scheduler, weighted-fair sharing (§6),
// and the properties that distinguish it from agreement enforcement.
#include <gtest/gtest.h>

#include "core/agreement_graph.hpp"
#include "core/flow.hpp"
#include "sched/response_time_scheduler.hpp"
#include "sched/weighted_fair_scheduler.hpp"

namespace sharegrid::sched {
namespace {

// --- WeightedFairScheduler ----------------------------------------------------

TEST(WeightedFair, SplitsByWeightUnderOverload) {
  WeightedFairScheduler sched(100.0, {1.0, 3.0});
  const Plan plan = sched.plan({500.0, 500.0});
  EXPECT_NEAR(plan.admitted(0), 25.0, 1e-9);
  EXPECT_NEAR(plan.admitted(1), 75.0, 1e-9);
}

TEST(WeightedFair, RedistributesIdleShare) {
  WeightedFairScheduler sched(100.0, {1.0, 1.0});
  const Plan plan = sched.plan({10.0, 500.0});
  EXPECT_NEAR(plan.admitted(0), 10.0, 1e-9);
  EXPECT_NEAR(plan.admitted(1), 90.0, 1e-9);
}

TEST(WeightedFair, HasNoUpperBoundSemantics) {
  // The contract-violating behaviour the paper fixes: alone on the system,
  // a flow takes everything regardless of any [lb, ub] it nominally holds.
  WeightedFairScheduler wfq(320.0, {1.0, 4.0});
  const Plan plan = wfq.plan({1000.0, 0.0});
  EXPECT_NEAR(plan.admitted(0), 320.0, 1e-9);  // > any 20% contract ceiling

  // The LP scheduler with B's [0.1, 0.3] really does cap at 96.
  core::AgreementGraph g;
  g.add_principal("S", 320.0);
  g.add_principal("B", 0.0);
  g.set_agreement(0, 1, 0.1, 0.3);
  const ResponseTimeScheduler lp(g, core::compute_access_levels(g));
  const Plan capped = lp.plan({0.0, 1000.0});
  EXPECT_NEAR(capped.admitted(1), 96.0, 1e-6);
}

TEST(WeightedFair, HasNoMandatoryFloorSemantics) {
  // Under a 10:1 demand skew with equal weights... weighted fair holds the
  // light flow to its share only while the heavy one is unsatisfied, which
  // is proportional, not contractual: with weights matching an 80/20 SLA
  // and demands (heavy on the 20% holder), the 80% holder's floor erodes.
  WeightedFairScheduler wfq(100.0, {0.2, 0.8});
  // The 80%-weight principal only offers 30; the other floods. WFQ gives
  // the flooder 70 — fine — but now flip roles mid-contract: if the 80%
  // holder needs its guarantee back *this window*, WFQ has already handed
  // the capacity out by weight-of-the-active-set, not by agreement.
  const Plan plan = wfq.plan({500.0, 30.0});
  EXPECT_NEAR(plan.admitted(1), 30.0, 1e-9);
  EXPECT_NEAR(plan.admitted(0), 70.0, 1e-9);
}

TEST(WeightedFair, ValidatesInputs) {
  EXPECT_THROW(WeightedFairScheduler(0.0, {1.0}), ContractViolation);
  EXPECT_THROW(WeightedFairScheduler(10.0, {}), ContractViolation);
  EXPECT_THROW(WeightedFairScheduler(10.0, {0.0, 0.0}), ContractViolation);
  EXPECT_THROW(WeightedFairScheduler(10.0, {-1.0, 2.0}), ContractViolation);
  WeightedFairScheduler ok(10.0, {1.0});
  EXPECT_THROW(ok.plan({1.0, 2.0}), ContractViolation);
}

}  // namespace
}  // namespace sharegrid::sched
