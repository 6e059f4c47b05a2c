// Unit tests for the per-redirector window driver: quota accounting,
// borrowing on fractional slices, demand estimation, and the conservative
// no-snapshot policy.
#include <gtest/gtest.h>

#include "core/agreement_graph.hpp"
#include "core/flow.hpp"
#include "sched/response_time_scheduler.hpp"
#include "sched/window_scheduler.hpp"

namespace sharegrid::sched {
namespace {

/// Minimal deterministic scheduler: grants each principal a fixed rate on
/// its own server, capped by demand.
class FixedRateScheduler final : public Scheduler {
 public:
  explicit FixedRateScheduler(std::vector<double> rates)
      : rates_(std::move(rates)) {}

  Plan plan(const std::vector<double>& demand) const override {
    Plan p;
    p.demand = demand;
    p.rate = Matrix(rates_.size(), rates_.size(), 0.0);
    for (std::size_t i = 0; i < rates_.size(); ++i)
      p.rate(i, i) = std::min(rates_[i], demand[i]);
    return p;
  }
  std::size_t size() const override { return rates_.size(); }

 private:
  std::vector<double> rates_;
};

TEST(ArrivalEstimator, FirstObservationPrimes) {
  ArrivalEstimator est(0.3);
  est.observe(20.0, 100 * kMillisecond);
  EXPECT_NEAR(est.rate(), 200.0, 1e-9);
}

TEST(ArrivalEstimator, ConvergesToSteadyRate) {
  ArrivalEstimator est(0.3);
  for (int i = 0; i < 100; ++i) est.observe(15.0, 100 * kMillisecond);
  EXPECT_NEAR(est.rate(), 150.0, 1e-6);
}

TEST(ArrivalEstimator, TracksRateChanges) {
  ArrivalEstimator est(0.5);
  for (int i = 0; i < 50; ++i) est.observe(10.0, 100 * kMillisecond);
  for (int i = 0; i < 50; ++i) est.observe(40.0, 100 * kMillisecond);
  EXPECT_NEAR(est.rate(), 400.0, 1.0);
}

TEST(WindowScheduler, GrantsPlanRateOverWindows) {
  FixedRateScheduler fixed({100.0, 50.0});
  WindowScheduler ws(&fixed, 100 * kMillisecond, 1);
  GlobalDemand global{{100.0, 50.0}, true};

  std::uint64_t admitted = 0;
  for (int w = 0; w < 10; ++w) {
    ws.begin_window({100.0, 50.0}, global);
    while (ws.try_admit(0)) ++admitted;
  }
  EXPECT_NEAR(static_cast<double>(admitted), 100.0, 2.0);  // 100/s for 1 s
}

TEST(WindowScheduler, AdmitReturnsOwningServer) {
  FixedRateScheduler fixed({100.0, 50.0});
  WindowScheduler ws(&fixed, 100 * kMillisecond, 1);
  ws.begin_window({100.0, 50.0}, {{100.0, 50.0}, true});
  const auto server = ws.try_admit(1);
  ASSERT_TRUE(server.has_value());
  EXPECT_EQ(*server, 1u);  // FixedRateScheduler maps i -> server i
}

TEST(WindowScheduler, LargeWeightBorrowsFromFutureWindows) {
  // 15 req/s over 100 ms windows: a slice of 1.5 requests per window.
  FixedRateScheduler fixed({15.0});
  WindowScheduler ws(&fixed, 100 * kMillisecond, 1);
  GlobalDemand global{{15.0}, true};

  ws.begin_window({15.0}, global);
  // The second request is admitted on the 0.5 left (quota is positive) and
  // drives the balance negative...
  EXPECT_TRUE(ws.try_admit(0).has_value());
  EXPECT_TRUE(ws.try_admit(0).has_value());
  EXPECT_FALSE(ws.try_admit(0).has_value());
  EXPECT_NEAR(ws.remaining_quota(0), -0.5, 1e-9);
  // ...which the next window repays: one request instead of two.
  ws.begin_window({15.0}, global);
  EXPECT_NEAR(ws.remaining_quota(0), 1.0, 1e-9);
  EXPECT_TRUE(ws.try_admit(0).has_value());
  EXPECT_FALSE(ws.try_admit(0).has_value());
  // Debt repaid: the whole slice is back.
  ws.begin_window({15.0}, global);
  EXPECT_NEAR(ws.remaining_quota(0), 1.5, 1e-9);
}

TEST(WindowScheduler, UnusedQuotaDoesNotAccumulate) {
  FixedRateScheduler fixed({100.0});
  WindowScheduler ws(&fixed, 100 * kMillisecond, 1);
  GlobalDemand global{{100.0}, true};

  // Five idle windows must not bank 50 requests of burst budget.
  for (int w = 0; w < 5; ++w) ws.begin_window({100.0}, global);
  std::uint64_t burst = 0;
  while (ws.try_admit(0)) ++burst;
  EXPECT_LE(burst, 11u);
}

TEST(WindowScheduler, ProportionalShareOfGlobalQueue) {
  // This redirector holds 25% of the global queue, so it may admit 25% of
  // the planned rate (the paper's x_local/n_local = x/n rule, §3.2).
  FixedRateScheduler fixed({100.0});
  WindowScheduler ws(&fixed, 100 * kMillisecond, 2);
  GlobalDemand global{{100.0}, true};

  std::uint64_t admitted = 0;
  for (int w = 0; w < 10; ++w) {
    ws.begin_window({25.0}, global);
    while (ws.try_admit(0)) ++admitted;
  }
  EXPECT_NEAR(static_cast<double>(admitted), 25.0, 2.0);
}

TEST(WindowScheduler, LocalDemandOverridesStaleSnapshot) {
  // The snapshot says nobody is queued anywhere, but locally we see 50/s;
  // the estimate must not hide demand the redirector can observe directly.
  FixedRateScheduler fixed({100.0});
  WindowScheduler ws(&fixed, 100 * kMillisecond, 2);
  GlobalDemand stale{{0.0}, true};

  ws.begin_window({50.0}, stale);
  EXPECT_GT(ws.remaining_quota(0), 0.0);
}

TEST(WindowScheduler, ConservativeModeUsesMandatoryOverRedirectors) {
  // Without any snapshot, a real scheduler pins everyone to mandatory and
  // the driver takes a 1/R slice (Figure 8 phase 1: half of B's 64 = 32).
  core::AgreementGraph g;
  const auto s = g.add_principal("S", 320.0);
  const auto a = g.add_principal("A", 0.0);
  const auto b = g.add_principal("B", 0.0);
  g.set_agreement(s, a, 0.8, 1.0);
  g.set_agreement(s, b, 0.2, 1.0);
  const ResponseTimeScheduler rts(g, core::compute_access_levels(g));

  WindowScheduler ws(&rts, 100 * kMillisecond, 2);
  GlobalDemand none;  // valid = false

  std::uint64_t admitted_b = 0;
  for (int w = 0; w < 10; ++w) {
    ws.begin_window({0.0, 0.0, 135.0}, none);
    while (ws.try_admit(b)) ++admitted_b;
  }
  // Half of B's 64 req/s mandatory over one second = 32.
  EXPECT_NEAR(static_cast<double>(admitted_b), 32.0, 2.0);
  (void)a;
}

TEST(WindowScheduler, ReplanOpensQuotaOnDemandSpike) {
  FixedRateScheduler fixed({100.0});
  WindowScheduler ws(&fixed, 100 * kMillisecond, 1);
  // The window was planned against zero demand: nothing is admitted.
  ws.begin_window({0.0}, {{0.0}, true});
  EXPECT_FALSE(ws.try_admit(0).has_value());
  // Mid-window the estimate jumps: replan grants the corresponding slice.
  ws.replan({100.0}, {{100.0}, true});
  EXPECT_TRUE(ws.try_admit(0).has_value());
}

TEST(WindowScheduler, ReplanCannotRegrantConsumedQuota) {
  FixedRateScheduler fixed({100.0});
  WindowScheduler ws(&fixed, 100 * kMillisecond, 1);
  GlobalDemand global{{100.0}, true};
  ws.begin_window({100.0}, global);
  std::uint64_t admitted = 0;
  while (ws.try_admit(0)) ++admitted;
  EXPECT_EQ(admitted, 10u);
  // Replanning with the same demand must NOT refresh the spent quota.
  ws.replan({100.0}, global);
  EXPECT_FALSE(ws.try_admit(0).has_value());
  // Even many replans in a row stay dry.
  for (int i = 0; i < 5; ++i) ws.replan({100.0}, global);
  EXPECT_FALSE(ws.try_admit(0).has_value());
}

TEST(WindowScheduler, ReplanPreservesBorrowDebt) {
  FixedRateScheduler fixed({15.0});  // a 1.5-request slice per window
  WindowScheduler ws(&fixed, 100 * kMillisecond, 1);
  GlobalDemand global{{15.0}, true};
  ws.begin_window({15.0}, global);
  EXPECT_TRUE(ws.try_admit(0).has_value());
  EXPECT_TRUE(ws.try_admit(0).has_value());  // overdraws to -0.5
  ws.begin_window({15.0}, global);           // debt -0.5 + slice 1.5
  ws.replan({15.0}, global);
  EXPECT_NEAR(ws.remaining_quota(0), 1.0, 1e-9);
  EXPECT_TRUE(ws.try_admit(0).has_value());
  EXPECT_FALSE(ws.try_admit(0).has_value());  // the debt is still repaid
}

TEST(WindowScheduler, RejectsMalformedInput) {
  FixedRateScheduler fixed({100.0});
  WindowScheduler ws(&fixed, 100 * kMillisecond, 1);
  EXPECT_THROW(ws.begin_window({1.0, 2.0}, {}), ContractViolation);
  ws.begin_window({100.0}, {{100.0}, true});
  EXPECT_THROW(ws.try_admit(5), ContractViolation);
}

}  // namespace
}  // namespace sharegrid::sched
