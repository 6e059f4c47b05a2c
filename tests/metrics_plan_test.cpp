// Direct unit tests for the Metrics hub and the Plan value type.
#include <gtest/gtest.h>

#include "nodes/metrics.hpp"
#include "sched/plan.hpp"

namespace sharegrid {
namespace {

TEST(Metrics, RecordsPerPrincipalSeries) {
  nodes::Metrics metrics(3);
  EXPECT_EQ(metrics.principal_count(), 3u);

  metrics.on_offered(0, seconds(0.5));
  metrics.on_offered(0, seconds(1.5));
  metrics.on_served(1, seconds(0.2));
  metrics.on_rejected(2, seconds(0.3));
  metrics.on_latency(1, 0.025);
  metrics.on_reply_bytes(1, seconds(0.2), 6144.0);

  EXPECT_EQ(metrics.offered(0).total_events(), 2u);
  EXPECT_EQ(metrics.offered(0).events_in_bin(1), 1u);
  EXPECT_EQ(metrics.served(1).total_events(), 1u);
  EXPECT_EQ(metrics.rejected(2).total_events(), 1u);
  EXPECT_EQ(metrics.latency(1).count(), 1u);
  EXPECT_DOUBLE_EQ(metrics.latency(1).mean(), 0.025);
  EXPECT_EQ(metrics.reply_bytes(1).total_events(), 6144u);

  // Untouched principals stay at zero.
  EXPECT_EQ(metrics.served(0).total_events(), 0u);
  EXPECT_EQ(metrics.latency(2).count(), 0u);
}

TEST(Metrics, RejectsOutOfRangePrincipals) {
  nodes::Metrics metrics(2);
  EXPECT_THROW(metrics.on_offered(2, 0), ContractViolation);
  EXPECT_THROW(metrics.served(5), ContractViolation);
  EXPECT_THROW(nodes::Metrics(0), ContractViolation);
}

TEST(Metrics, CustomBinWidth) {
  nodes::Metrics metrics(1, 100 * kMillisecond);
  metrics.on_served(0, milliseconds(250.0));
  EXPECT_EQ(metrics.served(0).events_in_bin(2), 1u);
  EXPECT_DOUBLE_EQ(metrics.served(0).rate_in_bin(2), 10.0);
}

TEST(Plan, AccessorsAndFractions) {
  sched::Plan plan;
  plan.demand = {100.0, 0.0, 50.0};
  plan.rate = Matrix(3, 3, 0.0);
  plan.rate(0, 0) = 30.0;
  plan.rate(0, 2) = 20.0;
  plan.rate(2, 2) = 50.0;

  EXPECT_EQ(plan.size(), 3u);
  EXPECT_DOUBLE_EQ(plan.admitted(0), 50.0);
  EXPECT_DOUBLE_EQ(plan.admitted(1), 0.0);
  EXPECT_DOUBLE_EQ(plan.server_load(2), 70.0);
  EXPECT_DOUBLE_EQ(plan.server_load(1), 0.0);
}

}  // namespace
}  // namespace sharegrid
