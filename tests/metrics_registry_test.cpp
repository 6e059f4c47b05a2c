// Tests for the always-on metrics registry (util/metrics_registry.hpp):
// lookup-or-create semantics, reference stability, registration-order
// reporting, reset, and concurrent updates from worker threads.
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "util/metrics_registry.hpp"

namespace sharegrid {
namespace {

TEST(MetricsRegistry, CounterLookupOrCreateIsIdempotent) {
  util::MetricsRegistry registry;
  util::MetricCounter& a = registry.counter("sim.events", "events run");
  util::MetricCounter& b = registry.counter("sim.events");
  EXPECT_EQ(&a, &b);  // same name -> same counter
  EXPECT_EQ(registry.to_table().row_count(), 1u);

  a.add();
  a.add(41);
  EXPECT_EQ(b.value(), 42u);
}

TEST(MetricsRegistry, ReferencesSurviveLaterRegistrations) {
  util::MetricsRegistry registry;
  util::MetricCounter& first = registry.counter("first");
  for (int i = 0; i < 100; ++i)
    registry.counter("extra." + std::to_string(i));
  first.add(7);
  EXPECT_EQ(registry.counter("first").value(), 7u);
}

TEST(MetricsRegistry, GaugeSetAndRatchet) {
  util::MetricsRegistry registry;
  util::MetricGauge& g = registry.gauge("queue.depth", "current depth");
  g.set(5);
  EXPECT_EQ(g.value(), 5);
  g.set(3);
  EXPECT_EQ(g.value(), 3);
}

TEST(MetricsRegistry, ReportInRegistrationOrder) {
  util::MetricsRegistry registry;
  registry.counter("zeta", "last alphabetically, first registered").add(1);
  registry.gauge("alpha", "gauge").set(-3);
  registry.counter("mid").add(2);

  const TextTable table = registry.to_table();
  EXPECT_EQ(table.row_count(), 3u);
  std::ostringstream os;
  registry.report(os);
  const std::string text = os.str();
  // Registration order, not name order.
  EXPECT_LT(text.find("zeta"), text.find("alpha"));
  EXPECT_LT(text.find("alpha"), text.find("mid"));
  EXPECT_NE(text.find("-3"), std::string::npos);
}

TEST(MetricsRegistry, EmptyRegistryReportsNothing) {
  util::MetricsRegistry registry;
  std::ostringstream os;
  registry.report(os);
  EXPECT_TRUE(os.str().empty());
}

TEST(MetricsRegistry, ResetZeroesValuesButKeepsNames) {
  util::MetricsRegistry registry;
  registry.counter("c").add(9);
  registry.gauge("g").set(4);
  registry.reset();
  EXPECT_EQ(registry.to_table().row_count(), 2u);
  EXPECT_EQ(registry.counter("c").value(), 0u);
  EXPECT_EQ(registry.gauge("g").value(), 0);
}

TEST(MetricsRegistry, ConcurrentAddsAreLossless) {
  util::MetricsRegistry registry;
  constexpr std::size_t kThreads = 8;
  constexpr std::uint64_t kPerLane = 10000;
  // Lanes both register (lookup path) and bump (atomic path) concurrently.
  std::vector<std::thread> lanes;
  for (std::size_t lane = 0; lane < kThreads; ++lane) {
    lanes.emplace_back([&registry, lane] {
      util::MetricCounter& shared = registry.counter("shared", "all lanes");
      for (std::uint64_t i = 0; i < kPerLane; ++i) shared.add();
      registry.counter("lane." + std::to_string(lane)).add(lane);
    });
  }
  for (std::thread& lane : lanes) lane.join();
  EXPECT_EQ(registry.counter("shared").value(), kThreads * kPerLane);
  EXPECT_EQ(registry.to_table().row_count(), 1u + kThreads);
}

TEST(MetricsRegistry, GlobalRegistryIsSingleInstance) {
  EXPECT_EQ(&util::global_metrics(), &util::global_metrics());
}

}  // namespace
}  // namespace sharegrid
