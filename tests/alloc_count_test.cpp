// Heap allocations on the L4 request path, counted.
//
// This binary replaces the global operator new with a counting one, which
// is why it is not part of sharegrid_tests: under ASan the replacement
// would switch off the sanitizer's new/delete checks for the whole suite,
// so CMake builds it only without sanitizers.
//
// One clustered L4 configuration runs twice, the second time with every
// client machine issuing twice as fast. Setup and per-window work are the
// same in both runs, so the extra operator new calls divided by the extra
// admitted connections is what one admitted request costs.
#include <gtest/gtest.h>

#include <atomic>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <new>
#include <string>

#include "experiments/scenario.hpp"
#include "util/metrics_registry.hpp"

namespace {
std::atomic<std::uint64_t> g_news{0};
}  // namespace

// Out of line, so the compiler never sees free() meet a new-expression.
[[gnu::noinline]] void* operator new(std::size_t size) {
  g_news.fetch_add(1, std::memory_order_relaxed);
  if (void* p = std::malloc(size == 0 ? 1 : size)) return p;
  throw std::bad_alloc();
}
[[gnu::noinline]] void operator delete(void* p) noexcept { std::free(p); }
[[gnu::noinline]] void operator delete(void* p, std::size_t) noexcept {
  std::free(p);
}

namespace sharegrid::experiments {
namespace {

/// The perfbench cluster_l4 shape, scaled down: 8 clusters of 8 machines,
/// two principals sharing reciprocally, B's fleet on for the middle third.
ScenarioConfig cluster_config(double rate) {
  ScenarioConfig c;
  c.graph.add_principal("A", 0.0);
  c.graph.add_principal("B", 0.0);
  c.graph.set_agreement(0, 1, 0.25, 0.5);
  c.graph.set_agreement(1, 0, 0.25, 0.5);
  c.layer = Layer::kL4;
  c.scheduler = SchedulerKind::kResponseTime;
  c.redirector_count = 1;
  c.clusters = 8;
  c.sim_shards = 2;
  c.client_scale = 250;
  c.max_outstanding = 4;
  c.tree_link_delay = 250 * kMillisecond;
  for (int i = 0; i < 4; ++i) c.servers.push_back({"A", 5000.0});
  for (int i = 0; i < 4; ++i) c.servers.push_back({"B", 3000.0});
  ClientSpec a;
  a.name = "load-a";
  a.principal = "A";
  a.rate = rate;
  a.active_sec = {{0.0, 3.0}};
  ClientSpec b;
  b.name = "load-b";
  b.principal = "B";
  b.rate = rate;
  b.active_sec = {{1.0, 2.0}};
  c.clients = {a, b};
  c.phases = {{"all", 1.0, 3.0}};
  c.duration_sec = 3.0;
  c.seed = 1;
  return c;
}

struct Count {
  std::uint64_t news = 0;
  std::uint64_t admitted = 0;
};

Count run(double rate) {
  const ScenarioConfig config = cluster_config(rate);
  const std::uint64_t before = g_news.load();
  const ScenarioResult result = run_scenario(config);
  const std::uint64_t news = g_news.load() - before;
  const std::uint64_t admitted =
      util::global_metrics().counter("l4.admitted").value();
  EXPECT_EQ(admitted, result.total_admitted);
  return {news, admitted};
}

TEST(AllocCount, L4RequestPathAllocatesUnderOneTenthPerAdmission) {
  const Count slow = run(4.0);
  const Count fast = run(8.0);
  ASSERT_GT(fast.admitted, slow.admitted + 10000);
  const double extra_news = static_cast<double>(fast.news) -
                            static_cast<double>(slow.news);
  const auto extra_admitted =
      static_cast<double>(fast.admitted - slow.admitted);
  const double per_admission = extra_news / extra_admitted;
  RecordProperty("news_per_admission", std::to_string(per_admission));
  std::printf("operator new: %llu / %llu calls for %llu / %llu admissions; "
              "%.4f per extra admission\n",
              static_cast<unsigned long long>(slow.news),
              static_cast<unsigned long long>(fast.news),
              static_cast<unsigned long long>(slow.admitted),
              static_cast<unsigned long long>(fast.admitted), per_admission);
  EXPECT_LT(per_admission, 0.1);
}

}  // namespace
}  // namespace sharegrid::experiments
