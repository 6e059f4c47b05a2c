// Heap allocations on the request path and in the event engine, counted.
//
// This binary replaces the global operator new with a counting one, which
// is why it is not part of sharegrid_tests: under ASan the replacement
// would switch off the sanitizer's new/delete checks for the whole suite,
// so CMake builds it only without sanitizers. The aligned forms are
// replaced too, since event nodes are cache-line aligned.
//
// One clustered configuration, L4 or L7, runs twice, the second time with
// every client machine issuing twice as fast. Setup and per-window work are
// the same in both runs, so the extra operator new calls divided by the
// extra admitted requests is what one admitted request costs.
#include <gtest/gtest.h>

#include <atomic>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <new>
#include <string>

#include "experiments/scenario.hpp"
#include "sim/simulator.hpp"
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
[[gnu::noinline]] void* operator new(std::size_t size, std::align_val_t al) {
  g_news.fetch_add(1, std::memory_order_relaxed);
  const auto align = static_cast<std::size_t>(al);
  // aligned_alloc takes a size that is a multiple of the alignment.
  if (void* p = std::aligned_alloc(align, (size + align) / align * align))
    return p;
  throw std::bad_alloc();
}
[[gnu::noinline]] void operator delete(void* p) noexcept { std::free(p); }
[[gnu::noinline]] void operator delete(void* p, std::size_t) noexcept {
  std::free(p);
}
[[gnu::noinline]] void operator delete(void* p, std::align_val_t) noexcept {
  std::free(p);
}
[[gnu::noinline]] void operator delete(void* p, std::size_t,
                                       std::align_val_t) noexcept {
  std::free(p);
}

namespace sharegrid::experiments {
namespace {

/// The perfbench cluster_l4 shape, scaled down: 8 clusters of 8 machines,
/// two principals sharing reciprocally, B's fleet on for the middle third.
/// Clustered runs are L4 only, so the L7 shape is the same load in one
/// domain: two redirectors on a combining tree and eight times the machines.
ScenarioConfig cluster_config(double rate, Layer layer) {
  ScenarioConfig c;
  c.graph.add_principal("A", 0.0);
  c.graph.add_principal("B", 0.0);
  c.graph.set_agreement(0, 1, 0.25, 0.5);
  c.graph.set_agreement(1, 0, 0.25, 0.5);
  c.layer = layer;
  c.scheduler = SchedulerKind::kResponseTime;
  if (layer == Layer::kL4) {
    c.redirector_count = 1;
    c.clusters = 8;
    c.sim_shards = 2;
    c.client_scale = 250;
  } else {
    c.redirector_count = 2;
    c.client_scale = 2000;
  }
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

Count run(double rate, Layer layer) {
  const ScenarioConfig config = cluster_config(rate, layer);
  const std::uint64_t before = g_news.load();
  const ScenarioResult result = run_scenario(config);
  const std::uint64_t news = g_news.load() - before;
  if (layer == Layer::kL4) {
    EXPECT_EQ(util::global_metrics().counter("l4.admitted").value(),
              result.total_admitted);
  }
  return {news, result.total_admitted};
}

/// operator new calls per admission that doubling the client rate adds.
double news_per_extra_admission(Layer layer) {
  const Count slow = run(4.0, layer);
  const Count fast = run(8.0, layer);
  EXPECT_GT(fast.admitted, slow.admitted + 10000);
  const double extra_news = static_cast<double>(fast.news) -
                            static_cast<double>(slow.news);
  const auto extra_admitted =
      static_cast<double>(fast.admitted - slow.admitted);
  const double per_admission = extra_news / extra_admitted;
  std::printf("%s operator new: %llu / %llu calls for %llu / %llu "
              "admissions; %.4f per extra admission\n",
              layer == Layer::kL4 ? "L4" : "L7",
              static_cast<unsigned long long>(slow.news),
              static_cast<unsigned long long>(fast.news),
              static_cast<unsigned long long>(slow.admitted),
              static_cast<unsigned long long>(fast.admitted), per_admission);
  return per_admission;
}

TEST(AllocCount, L4RequestPathAllocatesUnderOneTenthPerAdmission) {
  const double per_admission = news_per_extra_admission(Layer::kL4);
  RecordProperty("news_per_admission", std::to_string(per_admission));
  EXPECT_LT(per_admission, 0.1);
}

TEST(AllocCount, L7RequestPathAllocatesUnderOneTenthPerAdmission) {
  const double per_admission = news_per_extra_admission(Layer::kL7);
  RecordProperty("news_per_admission", std::to_string(per_admission));
  EXPECT_LT(per_admission, 0.1);
}

/// A capture of exactly @p Bytes that is trivially copyable.
template <std::size_t Bytes>
struct Capture {
  std::uint64_t* fired;
  unsigned char pad[Bytes - sizeof(std::uint64_t*)] = {};
  void operator()() const { ++*fired; }
};

TEST(AllocCount, ThirtyTwoByteCapturesScheduleWithoutAllocating) {
  static_assert(sizeof(Capture<32>) == sim::Callback::kInlineBytes);
  static_assert(sizeof(Capture<40>) > sim::Callback::kInlineBytes);
  sim::Simulator sim;
  std::uint64_t fired = 0;
  // The first event draws the simulator's first node chunk.
  sim.schedule_at(0, Capture<32>{&fired});
  sim.run_all();

  std::uint64_t before = g_news.load();
  sim.schedule_at(1, Capture<32>{&fired});
  EXPECT_EQ(g_news.load() - before, 0u);

  before = g_news.load();
  sim.schedule_at(2, Capture<40>{&fired});
  EXPECT_EQ(g_news.load() - before, 1u);

  sim.run_all();
  EXPECT_EQ(fired, 3u);
}

}  // namespace
}  // namespace sharegrid::experiments
