// Whole scenario results, bit for bit.
//
// ClientScale: a spec replicated k times runs as one nodes::ClientFleet of k
// machines, and must reproduce the run in which the spec is declared k times
// at scale 1 (k fleets of one). Covers the classic L7 and L4 paths and the
// cluster-partitioned path, with back-to-back active intervals so
// fleet-level toggles meet at one instant.
//
// ScenarioDigest: one FNV-1a-64 hash of the full digest per configuration,
// pinned as a constant. Figure-bench stdout rounds to one decimal; these
// catch any change to any metric, phase, backlog or trace value.
#include <gtest/gtest.h>

#include <cstdint>
#include <cstring>
#include <sstream>
#include <string>

#include "experiments/paper_figures.hpp"
#include "experiments/scenario.hpp"

namespace sharegrid::experiments {
namespace {

/// Everything a run reports, with doubles as their bit patterns.
std::string digest(const ScenarioResult& r) {
  std::ostringstream s;
  auto bits = [&s](double v) {
    std::uint64_t u = 0;
    std::memcpy(&u, &v, sizeof u);
    s << u << ',';
  };
  auto stats = [&](const RunningStats& st) {
    s << st.count() << ',';
    bits(st.mean());
    bits(st.variance());
    bits(st.min());
    bits(st.max());
  };
  for (const std::string& name : r.principal_names) s << name << ',';
  s << r.total_admitted << ',' << r.total_rejected_or_queued << ','
    << r.coordination_messages << ';';
  const nodes::Metrics& m = r.metrics;
  s << m.plan_fallbacks() << ',' << m.spike_replans() << ','
    << m.replans_suppressed() << ';';
  for (std::size_t p = 0; p < m.principal_count(); ++p) {
    for (const RateSeries* series :
         {&m.offered(p), &m.served(p), &m.rejected(p), &m.reply_bytes(p)}) {
      for (std::size_t b = 0; b < series->bin_count(); ++b)
        s << series->events_in_bin(b) << ',';
      s << '|';
    }
    stats(m.latency(p));
    s << ';';
  }
  stats(r.server_backlog_sec);
  for (const PhaseReport& phase : r.phase_reports) {
    s << phase.name << ':';
    for (double v : phase.served_rate) bits(v);
    for (double v : phase.offered_rate) bits(v);
  }
  for (const nodes::WindowTrace::Row& row : r.window_trace.rows()) {
    s << row.window_start << row.redirector << ':';
    for (double v : row.local_demand) bits(v);
    for (double v : row.global_demand) bits(v);
    bits(row.theta);
    for (double v : row.planned_rate) bits(v);
  }
  return s.str();
}

/// Two principals under overload, so admission, queuing and (on L7)
/// self-redirect retries all draw from the client streams.
ScenarioConfig base_config(Layer layer) {
  ScenarioConfig c;
  c.graph.add_principal("A", 0.0);
  c.graph.add_principal("B", 0.0);
  c.graph.set_agreement(0, 1, 0.3, 0.8);
  c.graph.set_agreement(1, 0, 0.3, 0.8);
  c.layer = layer;
  c.redirector_count = 2;
  c.servers = {{"A", 150.0}, {"B", 120.0}};
  ClientSpec a;
  a.name = "load-a";
  a.principal = "A";
  a.redirector = 0;
  a.rate = 60.0;
  a.active_sec = {{0.0, 2.5}, {2.5, 6.0}};  // back to back
  ClientSpec b;
  b.name = "load-b";
  b.principal = "B";
  b.redirector = 1;
  b.rate = 50.0;
  b.active_sec = {{1.0, 3.0}, {4.0, 6.0}};
  c.clients = {a, b};
  c.phases = {{"all", 1.0, 6.0}};
  c.duration_sec = 6.0;
  c.tree_link_delay = 50 * kMillisecond;
  c.trace_windows = true;
  c.seed = 2024;
  return c;
}

ScenarioConfig clustered_config() {
  ScenarioConfig c = base_config(Layer::kL4);
  c.redirector_count = 1;
  for (ClientSpec& spec : c.clients) spec.redirector = 0;
  c.clusters = 2;
  c.sim_shards = 2;
  return c;
}

/// The same deployment with each spec declared `k` times at scale 1, each
/// copy right after its original, so machine indices and RNG streams line
/// up with the scaled run.
ScenarioConfig declared_copies(const ScenarioConfig& scaled) {
  ScenarioConfig copies = scaled;
  copies.client_scale = 1;
  copies.clients.clear();
  for (const ClientSpec& spec : scaled.clients)
    for (std::size_t rep = 0; rep < scaled.client_scale; ++rep)
      copies.clients.push_back(spec);
  return copies;
}

void expect_scale_matches_copies(ScenarioConfig scaled) {
  scaled.client_scale = 3;
  const ScenarioResult fleet = run_scenario(scaled);
  const ScenarioResult copies = run_scenario(declared_copies(scaled));
  ASSERT_GT(fleet.total_admitted, 0u);
  EXPECT_EQ(digest(fleet), digest(copies));
}

/// 64-bit FNV-1a of @p text.
std::uint64_t fnv1a64(const std::string& text) {
  std::uint64_t hash = 14695981039346656037ull;
  for (const char c : text) {
    hash ^= static_cast<unsigned char>(c);
    hash *= 1099511628211ull;
  }
  return hash;
}

std::uint64_t result_hash(const ScenarioConfig& config) {
  return fnv1a64(digest(run_scenario(config)));
}

/// Two providers own every server and sell to two customers, one income LP
/// per provider.
ScenarioConfig two_provider_config() {
  ScenarioConfig c;
  c.graph.add_principal("S1", 0.0);
  c.graph.add_principal("S2", 0.0);
  c.graph.add_principal("A", 0.0);
  c.graph.add_principal("B", 0.0);
  c.graph.set_agreement(0, 2, 0.3, 0.7);
  c.graph.set_agreement(0, 3, 0.2, 0.6);
  c.graph.set_agreement(1, 3, 0.4, 0.8);
  c.layer = Layer::kL7;
  c.scheduler = SchedulerKind::kIncome;
  c.prices = {0.0, 0.0, 2.0, 1.0};
  c.redirector_count = 2;
  c.servers = {{"S1", 150.0}, {"S2", 120.0}};
  ClientSpec a;
  a.name = "load-a";
  a.principal = "A";
  a.redirector = 0;
  a.rate = 120.0;
  a.active_sec = {{0.0, 4.0}};
  ClientSpec b;
  b.name = "load-b";
  b.principal = "B";
  b.redirector = 1;
  b.rate = 100.0;
  b.active_sec = {{1.0, 6.0}};
  c.clients = {a, b};
  c.phases = {{"all", 1.0, 6.0}};
  c.duration_sec = 6.0;
  c.tree_link_delay = 50 * kMillisecond;
  c.trace_windows = true;
  c.seed = 2024;
  return c;
}

TEST(ScenarioDigest, ClassicL7) {
  EXPECT_EQ(result_hash(base_config(Layer::kL7)), 0x95bdafc20407acf3ull);
}

/// Five L4 redirectors under a binary combining tree, and a capacity event
/// at 0.5 s, the backlog probe's first tick.
TEST(ScenarioDigest, ClassicL4TreeWithCapacityEvent) {
  ScenarioConfig c = base_config(Layer::kL4);
  c.redirector_count = 5;
  c.tree_fanout = 2;
  c.capacity_events = {{0.5, 0, 90.0}};
  EXPECT_EQ(result_hash(c), 0x816461cf5c4c8821ull);
}

TEST(ScenarioDigest, Figure10Income) {
  ScenarioConfig c = figure10().config;
  c.duration_sec = 6.0;
  c.phases = {{"cut", 1.0, 6.0}};
  EXPECT_EQ(result_hash(c), 0x9dd053952fd2addeull);
}

/// Figure 10 for 25 s: each 400 req/s machine cycles through its 4,096 L4
/// source ports about twice, so new connections meet affinity hints left
/// by earlier ones, and provider S owns two servers for a hint to choose
/// between. In the 6 s cut above, no hint changes a pick.
TEST(ScenarioDigest, Figure10IncomePortReuse) {
  ScenarioConfig c = figure10().config;
  c.duration_sec = 25.0;
  c.phases = {{"cut", 1.0, 25.0}};
  EXPECT_EQ(result_hash(c), 0x4e96fb6a1644ada1ull);
}

TEST(ScenarioDigest, TwoProviderIncome) {
  EXPECT_EQ(result_hash(two_provider_config()), 0x52556748d76db263ull);
}

TEST(ScenarioDigest, Clustered) {
  EXPECT_EQ(result_hash(clustered_config()), 0x2605228d594f7affull);
}

TEST(ClientScale, ClassicL7MatchesDeclaredCopies) {
  expect_scale_matches_copies(base_config(Layer::kL7));
}

TEST(ClientScale, ClassicL4MatchesDeclaredCopies) {
  expect_scale_matches_copies(base_config(Layer::kL4));
}

TEST(ClientScale, ClusteredMatchesDeclaredCopies) {
  expect_scale_matches_copies(clustered_config());
}

}  // namespace
}  // namespace sharegrid::experiments
