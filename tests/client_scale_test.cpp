// client_scale replication: a spec replicated k times runs as one
// nodes::ClientFleet of k machines, and must reproduce — bit for bit — the
// run in which the spec is declared k times at scale 1 (k fleets of one).
// Covers the classic L7 and L4 paths and the cluster-partitioned path, with
// back-to-back active intervals so fleet-level toggles meet at one instant.
#include <gtest/gtest.h>

#include <cstdint>
#include <cstring>
#include <sstream>
#include <string>

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
