// Simulated workloads: cluster_l4 (the sharded million_clients shape, scaled
// down) and many_principals (40 principals on the single-domain L7 path).
//
// Both run scenario text through experiments::scenario_from_ini and
// experiments::run_scenario, exactly as run_scenario_file does. The untraced
// run reports set-up time (a one-window run of the same config), run time,
// wall time per simulated window, and peak memory. Each window's plan is
// also replayed from the run's WindowTrace through a fresh scheduler in
// trace order: the traced run times those calls for the sched.* and lp.*
// layer metrics, and every run checks the replayed plan count.
#include <algorithm>
#include <cstdio>
#include <cstring>
#include <map>
#include <memory>
#include <optional>
#include <random>
#include <sstream>
#include <thread>

#include "experiments/scenario_ini.hpp"
#include "lp/solve_context.hpp"
#include "sched/response_time_scheduler.hpp"
#include "util/ini.hpp"
#include "util/metrics_registry.hpp"
#include "workloads.hpp"

namespace perfbench {

using sharegrid::experiments::ScenarioConfig;
using sharegrid::experiments::ScenarioResult;
namespace core = sharegrid::core;
namespace sched = sharegrid::sched;

namespace {

/// Uniform double in [lo, hi) from the benchmark's own generator, so the
/// generated inputs depend only on the seed.
double uniform(std::mt19937_64& rng, double lo, double hi) {
  const double unit = static_cast<double>(rng() >> 11) * 0x1.0p-53;
  return lo + (hi - lo) * unit;
}

std::string fmt(double v) {
  char buf[64];
  std::snprintf(buf, sizeof buf, "%.6g", v);
  return buf;
}

// cluster_l4: 32 clusters x 2 principals, 250 ms star links, L4. Only the
// scenario's RNG seed varies with --seed, so every seed offers the same load
// shape and the run cost stays comparable across seeds.
constexpr std::size_t kClusters = 32;
constexpr std::size_t kClientScale = 3125;  // 32 * 2 * 3125 = 200,000 clients
constexpr std::size_t kLanes = 4;
constexpr double kClusterDuration = 6.0;

std::string cluster_l4_text(std::uint64_t seed, std::size_t lanes) {
  const double d = kClusterDuration;
  std::ostringstream s;
  s << "layer = l4\nscheduler = response_time\nredirectors = 1\n"
    << "duration = " << fmt(d) << "\nseed = " << seed << "\n"
    << "clusters = " << kClusters << "\nsim_shards = " << lanes << "\n"
    << "client_scale = " << kClientScale << "\n"
    << "tree_link_delay = 0.25\nmax_outstanding = 4\n"
    << "[principal]\nname = A\n[principal]\nname = B\n"
    << "[agreement]\nowner = A\nuser = B\nlower = 0.25\nupper = 0.5\n"
    << "[agreement]\nowner = B\nuser = A\nlower = 0.25\nupper = 0.5\n";
  for (int i = 0; i < 4; ++i) s << "[server]\nowner = A\ncapacity = 5000\n";
  for (int i = 0; i < 4; ++i) s << "[server]\nowner = B\ncapacity = 3000\n";
  s << "[client]\nname = load-a\nprincipal = A\nrate = 1.6\nactive = 0-"
    << fmt(d) << "\n"
    << "[client]\nname = load-b\nprincipal = B\nrate = 1.6\nactive = "
    << fmt(d / 3) << "-" << fmt(2 * d / 3) << "\n"
    << "[phase]\nname = a_alone\nstart = 1\nend = " << fmt(d / 3) << "\n"
    << "[phase]\nname = b_burst\nstart = " << fmt(d / 3) << "\nend = "
    << fmt(2 * d / 3) << "\n"
    << "[phase]\nname = a_recovers\nstart = " << fmt(2 * d / 3) << "\nend = "
    << fmt(d) << "\n";
  return s.str();
}

// many_principals: 40 principals on a ring of [0.2, 0.5] agreements, two L7
// redirectors on 50 ms tree links, and per-principal on/off load. The on/off
// schedule and rates come from a fixed generator; --seed drives the
// scenario's arrival randomness. Which principals are on decides how hard
// each window's LP is, so a seeded schedule would make run time a property
// of the seed rather than of the code.
constexpr std::size_t kPrincipals = 40;
constexpr double kManyDuration = 4.0;
constexpr std::uint64_t kScheduleSeed = 20021;
// Per-principal capacity in req/s. At 100 req/s a window's arrival count,
// and so the LP's demand vector, is mostly Poisson noise and the plan cost
// swings from seed to seed; at 3000 the runs split between cheap and
// expensive regimes. 1000 keeps the run cost steady across seeds.
constexpr double kManyCapacity = 1000.0;

std::string many_principals_text(std::uint64_t seed) {
  std::mt19937_64 rng(kScheduleSeed);
  const double d = kManyDuration;
  std::ostringstream s;
  s << "layer = l7\nscheduler = response_time\nredirectors = 2\n"
    << "duration = " << fmt(d) << "\nseed = " << seed << "\n"
    << "tree_link_delay = 0.05\n";
  for (std::size_t i = 0; i < kPrincipals; ++i)
    s << "[principal]\nname = P" << i << "\n";
  for (std::size_t i = 0; i < kPrincipals; ++i)
    s << "[agreement]\nowner = P" << i << "\nuser = P"
      << (i + 1) % kPrincipals << "\nlower = 0.2\nupper = 0.5\n";
  for (std::size_t i = 0; i < kPrincipals; ++i)
    s << "[server]\nowner = P" << i << "\ncapacity = " << kManyCapacity << "\n";
  for (std::size_t i = 0; i < kPrincipals; ++i) {
    // Alternating on/off periods of 0.5-2 s; each principal starts in a
    // random state and offers 0.6-1.6x its own capacity while on.
    std::string active;
    bool on = uniform(rng, 0, 1) < 0.5;
    for (double t = 0.0; t < d;) {
      const double next = std::min(d, t + uniform(rng, 0.5, 2.0));
      if (on) active += (active.empty() ? "" : ", ") + fmt(t) + "-" + fmt(next);
      on = !on;
      t = next;
    }
    if (active.empty()) active = "0-" + fmt(d);
    s << "[client]\nname = c" << i << "\nprincipal = P" << i
      << "\nredirector = " << i % 2 << "\nrate = "
      << fmt(kManyCapacity * uniform(rng, 0.6, 1.6)) << "\nactive = " << active << "\n";
  }
  s << "[phase]\nname = all\nstart = 1\nend = " << fmt(d) << "\n";
  return s.str();
}

/// Bitwise digest of everything a run reports, for the determinism checks.
std::string digest(const ScenarioResult& r) {
  std::ostringstream s;
  auto bits = [&s](double v) {
    std::uint64_t u = 0;
    std::memcpy(&u, &v, sizeof u);
    s << u << ',';
  };
  s << r.total_admitted << ',' << r.total_rejected_or_queued << ','
    << r.coordination_messages << ';';
  const auto& m = r.metrics;
  for (std::size_t p = 0; p < m.principal_count(); ++p) {
    for (const auto* series : {&m.offered(p), &m.served(p), &m.rejected(p),
                               &m.reply_bytes(p)})
      for (std::size_t b = 0; b < series->bin_count(); ++b)
        s << series->events_in_bin(b) << ',';
    bits(m.latency(p).mean());
    bits(m.latency(p).variance());
    s << m.latency(p).count() << ';';
  }
  for (const auto& row : r.window_trace.rows()) {
    s << row.window_start << row.redirector;
    for (double v : row.planned_rate) bits(v);
  }
  return s.str();
}

struct Replay {
  std::vector<double> plan_us;  // per replayed plan, in trace order
  std::uint64_t fallbacks = 0;
  sharegrid::lp::SolveStats stats;
};

/// Replays each window's plan call from the trace: one fresh scheduler per
/// planning domain (per cluster on the sharded path, one shared by every
/// redirector on the classic path), fed the demand WindowScheduler derives
/// from the row's local and global estimates (conservative policy).
Replay replay_plans(const ScenarioConfig& config, const ScenarioResult& result,
                    Tracer& tracer) {
  const core::AgreementGraph graph = planning_graph(config);
  core::AccessLevels levels;
  {
    auto span = tracer.span("core.access_levels");
    levels = core::compute_access_levels(graph);
  }
  std::map<std::string, std::unique_ptr<sched::ResponseTimeScheduler>> by_domain;
  Replay replay;
  std::vector<double> demand(graph.size());
  for (const auto& row : result.window_trace.rows()) {
    const std::string domain = config.clusters > 0 ? row.redirector : "";
    auto& scheduler = by_domain[domain];
    if (!scheduler)
      scheduler = std::make_unique<sched::ResponseTimeScheduler>(graph, levels);
    for (std::size_t i = 0; i < demand.size(); ++i)
      demand[i] = row.global_demand.empty()
                      ? 1e9
                      : std::max(row.global_demand[i], row.local_demand[i]);
    const std::int64_t start = now_ns();
    sched::Plan plan;
    {
      auto span = tracer.span("sched.plan");
      plan = scheduler->plan(demand);
    }
    replay.plan_us.push_back(static_cast<double>(now_ns() - start) / 1e3);
    if (plan.lp_fallback) ++replay.fallbacks;
  }
  for (const auto& [domain, scheduler] : by_domain)
    replay.stats += scheduler->solver_stats();
  return replay;
}

std::uint64_t counter(const char* name) {
  return sharegrid::util::global_metrics().counter(name).value();
}

struct SimWorkload {
  std::string text;         // scenario at the measured lane count
  std::string serial_text;  // the same scenario at 1 lane ("" = no lanes)
  bool l4 = false;
};

Report run_sim(const Options& options, const SimWorkload& w) {
  Report report;
  Tracer tracer(options.trace);

  // Both sims are deterministic per seed, so every repetition does the same
  // work, and the fastest repetition is the steadiest estimate of its cost:
  // on a shared host the speed of a core moves by up to 1.6x for seconds at
  // a time with other tenants' load, and a median follows those swings.

  // Set-up: config text to the end of a one-window run, several times.
  std::vector<double> setup;
  for (int i = 0; i < 11; ++i) {
    const auto start = Clock::now();
    ScenarioConfig config = load_scenario_text(w.text);
    config.duration_sec = sharegrid::to_seconds(config.window);
    sharegrid::experiments::run_scenario(config);
    setup.push_back(seconds_since(start));
  }
  const double setup_s = *std::min_element(setup.begin(), setup.end());

  // Measured runs: repeat the full scenario until the time budget is spent.
  // In a traced run every other repetition records spans, so the untraced
  // and traced run times sit side by side.
  std::vector<double> run_untraced, run_traced;
  std::optional<ScenarioResult> last;
  std::string first_digest;
  bool deterministic = true;
  std::uint64_t windows = 0, fallbacks = 0;
  const auto budget_start = Clock::now();
  for (int rep = 0;
       rep < 3 || seconds_since(budget_start) < options.seconds; ++rep) {
    const bool traced = options.trace && rep % 2 == 1;
    Tracer quiet(false);
    Tracer& t = traced ? tracer : quiet;
    const auto start = Clock::now();
    ScenarioConfig config;
    {
      auto span = t.span("experiments.load_ini");
      config = load_scenario_text(w.text);
    }
    config.trace_windows = true;
    {
      auto span = t.span("experiments.run_scenario");
      last = sharegrid::experiments::run_scenario(config);
    }
    (traced ? run_traced : run_untraced).push_back(seconds_since(start) - setup_s);
    windows += counter("coord.windows");
    fallbacks += last->metrics.plan_fallbacks();
    const std::string d = digest(*last);
    if (first_digest.empty()) first_digest = d;
    deterministic = deterministic && d == first_digest;
  }
  const double run_s = *std::min_element(run_untraced.begin(), run_untraced.end());
  const double rss_mb = peak_rss_mb();
  report.attempted = windows;
  report.failed = fallbacks;
  report.check("repeated runs of one seed are bitwise identical", deterministic);

  // The registry covers the last run only (run_scenario resets it).
  const std::uint64_t run_windows = counter("coord.windows");
  const std::uint64_t events = counter("sim.events");
  const std::uint64_t epochs = counter("sim.epochs");
  const std::uint64_t cross_posts = counter("sim.cross_posts");
  const std::uint64_t l4_admitted = counter("l4.admitted");
  const std::uint64_t l4_dropped = counter("l4.dropped");
  const std::uint64_t spike_replans = counter("coord.spike_replans");

  const ScenarioConfig config = load_scenario_text(w.text);
  const Replay replay = replay_plans(config, *last, tracer);
  report.check("replayed plan count equals the run's plan count",
               replay.plan_us.size() == run_windows && run_windows > 0);

  const core::AgreementGraph graph = planning_graph(config);
  const core::AccessLevels levels = core::compute_access_levels(graph);
  double capacity = 0.0;
  for (core::PrincipalId p = 0; p < graph.size(); ++p) capacity += graph.capacity(p);
  double violation = 0.0;
  for (const auto& phase : last->phase_reports)
    violation = std::max(violation, violation_pct(levels, capacity, phase.offered_rate,
                                                  phase.served_rate));

  report.add("setup_s", setup_s, "s", setup.size());
  report.add("run_s", run_s, "s", run_untraced.size());
  report.add("peak_rss_mb", rss_mb, "MB");
  // One operation is one simulated window: the fastest run's wall time per
  // window of simulated time.
  const double windows_per_run = config.duration_sec / sharegrid::to_seconds(config.window);
  report.add("op_us", run_s * 1e6 / windows_per_run, "us", run_untraced.size());
  report.add("failed_pct",
             windows ? 100.0 * static_cast<double>(fallbacks) /
                           static_cast<double>(windows)
                     : 0.0,
             "%");
  report.add("agreement_violation_pct", violation, "%");

  if (!options.trace) return report;

  // ---- Traced run: per-layer metrics ---------------------------------------
  const double traced_run_s = *std::min_element(run_traced.begin(), run_traced.end());
  report.add("trace.untraced_run_s", run_s, "s", run_untraced.size());
  report.add("trace.traced_run_s", traced_run_s, "s", run_traced.size());
  report.add("trace.overhead_pct", 100.0 * (traced_run_s - run_s) / run_s, "%");

  add_plan_metrics(report, replay.plan_us, run_s, replay.stats, replay.fallbacks);

  report.add("sim.events", static_cast<double>(events), "count");
  report.add("sim.events_per_s", static_cast<double>(events) / run_s, "1/s");
  report.add("sim.epochs", static_cast<double>(epochs), "count");
  report.add("sim.cross_posts", static_cast<double>(cross_posts), "count");
  const double admitted = static_cast<double>(w.l4 ? l4_admitted : last->total_admitted);
  report.add("l4.admitted", static_cast<double>(l4_admitted), "count");
  report.add("l4.dropped", static_cast<double>(l4_dropped), "count");
  report.add("nodes.ns_per_admit", admitted > 0 ? run_s * 1e9 / admitted : 0.0, "ns");

  report.add("experiments.load_ini_ms",
             median(tracer.durations_us("experiments.load_ini")) / 1e3, "ms");
  report.add("core.access_levels_ms",
             median(tracer.durations_us("core.access_levels")) / 1e3, "ms");
  report.add("coord.windows", static_cast<double>(run_windows), "count");
  report.add("coord.spike_replans", static_cast<double>(spike_replans), "count");
  report.add("coord.replans_suppressed",
             static_cast<double>(last->metrics.replans_suppressed()), "count");
  report.add("coord.messages", static_cast<double>(last->coordination_messages), "count");

  if (!w.serial_text.empty()) {
    // The same scenario on one lane: the lane speedup, and the check that the
    // sharded engine's result does not depend on the lane count.
    const auto start = Clock::now();
    ScenarioConfig serial = load_scenario_text(w.serial_text);
    serial.trace_windows = true;
    std::optional<ScenarioResult> one;
    {
      auto span = tracer.span("experiments.run_scenario_1lane");
      one = sharegrid::experiments::run_scenario(serial);
    }
    const double serial_run_s = seconds_since(start) - setup_s;
    report.add("sim.lane_speedup", serial_run_s / run_s, "x");
    report.check("1-lane result equals the N-lane result bit for bit",
                 digest(*one) == digest(*last));
  }
  write_trace(report, tracer, options);
  return report;
}

}  // namespace

sched::Plan TimedScheduler::plan(const std::vector<double>& demand) const {
  const std::int64_t start = now_ns();
  sched::Plan plan;
  {
    auto span = tracer_.load()->span("sched.plan");
    plan = inner_->plan(demand);
  }
  const std::int64_t end = now_ns();
  if (plan.lp_fallback) fallbacks_.fetch_add(1);
  const std::lock_guard<std::mutex> lock(mutex_);
  plan_us_.push_back(static_cast<double>(end - start) / 1e3);
  return plan;
}

std::vector<double> TimedScheduler::plan_us() const {
  const std::lock_guard<std::mutex> lock(mutex_);
  return plan_us_;
}

void TimedScheduler::clear_plans() {
  const std::lock_guard<std::mutex> lock(mutex_);
  plan_us_.clear();
}

void add_plan_metrics(Report& report, const std::vector<double>& plan_us,
                      double busy_base_s, const sharegrid::lp::SolveStats& st,
                      std::uint64_t iteration_limits) {
  double plan_total_us = 0.0;
  for (double us : plan_us) plan_total_us += us;
  report.add("sched.plan_p50_us", percentile(plan_us, 0.50), "us", plan_us.size());
  report.add("sched.plan_p99_us", percentile(plan_us, 0.99), "us", plan_us.size());
  report.add("sched.plan_max_ms", percentile(plan_us, 1.0) / 1e3, "ms");
  report.add("sched.plan_busy_pct", 100.0 * plan_total_us / 1e6 / busy_base_s, "%");
  const double solves = static_cast<double>(std::max<std::uint64_t>(st.solves, 1));
  report.add("lp.solves", static_cast<double>(st.solves), "count");
  report.add("lp.warm_pct", 100.0 * static_cast<double>(st.warm_solves) / solves, "%");
  report.add("lp.pivots_per_solve", static_cast<double>(st.pivots) / solves, "count");
  report.add("lp.bound_flips_per_solve", static_cast<double>(st.bound_flips) / solves,
             "count");
  report.add("lp.refactorizations", static_cast<double>(st.refactorizations), "count");
  report.add("lp.structure_misses", static_cast<double>(st.structure_misses), "count");
  report.add("lp.dual_recoveries", static_cast<double>(st.dual_recoveries), "count");
  report.add("lp.iteration_limits", static_cast<double>(iteration_limits), "count");
}

sharegrid::experiments::ScenarioConfig load_scenario_text(const std::string& text) {
  return sharegrid::experiments::scenario_from_ini(sharegrid::parse_ini(text));
}

core::AgreementGraph planning_graph(const ScenarioConfig& config) {
  core::AgreementGraph graph = config.graph;
  const double replicas =
      config.clusters > 0 ? static_cast<double>(config.clusters) : 1.0;
  for (core::PrincipalId p = 0; p < graph.size(); ++p) graph.set_capacity(p, 0.0);
  for (const auto& spec : config.servers) {
    const core::PrincipalId owner = graph.find(spec.owner);
    graph.set_capacity(owner, graph.capacity(owner) + spec.capacity * replicas);
  }
  return graph;
}

double violation_pct(const core::AccessLevels& levels, double total_capacity,
                     const std::vector<double>& offered,
                     const std::vector<double>& served) {
  double worst = 0.0;
  for (std::size_t i = 0; i < offered.size(); ++i) {
    const double guarantee = levels.mandatory_capacity[i];
    const double ceiling = guarantee + levels.optional_capacity[i];
    const double shortfall = std::min(offered[i], guarantee) - served[i];
    const double excess = served[i] - ceiling;
    worst = std::max({worst, shortfall, excess});
  }
  return total_capacity > 0.0 ? 100.0 * worst / total_capacity : 0.0;
}

Report run_cluster_l4(const Options& options) {
  const std::size_t lanes = std::min<std::size_t>(
      kLanes, std::max(1u, std::thread::hardware_concurrency()));
  SimWorkload w;
  w.text = cluster_l4_text(options.seed, lanes);
  w.serial_text = cluster_l4_text(options.seed, 1);
  w.l4 = true;
  Report report = run_sim(options, w);
  report.notes.push_back("lanes " + std::to_string(lanes) + ", clients " +
                         std::to_string(kClusters * 2 * kClientScale));
  return report;
}

Report run_many_principals(const Options& options) {
  SimWorkload w;
  w.text = many_principals_text(options.seed);
  return run_sim(options, w);
}

}  // namespace perfbench
