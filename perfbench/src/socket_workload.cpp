// socket_fleet: three coord::SocketTransport members in one process, each
// hosting a ControlPlane member and polled on its own thread at the
// multi-process demo's cadence. Each member advances its window in
// on_round_start, as multi_process_demo does, so every round also re-plans.
// The root opens a round every 2 ms; a round's latency runs from the root's
// on_round_start to the aggregate reaching the root's receiver.
#include <unistd.h>

#include <atomic>
#include <map>
#include <mutex>
#include <random>
#include <sstream>
#include <stdexcept>
#include <thread>

#include "coord/control_plane.hpp"
#include "coord/socket_transport.hpp"
#include "net/tcp.hpp"
#include "sched/response_time_scheduler.hpp"
#include "util/metrics_registry.hpp"
#include "workloads.hpp"

namespace perfbench {

using namespace sharegrid;

namespace {

constexpr std::size_t kMembers = 3;
constexpr std::int64_t kRoundPeriodUsec = 2000;
constexpr useconds_t kPollSleepUsec = 300;  // multi_process_demo's cadence
constexpr std::size_t kBatch = 100;          // rounds per run_s batch
constexpr int kSetupRepeats = 21;

std::int64_t now_usec() { return now_ns() / 1000; }

/// Three principals and one redirector per process, as in
/// examples/scenarios/multi_process.ini; client rates come from the seed.
std::string fleet_text(std::uint64_t seed, const std::vector<std::uint16_t>& ports) {
  std::mt19937_64 rng(seed);
  auto rate = [&rng] { return 200.0 + static_cast<double>(rng() % 200); };
  std::ostringstream s;
  s << "layer = l4\nscheduler = response_time\nwindow_ms = 100\n"
    << "redirectors = " << kMembers << "\nduration = 10\nseed = " << seed << "\n"
    << "[control_plane]\ntransport = socket\npeers = ";
  for (std::size_t i = 0; i < ports.size(); ++i)
    s << (i ? ", " : "") << "127.0.0.1:" << ports[i];
  s << "\n[principal]\nname = A\n[principal]\nname = B\n[principal]\nname = C\n"
    << "[agreement]\nowner = B\nuser = A\nlower = 0.5\nupper = 0.5\n"
    << "[agreement]\nowner = C\nuser = A\nlower = 0.5\nupper = 0.5\n"
    << "[server]\nowner = A\ncapacity = 320\n[server]\nowner = B\ncapacity = 320\n"
    << "[server]\nowner = C\ncapacity = 320\n";
  const char* principals[] = {"A", "A", "B", "B", "C"};
  const std::size_t redirectors[] = {0, 1, 1, 2, 2};
  for (std::size_t c = 0; c < 5; ++c)
    s << "[client]\nname = c" << c << "\nprincipal = " << principals[c]
      << "\nredirector = " << redirectors[c] << "\nrate = " << rate() << "\nactive = 0-10\n";
  return s.str();
}

/// Round bookkeeping shared by the member threads.
struct Rounds {
  std::mutex mutex;
  std::map<std::uint64_t, std::int64_t> start_ns;  // root on_round_start
  std::map<std::uint64_t, std::vector<std::vector<double>>> provided;
  std::vector<double> round_us;       // root deliveries
  std::vector<double> leaf_us;        // leaf deliveries
  std::vector<std::int64_t> opened_ns;
  std::uint64_t deliveries = 0, mismatches = 0;
};

struct Member {
  std::unique_ptr<TimedScheduler> timed;
  std::unique_ptr<sched::ResponseTimeScheduler> scheduler;
  std::unique_ptr<coord::ControlPlane> plane;
  coord::ControlPlane::Member* member = nullptr;
  std::unique_ptr<coord::SocketTransport> transport;
  std::uint64_t round = 0;  // last round opened here (poll thread only)
  std::mt19937_64 rng;
};

class Fleet {
 public:
  Fleet(std::uint64_t seed, Tracer& tracer, Rounds& rounds)
      : tracer_(tracer), rounds_(rounds) {
    std::vector<std::uint16_t> ports;
    for (std::size_t i = 0; i < kMembers; ++i)
      ports.push_back(net::Socket::listen_on_loopback(0).local_port());
    {
      auto span = tracer.span("experiments.load_ini");
      config_ = load_scenario_text(fleet_text(seed, ports));
    }
    graph_ = planning_graph(config_);
    core::AccessLevels levels;
    {
      auto span = tracer.span("core.access_levels");
      levels = core::compute_access_levels(graph_);
    }
    for (std::size_t i = 0; i < kMembers; ++i) {
      auto m = std::make_unique<Member>();
      m->rng.seed(seed * 7919u + i);
      // One scheduler per member: each process of a real fleet has its own.
      m->scheduler = std::make_unique<sched::ResponseTimeScheduler>(graph_, levels);
      m->timed = std::make_unique<TimedScheduler>(m->scheduler.get(), &tracer);
      coord::ControlPlaneConfig cp;
      cp.window = config_.window;
      cp.redirector_count = kMembers;
      m->plane = std::make_unique<coord::ControlPlane>(m->timed.get(), cp);
      m->member = m->plane->add_member();

      coord::SocketTransport::Options o;
      for (std::uint16_t port : ports) o.peers.push_back("127.0.0.1:" + std::to_string(port));
      o.process_index = i;
      o.member_offset = i;
      o.fleet_size = kMembers;
      o.round_period_usec = kRoundPeriodUsec;
      o.io_timeout_ms = 20;
      o.stale_after_usec = 600'000'000;  // staleness is not what this measures
      Member* raw = m.get();
      o.on_round_start = [this, raw, i](std::uint64_t round) { on_round_start(*raw, i, round); };
      m->transport = std::make_unique<coord::SocketTransport>(1, graph_.size(), std::move(o));
      m->transport->attach(
          0,
          [this, raw, i] {
            std::vector<double> demand = raw->member->local_demand();
            const std::lock_guard<std::mutex> lock(rounds_.mutex);
            auto& slot = rounds_.provided[raw->round];
            slot.resize(kMembers);
            slot[i] = demand;
            return demand;
          },
          [this, raw, i](std::uint64_t round, const std::vector<double>& aggregate) {
            on_aggregate(*raw, i, round, aggregate);
          });
      m->transport->attach_stale_handler(0, [raw] { raw->member->readmit(); });
      members_.push_back(std::move(m));
    }
    for (auto& m : members_) m->transport->start();
    for (std::size_t i = 0; i < kMembers; ++i)
      threads_.emplace_back([this, i] { poll_loop(*members_[i]); });
  }

  ~Fleet() { stop(); }
  Fleet(const Fleet&) = delete;
  Fleet& operator=(const Fleet&) = delete;

  void stop() {
    running_.store(false);
    for (auto& t : threads_)
      if (t.joinable()) t.join();
    for (auto& m : members_) m->transport->stop();
  }

  std::vector<std::unique_ptr<Member>>& members() { return members_; }

 private:
  void poll_loop(Member& m) {
    while (running_.load()) {
      {
        auto span = tracer_.span("coord.socket.poll");
        m.transport->poll(now_usec());
      }
      usleep(kPollSleepUsec);
    }
  }

  void on_round_start(Member& m, std::size_t index, std::uint64_t round) {
    m.round = round;
    if (index == 0) {
      const std::int64_t t = now_ns();
      const std::lock_guard<std::mutex> lock(rounds_.mutex);
      rounds_.start_ns[round] = t;
      rounds_.opened_ns.push_back(t);
    }
    {
      auto span = tracer_.span("coord.window_boundary");
      if (round == 1) {
        m.plane->begin_windows(0);
      } else {
        m.plane->end_windows();
        m.plane->begin_windows(static_cast<SimTime>(round - 1) * config_.window);
      }
    }
    // This window's arrivals: every client of this member at a seeded
    // fraction of its rate.
    const double window_sec = to_seconds(config_.window);
    for (const auto& client : config_.clients) {
      if (client.redirector != index) continue;
      const double scale = 0.5 + static_cast<double>(m.rng() % 1000) / 1000.0;
      m.member->record_arrival(graph_.find(client.principal),
                               client.rate * window_sec * scale);
    }
  }

  void on_aggregate(Member& m, std::size_t index, std::uint64_t round,
                    const std::vector<double>& aggregate) {
    const std::int64_t t = now_ns();
    {
      const std::lock_guard<std::mutex> lock(rounds_.mutex);
      const auto start = rounds_.start_ns.find(round);
      if (start != rounds_.start_ns.end()) {
        const double us = static_cast<double>(t - start->second) / 1e3;
        (index == 0 ? rounds_.round_us : rounds_.leaf_us).push_back(us);
      }
      // The aggregate must be the member-order sum of what was provided.
      const auto provided = rounds_.provided.find(round);
      bool ok = provided != rounds_.provided.end();
      if (ok) {
        std::vector<double> sum(aggregate.size(), 0.0);
        for (const auto& v : provided->second) {
          ok = ok && v.size() == sum.size();
          for (std::size_t k = 0; ok && k < sum.size(); ++k) sum[k] += v[k];
        }
        ok = ok && sum == aggregate;
      }
      ++rounds_.deliveries;
      if (!ok) ++rounds_.mismatches;
    }
    m.member->receive_global(round, aggregate);
  }

  Tracer& tracer_;
  Rounds& rounds_;
  experiments::ScenarioConfig config_;
  core::AgreementGraph graph_;
  std::vector<std::unique_ptr<Member>> members_;
  std::atomic<bool> running_{true};
  std::vector<std::thread> threads_;
};

/// Runs a fleet until the root has opened @p min_rounds rounds and
/// @p seconds have passed (or a 60 s cap).
void drive(Rounds& rounds, std::size_t min_rounds, double seconds) {
  const auto start = Clock::now();
  for (;;) {
    usleep(1000);
    std::size_t opened = 0;
    {
      const std::lock_guard<std::mutex> lock(rounds.mutex);
      opened = rounds.opened_ns.size();
    }
    const double elapsed = seconds_since(start);
    if ((opened >= min_rounds && elapsed >= seconds) || elapsed > 60.0) return;
  }
}

double batch_seconds(const std::vector<std::int64_t>& opened) {
  std::vector<double> batches;
  for (std::size_t i = kBatch; i < opened.size(); i += kBatch)
    batches.push_back(static_cast<double>(opened[i] - opened[i - kBatch]) / 1e9);
  return median(batches);
}

}  // namespace

Report run_socket_fleet(const Options& options) {
  Report report;
  Tracer tracer(options.trace);
  Tracer quiet(false);

  // Set-up: config text to the root's first on_round_start, several times.
  // The end is the time the root's hook recorded, not when drive() noticed.
  std::vector<double> setup;
  for (int i = 0; i < kSetupRepeats; ++i) {
    Rounds rounds;
    const std::int64_t start = now_ns();
    Fleet fleet(options.seed, i == 0 ? tracer : quiet, rounds);
    drive(rounds, 1, 0.0);
    const std::lock_guard<std::mutex> lock(rounds.mutex);
    if (rounds.opened_ns.empty()) throw std::runtime_error("the fleet opened no round");
    setup.push_back(static_cast<double>(rounds.opened_ns.front() - start) / 1e9);
  }

  struct Phase {
    Rounds rounds;
    std::uint64_t opened = 0, abandoned = 0, rejected = 0, reconnects = 0;
    std::uint64_t messages = 0, suppressed = 0, windows = 0, spike_replans = 0;
    std::uint64_t iteration_limits = 0;
    lp::SolveStats stats;
    std::vector<double> plan_us;
    double seconds = 0.0;
    double rss_mb = 0.0;
  };
  auto run_phase = [&](Phase& phase, double seconds, Tracer& t) {
    util::global_metrics().reset();
    phase.seconds = seconds;
    Fleet fleet(options.seed, t, phase.rounds);
    drive(phase.rounds, 2 * kBatch, seconds);
    fleet.stop();
    phase.rss_mb = peak_rss_mb();
    for (auto& m : fleet.members()) {
      phase.abandoned += m->transport->rounds_abandoned();
      phase.rejected += m->transport->frames_rejected();
      phase.reconnects += m->transport->reconnects();
      phase.messages += m->transport->messages_sent();
      phase.suppressed += m->member->replans_suppressed();
      phase.stats += m->timed->solver_stats();
      phase.iteration_limits += m->timed->fallbacks();
      const std::vector<double> plan_us = m->timed->plan_us();
      phase.plan_us.insert(phase.plan_us.end(), plan_us.begin(), plan_us.end());
    }
    phase.opened = phase.rounds.opened_ns.size();
    phase.windows = util::global_metrics().counter("coord.windows").value();
    phase.spike_replans = util::global_metrics().counter("coord.spike_replans").value();
  };
  Phase untraced;
  run_phase(untraced, options.trace ? options.seconds / 2 : options.seconds, quiet);
  Rounds& r = untraced.rounds;

  report.attempted = untraced.opened;
  report.failed = untraced.abandoned;
  report.check("every delivered aggregate equals the member-order sum of the "
               "provided vectors",
               r.mismatches == 0 && r.deliveries > 0);
  report.check("no frame rejected", untraced.rejected == 0);

  report.add("setup_s", median(setup), "s", setup.size());
  report.add("run_s", batch_seconds(r.opened_ns), "s", r.opened_ns.size() / kBatch);
  report.add("peak_rss_mb", untraced.rss_mb, "MB");
  report.add("op_us", percentile(r.round_us, 0.50), "us", r.round_us.size());
  report.add("failed_pct",
             untraced.opened ? 100.0 * static_cast<double>(untraced.abandoned) /
                                   static_cast<double>(untraced.opened)
                             : 0.0,
             "%");
  report.add("round_p50_us", percentile(r.round_us, 0.50), "us", r.round_us.size());
  report.add("round_p99_us", percentile(r.round_us, 0.99), "us", r.round_us.size());

  if (!options.trace) return report;

  Phase traced;
  run_phase(traced, options.seconds / 2, tracer);
  const double untraced_run = batch_seconds(r.opened_ns);
  const double traced_run = batch_seconds(traced.rounds.opened_ns);
  report.add("trace.untraced_run_s", untraced_run, "s");
  report.add("trace.traced_run_s", traced_run, "s");
  report.add("trace.overhead_pct", 100.0 * (traced_run - untraced_run) / untraced_run, "%");
  report.add("trace.untraced_round_p50_us", percentile(r.round_us, 0.50), "us");
  report.add("trace.traced_round_p50_us", percentile(traced.rounds.round_us, 0.50), "us");

  add_plan_metrics(report, traced.plan_us, traced.seconds, traced.stats,
                   traced.iteration_limits);
  report.add("coord.windows", static_cast<double>(traced.windows), "count");
  report.add("coord.spike_replans", static_cast<double>(traced.spike_replans), "count");
  report.add("coord.replans_suppressed", static_cast<double>(traced.suppressed), "count");
  report.add("coord.messages", static_cast<double>(traced.messages), "count");
  const auto boundary = tracer.durations_us("coord.window_boundary");
  report.add("coord.window_boundary_p50_us", percentile(boundary, 0.50), "us", boundary.size());
  report.add("coord.window_boundary_p99_us", percentile(boundary, 0.99), "us", boundary.size());
  const auto poll = tracer.durations_us("coord.socket.poll");
  report.add("coord.socket.poll_p50_us", percentile(poll, 0.50), "us", poll.size());
  report.add("coord.socket.poll_p99_us", percentile(poll, 0.99), "us", poll.size());
  report.add("coord.socket.leaf_delivery_p50_us", percentile(traced.rounds.leaf_us, 0.50),
             "us", traced.rounds.leaf_us.size());
  report.add("coord.socket.rounds_abandoned", static_cast<double>(traced.abandoned), "count");
  report.add("coord.socket.frames_rejected", static_cast<double>(traced.rejected), "count");
  report.add("coord.socket.reconnects", static_cast<double>(traced.reconnects), "count");
  report.add("experiments.load_ini_ms",
             median(tracer.durations_us("experiments.load_ini")) / 1e3, "ms");
  report.add("core.access_levels_ms",
             median(tracer.durations_us("core.access_levels")) / 1e3, "ms");
  // The coord.* latencies above come from spans, so none may be missing.
  report.check("the tracer kept every span", tracer.dropped() == 0);
  write_trace(report, tracer, options);
  return report;
}

}  // namespace perfbench
