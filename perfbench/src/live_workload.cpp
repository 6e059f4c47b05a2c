// live_l7: live::L7Service over loopback TCP, driven by a closed loop of
// client threads. Each client sends its next request only after the reply
// to the previous one, so the service sees at most one connection per
// client. Gold [0.6, 1] and bronze [0.05, 0.1] together offer far more than
// the 200 req/s capacity, so both admits and self-redirects occur.
#include <atomic>
#include <random>
#include <sstream>
#include <thread>

#include "http/message.hpp"
#include "live/l7_service.hpp"
#include "live/wall_clock_admission.hpp"
#include "net/tcp.hpp"
#include "sched/response_time_scheduler.hpp"
#include "util/assert.hpp"
#include "util/metrics_registry.hpp"
#include "workloads.hpp"

namespace perfbench {

using namespace sharegrid;

namespace {

constexpr std::size_t kMaxClients = 3;
constexpr std::size_t kBatch = 2000;  // requests per run_s batch
constexpr double kSamplesPerClientSecond = 40000;  // sample buffer headroom
constexpr int kSetupRepeats = 31;

std::string live_text(std::uint64_t seed) {
  std::ostringstream s;
  s << "layer = l7\nscheduler = response_time\nduration = 1\nseed = " << seed
    << "\n[principal]\nname = S\n[principal]\nname = gold\n"
    << "[principal]\nname = bronze\n"
    << "[agreement]\nowner = S\nuser = gold\nlower = 0.6\nupper = 1.0\n"
    << "[agreement]\nowner = S\nuser = bronze\nlower = 0.05\nupper = 0.1\n"
    << "[server]\nowner = S\ncapacity = 200\n"
    << "[client]\nname = gold\nprincipal = gold\nrate = 1\nactive = 0-1\n"
    << "[client]\nname = bronze\nprincipal = bronze\nrate = 1\nactive = 0-1\n";
  return s.str();
}

/// Everything one service instance needs, built from the scenario text.
struct Deployment {
  core::AgreementGraph graph;
  std::unique_ptr<sched::ResponseTimeScheduler> scheduler;
  std::unique_ptr<TimedScheduler> timed;
  std::unique_ptr<live::L7Service> service;
  std::string backend_host;
};

constexpr std::uint16_t kBackendPort = 9;  // never dialled: Location text only

/// Builds the service from the scenario text; its plan calls are timed on
/// @p tracer.
std::unique_ptr<Deployment> deploy(std::uint64_t seed, Tracer& tracer) {
  auto d = std::make_unique<Deployment>();
  experiments::ScenarioConfig config;
  {
    auto span = tracer.span("experiments.load_ini");
    config = load_scenario_text(live_text(seed));
  }
  d->graph = planning_graph(config);
  core::AccessLevels levels;
  {
    auto span = tracer.span("core.access_levels");
    levels = core::compute_access_levels(d->graph);
  }
  d->scheduler = std::make_unique<sched::ResponseTimeScheduler>(d->graph, levels);
  d->timed = std::make_unique<TimedScheduler>(d->scheduler.get(), &tracer);
  d->backend_host = "127.0.0.1:" + std::to_string(kBackendPort);
  live::L7Service::Config sc;
  sc.backends = {{d->backend_host, d->graph.find("S")}};
  d->service = std::make_unique<live::L7Service>(d->timed.get(), d->graph, sc);
  d->service->start();
  return d;
}

enum class Outcome { kAdmitted, kSelfRedirect, kBad };

/// One request, connect to parsed reply, checked against the two Locations
/// the service may answer with.
Outcome request(std::uint16_t port, const std::string& principal,
                const std::string& backend_host, Tracer& tracer) {
  const std::string target = "/org/" + principal + "/index.html";
  std::string head;
  {
    net::Socket conn;
    {
      auto span = tracer.span("net.connect");
      conn = net::Socket::connect_loopback(port);
    }
    std::string bytes;
    {
      auto span = tracer.span("http.serialize_request");
      http::Request req;
      req.target = target;
      bytes = req.serialize();
    }
    {
      auto span = tracer.span("net.write");
      conn.write_all(bytes);
    }
    auto span = tracer.span("net.read_head");
    head = conn.read_http_head();
  }
  std::optional<http::Response> reply;
  {
    auto span = tracer.span("http.parse_response");
    reply = http::parse_response(head);
  }
  if (!reply || reply->status != 302) return Outcome::kBad;
  const auto location = reply->headers.find("location");
  if (location == reply->headers.end()) return Outcome::kBad;
  if (location->second == "http://" + backend_host + target)
    return Outcome::kAdmitted;
  if (location->second == "http://127.0.0.1:" + std::to_string(port) + target)
    return Outcome::kSelfRedirect;
  return Outcome::kBad;
}

struct ClientLog {
  explicit ClientLog(std::size_t capacity) : latency_us(capacity) {}

  Samples latency_us;  // request latency by completion time
  std::uint64_t admitted = 0, self_redirected = 0, bad = 0, io_errors = 0;
  std::uint64_t gold_sent = 0, gold_admitted = 0, bronze_sent = 0, bronze_admitted = 0;
};

/// All clients' logs folded together, made after the measured phase.
struct Totals {
  std::vector<double> latency_us;
  std::vector<std::int64_t> done_ns;
  std::uint64_t admitted = 0, self_redirected = 0, bad = 0, io_errors = 0;
  std::uint64_t gold_sent = 0, gold_admitted = 0, bronze_sent = 0, bronze_admitted = 0;

  void merge(const ClientLog& o) {
    const auto values = o.latency_us.values();
    const auto done = o.latency_us.done_ns();
    latency_us.insert(latency_us.end(), values.begin(), values.end());
    done_ns.insert(done_ns.end(), done.begin(), done.end());
    admitted += o.admitted;
    self_redirected += o.self_redirected;
    bad += o.bad;
    io_errors += o.io_errors;
    gold_sent += o.gold_sent;
    gold_admitted += o.gold_admitted;
    bronze_sent += o.bronze_sent;
    bronze_admitted += o.bronze_admitted;
  }
};

/// Runs the closed loop for @p seconds with @p clients threads.
std::vector<ClientLog> closed_loop(const Deployment& d, std::size_t clients,
                                   double seconds, std::uint64_t seed,
                                   Tracer& tracer) {
  std::vector<ClientLog> logs;
  for (std::size_t c = 0; c < clients; ++c)
    logs.emplace_back(static_cast<std::size_t>(seconds * kSamplesPerClientSecond));
  const std::int64_t stop_ns = now_ns() + static_cast<std::int64_t>(seconds * 1e9);
  const std::uint16_t port = d.service->port();
  std::vector<std::thread> threads;
  for (std::size_t c = 0; c < clients; ++c) {
    threads.emplace_back([&, c] {
      std::mt19937_64 rng(seed * 1000003u + c);
      ClientLog& log = logs[c];
      for (std::int64_t start = now_ns(); start < stop_ns; start = now_ns()) {
        const bool gold = (rng() & 1) != 0;
        const std::string principal = gold ? "gold" : "bronze";
        ++(gold ? log.gold_sent : log.bronze_sent);
        Outcome outcome = Outcome::kBad;
        try {
          auto span = tracer.span("live.request");
          outcome = request(port, principal, d.backend_host, tracer);
        } catch (const ContractViolation&) {
          ++log.io_errors;
          continue;
        }
        const std::int64_t end = now_ns();
        log.latency_us.add(end, static_cast<double>(end - start) / 1e3);
        if (outcome == Outcome::kAdmitted) {
          ++log.admitted;
          ++(gold ? log.gold_admitted : log.bronze_admitted);
        }
        if (outcome == Outcome::kSelfRedirect) ++log.self_redirected;
        if (outcome == Outcome::kBad) ++log.bad;
      }
    });
  }
  for (auto& t : threads) t.join();
  return logs;
}

/// Median time per batch of kBatch consecutive completions.
double batch_seconds(std::vector<std::int64_t> done) {
  std::sort(done.begin(), done.end());
  std::vector<double> batches;
  for (std::size_t i = kBatch; i < done.size(); i += kBatch)
    batches.push_back(static_cast<double>(done[i] - done[i - kBatch]) / 1e9);
  return median(batches);
}

template <typename F>
double ns_per_call(F&& body) {
  // Median over batches of 1000 calls: single calls are too short to time.
  std::vector<double> per_call;
  for (int batch = 0; batch < 50; ++batch) {
    const std::int64_t start = now_ns();
    for (int i = 0; i < 1000; ++i) body();
    per_call.push_back(static_cast<double>(now_ns() - start) / 1000.0);
  }
  return median(per_call);
}

/// Direct timed calls into the admission path, the HTTP codec and the TCP
/// connect, on the workload's graph and scheduler.
void add_live_layer_metrics(Report& report, Tracer& tracer,
                            const sched::Scheduler& scheduler,
                            const core::AgreementGraph& graph,
                            std::uint64_t seed) {
  // Admission on the same scheduler, outside the service: one call per
  // decision, alternating principals the way the clients do.
  live::WallClockAdmission admission(&scheduler, 100000);
  admission.reset_clock();
  std::mt19937_64 rng(seed);
  const core::PrincipalId gold = graph.find("gold");
  const core::PrincipalId bronze = graph.find("bronze");
  std::vector<double> admit_ns;
  for (int i = 0; i < 20000; ++i) {
    const core::PrincipalId p = (rng() & 1) ? gold : bronze;
    const std::int64_t start = now_ns();
    {
      auto span = tracer.span("live.try_admit");
      (void)admission.try_admit(p);
    }
    admit_ns.push_back(static_cast<double>(now_ns() - start));
  }
  report.add("live.try_admit_p50_ns", percentile(admit_ns, 0.50), "ns", admit_ns.size());
  report.add("live.try_admit_p99_ns", percentile(admit_ns, 0.99), "ns", admit_ns.size());

  http::Request req;
  req.target = "/org/gold/index.html";
  const std::string head = req.serialize();
  std::size_t sink = 0;
  report.add("http.parse_request_ns",
             ns_per_call([&] { sink += http::parse_request(head)->target.size(); }),
             "ns");
  report.add("http.serialize_reply_ns", ns_per_call([&] {
               sink += http::make_server_redirect(req, "127.0.0.1:9").serialize().size();
             }),
             "ns");
  if (sink == 0) report.notes.push_back("codec produced no bytes");

  // Loopback connects against a listener whose accepts are drained by a
  // helper thread.
  net::Socket listener = net::Socket::listen_on_loopback(0, 64);
  const std::uint16_t port = listener.local_port();
  std::atomic<bool> done{false};
  std::thread acceptor([&] {
    while (!done.load()) {
      try {
        listener.accept();
      } catch (const ContractViolation&) {
      }
    }
  });
  std::vector<double> connect_us;
  for (int i = 0; i < 500; ++i) {
    const std::int64_t start = now_ns();
    net::Socket conn = net::Socket::connect_loopback(port);
    connect_us.push_back(static_cast<double>(now_ns() - start) / 1e3);
  }
  done.store(true);
  net::Socket::connect_loopback(port);  // wakes the acceptor
  acceptor.join();
  report.add("net.connect_p50_us", percentile(connect_us, 0.5), "us", connect_us.size());
}

}  // namespace

Report run_live_l7(const Options& options) {
  Report report;
  Tracer tracer(options.trace);
  Tracer quiet(false);
  const std::size_t clients = std::min<std::size_t>(
      kMaxClients, std::max(1u, std::thread::hardware_concurrency() - 1));

  // Set-up: config text to the first served request, several times.
  std::vector<double> setup;
  bool first_ok = true;
  for (int i = 0; i < kSetupRepeats; ++i) {
    const auto start = Clock::now();
    auto d = deploy(options.seed, i == 0 ? tracer : quiet);
    const Outcome first = request(d->service->port(), "gold", d->backend_host, quiet);
    setup.push_back(seconds_since(start));
    first_ok = first_ok && first != Outcome::kBad;
    d->service->stop();
  }
  report.check("each first request is answered with a well-formed 302", first_ok);

  auto d = deploy(options.seed, quiet);
  // A traced run spends half its budget untraced, then half traced.
  const double untraced_seconds = options.trace ? options.seconds / 2 : options.seconds;
  auto logs = closed_loop(*d, clients, untraced_seconds, options.seed, quiet);
  const double rss_mb = peak_rss_mb();
  std::vector<ClientLog> traced_logs;
  if (options.trace) {
    util::global_metrics().reset();
    d->timed->clear_plans();
    d->timed->set_tracer(&tracer);
    traced_logs = closed_loop(*d, clients, options.seconds / 2, options.seed + 1, tracer);
  }
  d->service->stop();

  Totals all;
  for (const auto& log : logs) all.merge(log);
  std::uint64_t replies = 0;
  for (const auto& log : logs) replies += log.latency_us.size() + log.latency_us.dropped();
  report.attempted = replies + all.io_errors;
  report.failed = all.bad + all.io_errors;
  report.check("every reply is a well-formed 302 to the backend or the service",
               all.bad == 0 && all.io_errors == 0);
  report.check("admits and self-redirects both occur",
               all.admitted > 0 && all.self_redirected > 0);

  const double run_s = batch_seconds(all.done_ns);
  report.add("setup_s", median(setup), "s", setup.size());
  report.add("run_s", run_s, "s", all.done_ns.size() / kBatch);
  report.add("peak_rss_mb", rss_mb, "MB");
  report.add("op_us", percentile(all.latency_us, 0.50), "us", all.latency_us.size());
  report.add("failed_pct",
             report.attempted ? 100.0 * static_cast<double>(report.failed) /
                                    static_cast<double>(report.attempted)
                              : 0.0,
             "%");
  report.add("decisions_per_s", static_cast<double>(replies) / untraced_seconds, "1/s");
  report.add("request_p50_us", percentile(all.latency_us, 0.50), "us", all.latency_us.size());
  report.add("request_p99_us", percentile(all.latency_us, 0.99), "us", all.latency_us.size());
  {
    // Compliance over the whole run: each principal's admitted rate against
    // its guarantee and ceiling; every request it sent counts as offered.
    const core::AccessLevels levels = core::compute_access_levels(d->graph);
    std::vector<double> offered(d->graph.size(), 0.0), served(d->graph.size(), 0.0);
    const core::PrincipalId gold = d->graph.find("gold"), bronze = d->graph.find("bronze");
    offered[gold] = static_cast<double>(all.gold_sent) / untraced_seconds;
    offered[bronze] = static_cast<double>(all.bronze_sent) / untraced_seconds;
    served[gold] = static_cast<double>(all.gold_admitted) / untraced_seconds;
    served[bronze] = static_cast<double>(all.bronze_admitted) / untraced_seconds;
    report.add("agreement_violation_pct",
               violation_pct(levels, d->graph.capacity(d->graph.find("S")), offered, served),
               "%");
  }
  report.notes.push_back("clients " + std::to_string(clients) + ", admitted " +
                         std::to_string(all.admitted) + ", self-redirected " +
                         std::to_string(all.self_redirected));

  if (!options.trace) return report;

  std::size_t traced_replies = 0;
  std::uint64_t traced_self = 0, traced_admitted = 0;
  for (const auto& log : traced_logs) {
    traced_replies += log.latency_us.size() + log.latency_us.dropped();
    traced_self += log.self_redirected;
    traced_admitted += log.admitted;
  }
  const double traced_rate = static_cast<double>(traced_replies) / (options.seconds / 2);
  const double untraced_rate = static_cast<double>(replies) / untraced_seconds;
  report.add("trace.untraced_run_s", kBatch / untraced_rate, "s");
  report.add("trace.traced_run_s", kBatch / traced_rate, "s");
  report.add("trace.overhead_pct", 100.0 * (untraced_rate / traced_rate - 1.0), "%");
  report.add("live.self_redirect_pct",
             100.0 * static_cast<double>(traced_self) /
                 static_cast<double>(std::max<std::uint64_t>(traced_self + traced_admitted, 1)),
             "%");
  report.add("coord.windows",
             static_cast<double>(util::global_metrics().counter("coord.windows").value()),
             "count");
  report.add("coord.spike_replans",
             static_cast<double>(
                 util::global_metrics().counter("coord.spike_replans").value()),
             "count");
  add_plan_metrics(report, d->timed->plan_us(), options.seconds / 2,
                   d->timed->solver_stats(), d->timed->fallbacks());
  add_live_layer_metrics(report, tracer, *d->scheduler, d->graph, options.seed);
  report.add("experiments.load_ini_ms",
             median(tracer.durations_us("experiments.load_ini")) / 1e3, "ms");
  report.add("core.access_levels_ms",
             median(tracer.durations_us("core.access_levels")) / 1e3, "ms");
  write_trace(report, tracer, options);
  return report;
}

}  // namespace perfbench
