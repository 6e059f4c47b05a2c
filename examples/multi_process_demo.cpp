// Cross-process control plane over loopback TCP (coord::SocketTransport).
//
// The launcher forks one OS process per redirector declared in the scenario
// (transport = socket). Each child hosts one coord::ControlPlane member and
// joins the star exchange: the lease-holding root paces rounds, the leaves
// report their demand vectors, and every process advances its scheduling
// window from the transport's on_round_start hook, so the whole fleet steps
// window boundaries on the same round tags. The parent pre-picks a real
// ephemeral port for EVERY process — the full mesh is what lets survivors
// find each other when the root dies.
//
// Three phases, all asserted (the demo is a ctest case):
//
//   1. Convergence — every child drives K windows over the wire, then
//      replays the identical schedule on a single-process
//      InProcessTransport fleet and requires its per-window plans, quotas
//      and demand vectors to match *bitwise*. The lockstep wire protocol
//      sums reports in the same member order with the same floating-point
//      order, so "close" is not accepted — equality is.
//
//   2. Rejoin — the highest-index leaf crashes (abrupt _Exit; no goodbye)
//      after three windows. The root prunes it at the next round deadline
//      and rounds RESUME with the smaller membership — no staleness, no
//      conservative fallback. The parent then restarts the leaf with a
//      bumped incarnation: the session layer re-admits it, the next round
//      boundary folds its member back in, and the restarted process planning
//      against delivered aggregates again is what the phase asserts — plus
//      readmissions/reconnects counters on the root.
//
//   3. Election — the ROOT crashes after three windows. The survivors see
//      the lease expire, the lowest live member acquires it (after every
//      lower-index peer refused its dials), rounds resume under the new
//      root, and every survivor's delivered round tags stay strictly
//      monotone across the handover.
//
// Usage: multi_process_demo <scenario.ini>   (see scenarios/multi_process.ini)
#include <sys/wait.h>
#include <unistd.h>

#include <chrono>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <memory>
#include <string>
#include <vector>

#include "coord/control_plane.hpp"
#include "coord/snapshot_transport.hpp"
#include "coord/socket_transport.hpp"
#include "experiments/scenario.hpp"
#include "experiments/scenario_ini.hpp"
#include "net/tcp.hpp"
#include "util/assert.hpp"
#include "util/metrics_registry.hpp"
#include "util/time.hpp"

namespace {

using sharegrid::experiments::ScenarioConfig;

constexpr int kWindows = 8;        // windows compared bitwise in phase 1
constexpr int kChurnWindows = 12;  // windows survivors drive in phases 2/3
constexpr int kCrashAfter = 3;     // victim exits after this many windows

// Membership timings, tuned tight so the churn phases finish quickly: the
// survivors declare a silent root dead after 120 ms and, in the election
// phase, the lowest live member runs for the lease; a crashed peer's
// redials start at 2 ms and cap at 32 ms.
constexpr std::int64_t kLeaseTtlUsec = 120'000;
constexpr std::int64_t kRedialBaseUsec = 2'000;
constexpr std::int64_t kRedialMaxUsec = 32'000;

std::int64_t now_usec() {
  return std::chrono::duration_cast<std::chrono::microseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

/// The scheduler run_scenario would build for this config: capacities come
/// from the declared machines, one replica each.
std::unique_ptr<sharegrid::sched::Scheduler> build_scheduler(
    const ScenarioConfig& config) {
  return sharegrid::experiments::scheduler_factory(config)(
      sharegrid::experiments::planning_graph(config, 1));
}

sharegrid::coord::ControlPlaneConfig plane_config(const ScenarioConfig& config) {
  sharegrid::coord::ControlPlaneConfig cp;
  cp.window = config.window;
  cp.redirector_count = config.redirector_count;
  cp.stale_policy = config.stale_policy;
  return cp;
}

/// Deterministic offered load for member `m`, window `k` (1-based): the
/// scenario's client rates scaled by a small per-window pattern, so the
/// demand estimators actually move and the plans differ window to window.
void inject_arrivals(const ScenarioConfig& config,
                     sharegrid::coord::ControlPlane::Member* member,
                     std::size_t m, int k) {
  const double window_sec = sharegrid::to_seconds(config.window);
  for (const auto& client : config.clients) {
    if (client.redirector != m) continue;
    const sharegrid::core::PrincipalId p = config.graph.find(client.principal);
    SHAREGRID_EXPECTS(p != sharegrid::core::kNoPrincipal);
    const double scale =
        0.5 + 0.5 * static_cast<double>((static_cast<std::size_t>(k) + m) % 3);
    member->record_arrival(p, client.rate * window_sec * scale);
  }
}

/// Everything one window boundary decided, captured bitwise.
struct WindowRecord {
  std::vector<double> demand;  // last_local_demand at begin_window
  std::vector<double> quota;   // remaining quota per principal
  std::vector<double> plan;    // full plan rate matrix, row-major
  bool global_valid = false;

  bool operator==(const WindowRecord& o) const {
    return demand == o.demand && quota == o.quota && plan == o.plan &&
           global_valid == o.global_valid;
  }
};

WindowRecord snapshot(const sharegrid::coord::ControlPlane::Member& member) {
  WindowRecord rec;
  rec.demand = member.last_local_demand();
  const std::size_t n = member.size();
  for (std::size_t i = 0; i < n; ++i)
    rec.quota.push_back(member.window_scheduler().remaining_quota(i));
  const auto& plan = member.window_scheduler().last_plan();
  for (std::size_t i = 0; i < n; ++i)
    for (std::size_t j = 0; j < n; ++j)
      rec.plan.push_back(plan.rate.rows() == 0 ? 0.0 : plan.rate(i, j));
  rec.global_valid = member.global().valid;
  return rec;
}

/// Attaches a single-member plane at its global slot on the shared
/// InProcessTransport. Each forked process registers its one member at
/// member_offset on the wire; the baseline mirrors that addressing.
class OffsetTransport final : public sharegrid::coord::SnapshotTransport {
 public:
  OffsetTransport(sharegrid::coord::InProcessTransport* inner,
                  std::size_t offset)
      : inner_(inner), offset_(offset) {}
  void attach(std::size_t member, Provider provider,
              Receiver receiver) override {
    inner_->attach(offset_ + member, std::move(provider), std::move(receiver));
  }
  void start() override {}
  void stop() override {}
  std::uint64_t messages_sent() const override { return 0; }

 private:
  sharegrid::coord::InProcessTransport* inner_;
  std::size_t offset_;
};

/// One full-fleet run on the synchronous in-process transport — the oracle
/// the socket fleet must match. Window k plans against the aggregate of
/// round k-1, exactly like the wire protocol's lockstep schedule. Each
/// member gets its own plane and scheduler, just like the per-process fleet:
/// the LP solver carries warm-start state between solves, so a scheduler
/// shared across members would see solve sequences no child process does.
std::vector<std::vector<WindowRecord>> run_baseline(
    const ScenarioConfig& config) {
  const std::size_t r = config.redirector_count;
  sharegrid::coord::InProcessTransport transport(r, config.graph.size());
  std::vector<std::unique_ptr<sharegrid::sched::Scheduler>> schedulers;
  std::vector<std::unique_ptr<sharegrid::coord::ControlPlane>> planes;
  std::vector<sharegrid::coord::ControlPlane::Member*> members;
  std::vector<OffsetTransport> adapters;
  adapters.reserve(r);
  for (std::size_t m = 0; m < r; ++m) {
    schedulers.push_back(build_scheduler(config));
    planes.push_back(std::make_unique<sharegrid::coord::ControlPlane>(
        schedulers[m].get(), plane_config(config)));
    members.push_back(planes[m]->add_member());
    adapters.emplace_back(&transport, m);
    planes[m]->connect(&adapters[m]);
  }
  transport.start();

  std::vector<std::vector<WindowRecord>> records(r);
  for (int k = 1; k <= kWindows; ++k) {
    for (std::size_t m = 0; m < r; ++m) {
      if (k == 1) {
        planes[m]->begin_windows(0);
      } else {
        planes[m]->end_windows();
        planes[m]->begin_windows(static_cast<sharegrid::SimTime>(k - 1) *
                                 config.window);
      }
      inject_arrivals(config, members[m], m, k);
      records[m].push_back(snapshot(*members[m]));
    }
    transport.exchange();
  }
  transport.stop();
  return records;
}

enum class Phase { kConverge, kRejoin, kElection };

const char* phase_name(Phase phase) {
  switch (phase) {
    case Phase::kConverge: return "convergence";
    case Phase::kRejoin: return "leaf-rejoin";
    case Phase::kElection: return "root-election";
  }
  return "?";
}

void print_socket_metrics(std::size_t index) {
  auto& metrics = sharegrid::util::global_metrics();
  std::printf(
      "member %zu metrics: coord.socket.reconnects=%llu "
      "coord.socket.elections=%llu coord.socket.sessions_active=%lld\n",
      index,
      static_cast<unsigned long long>(
          metrics.counter("coord.socket.reconnects").value()),
      static_cast<unsigned long long>(
          metrics.counter("coord.socket.elections").value()),
      static_cast<long long>(
          metrics.gauge("coord.socket.sessions_active").value()));
}

/// Body of one forked redirector process. `incarnation` > 1 marks a restart
/// (the rejoin phase's replacement leaf).
int run_child(const ScenarioConfig& config,
              const std::vector<std::string>& peers, std::size_t index,
              Phase phase, std::uint64_t incarnation) {
  const auto scheduler = build_scheduler(config);
  sharegrid::coord::ControlPlane plane(scheduler.get(), plane_config(config));
  sharegrid::coord::ControlPlane::Member* member = plane.add_member();

  int windows_begun = 0;
  bool round_gap = false;       // convergence: tags must be exactly 1,2,3...
  bool tags_monotone = true;    // churn phases: gaps fine, regressions never
  std::uint64_t last_tag = 0;
  std::vector<WindowRecord> records;

  sharegrid::coord::SocketTransport::Options options;
  options.peers = peers;
  options.process_index = index;
  options.incarnation = incarnation;
  options.member_offset = index;
  options.fleet_size = config.redirector_count;
  options.round_period_usec = 2000;
  options.io_timeout_ms = 20;
  options.election_enabled = phase == Phase::kElection;
  options.lease_ttl_usec = kLeaseTtlUsec;
  options.reconnect_base_usec = kRedialBaseUsec;
  options.reconnect_max_usec = kRedialMaxUsec;
  if (phase == Phase::kConverge) {
    // A deadline generous enough that an abandoned round means something is
    // genuinely wrong (and the bitwise comparison would be void anyway).
    options.round_deadline_usec = 5'000'000;
    options.stale_after_usec = 600'000'000;
  } else {
    // Churn phases: prune a dead peer within one deadline; keep staleness
    // out of the picture (rejoin and election are membership paths, not the
    // degradation path — coverage for that lives in the transport tests).
    options.round_deadline_usec = 40'000;
    options.stale_after_usec = 600'000'000;
  }
  options.on_round_start = [&](std::uint64_t round) {
    ++windows_begun;
    if (round != static_cast<std::uint64_t>(windows_begun)) round_gap = true;
    if (round <= last_tag) tags_monotone = false;
    last_tag = round;
    if (windows_begun == 1) {
      plane.begin_windows(0);
    } else {
      plane.end_windows();
      plane.begin_windows(static_cast<sharegrid::SimTime>(windows_begun - 1) *
                          config.window);
    }
    inject_arrivals(config, member, index, windows_begun);
    if (phase == Phase::kConverge && windows_begun <= kWindows)
      records.push_back(snapshot(*member));
  };

  sharegrid::coord::SocketTransport transport(
      /*local_member_count=*/1, config.graph.size(), std::move(options));
  plane.connect(&transport);
  transport.start();

  const std::int64_t hard_stop = now_usec() + 60'000'000;  // loaded-CI cap
  const std::size_t victim_index =
      phase == Phase::kElection ? 0 : config.redirector_count - 1;
  const bool victim = phase != Phase::kConverge && index == victim_index &&
                      incarnation == 1;
  int rejoin_window = -1;       // root: window at which the readmit landed
  int last_windows = 0;
  std::int64_t last_progress = now_usec();
  for (;;) {
    const std::int64_t now = now_usec();
    transport.poll(now);
    if (windows_begun != last_windows) {
      last_windows = windows_begun;
      last_progress = now;
    }
    if (phase == Phase::kConverge && windows_begun > kWindows) break;
    if (victim && windows_begun >= kCrashAfter) {
      // Abrupt death: no transport.stop(), no destructors, no FIN handshake
      // beyond what the kernel sends — the fleet must cope with exactly
      // this.
      std::printf("member %zu: crashing after window %d (simulated)\n", index,
                  windows_begun);
      std::fflush(stdout);
      std::_Exit(0);
    }
    if (!victim && phase != Phase::kConverge) {
      bool done = false;
      if (phase == Phase::kRejoin && index == 0) {
        // Root: must witness the prune AND the readmit, then pace enough
        // further rounds for the restarted leaf to plan against fresh
        // aggregates and exit — the pacer leaving first would starve it.
        if (rejoin_window < 0 && transport.readmissions() >= 1 &&
            transport.reconnects() >= 1)
          rejoin_window = windows_begun;
        done = rejoin_window >= 0 && windows_begun >= rejoin_window + 50;
      } else if (incarnation > 1) {
        // Restarted leaf: done once it is planning against delivered
        // aggregates again — folded in at a boundary, not just reconnected.
        done = windows_begun >= kCrashAfter && member->global().valid;
      } else if (phase == Phase::kElection && index == 1) {
        // Election winner becomes the pacer: overshoot the quota so the
        // followers reach theirs before rounds stop.
        done = windows_begun >= kChurnWindows + 50;
      } else if (phase == Phase::kElection) {
        // Follower: exit as soon as the quota is met under the elected
        // root — lingering after the new pacer quits would start a second
        // election (this process is then the lowest live member).
        done = windows_begun >= kChurnWindows && transport.has_root() &&
               transport.root_index() == 1;
      } else {
        // Plain survivor: quota met and rounds have stopped flowing —
        // the phase's pacer has exited, nothing more will arrive.
        done = windows_begun >= kChurnWindows && now - last_progress > 300'000;
      }
      if (done) break;
    }
    if (now > hard_stop) {
      std::fprintf(
          stderr,
          "member %zu: timed out (windows=%d readmissions=%llu "
          "elections=%llu reject=%s)\n",
          index, windows_begun,
          static_cast<unsigned long long>(transport.readmissions()),
          static_cast<unsigned long long>(transport.elections()),
          transport.last_reject_reason().c_str());
      transport.stop();
      return 3;
    }
    usleep(300);
  }
  transport.stop();

  if (phase == Phase::kConverge) {
    // Phase 1: replay the fleet in-process and demand bitwise equality.
    if (round_gap || transport.rounds_abandoned() != 0) {
      std::fprintf(stderr, "member %zu: round abandoned during convergence\n",
                   index);
      return 2;
    }
    if (transport.frames_rejected() != 0) {
      std::fprintf(stderr, "member %zu: rejected frames on a clean run: %s\n",
                   index, transport.last_reject_reason().c_str());
      return 2;
    }
    const auto baseline = run_baseline(config);
    if (records.size() != static_cast<std::size_t>(kWindows) ||
        records != baseline[index]) {
      std::fprintf(stderr,
                   "member %zu: socket plans diverge from InProcessTransport\n",
                   index);
      return 1;
    }
    std::printf(
        "member %zu: %d windows over TCP, plans bitwise-identical to the "
        "in-process baseline (messages_sent=%llu)\n",
        index, kWindows,
        static_cast<unsigned long long>(transport.messages_sent()));
    return 0;
  }

  // Churn phases: tags must never regress, whatever else happened.
  if (!tags_monotone) {
    std::fprintf(stderr, "member %zu: round tags regressed\n", index);
    return 2;
  }
  if (phase == Phase::kRejoin) {
    if (incarnation > 1) {
      if (transport.frames_rejected() != 0) {
        std::fprintf(stderr, "member %zu: restart saw rejected frames: %s\n",
                     index, transport.last_reject_reason().c_str());
        return 2;
      }
      std::printf(
          "member %zu: restarted at incarnation %llu, rejoined and planned "
          "%d windows against fresh aggregates\n",
          index, static_cast<unsigned long long>(incarnation), windows_begun);
    } else if (index == 0) {
      std::printf(
          "member 0: pruned the dead leaf and re-admitted its restart "
          "(readmissions=%llu reconnects=%llu members_live=%zu)\n",
          static_cast<unsigned long long>(transport.readmissions()),
          static_cast<unsigned long long>(transport.reconnects()),
          transport.members_live());
      print_socket_metrics(index);
    }
    return 0;
  }

  // Election phase survivors.
  const std::size_t lowest_survivor = 1;
  if (index == lowest_survivor) {
    if (!transport.is_root() || transport.elections() != 1) {
      std::fprintf(stderr,
                   "member %zu: expected to win the election (root=%d "
                   "elections=%llu)\n",
                   index, transport.is_root() ? 1 : 0,
                   static_cast<unsigned long long>(transport.elections()));
      return 2;
    }
    std::printf(
        "member %zu: acquired the root lease (incarnation %llu) and drove "
        "rounds through window %d\n",
        index, static_cast<unsigned long long>(transport.lease_incarnation()),
        windows_begun);
    print_socket_metrics(index);
  } else {
    if (!transport.has_root() || transport.root_index() != lowest_survivor ||
        transport.elections() != 0) {
      std::fprintf(stderr,
                   "member %zu: expected to follow member %zu (root_index=%zu "
                   "elections=%llu)\n",
                   index, lowest_survivor,
                   transport.has_root() ? transport.root_index() : 999,
                   static_cast<unsigned long long>(transport.elections()));
      return 2;
    }
    std::printf("member %zu: adopted the elected root (member %zu), tags "
                "stayed monotone\n",
                index, transport.root_index());
  }
  return 0;
}

/// Grabs an ephemeral loopback port. A tiny bind race remains between close
/// and the child's re-bind, but SO_REUSEADDR plus the kernel's
/// ephemeral-port rotation make it vanishingly unlikely.
std::uint16_t pick_port() {
  return sharegrid::net::Socket::listen_on_loopback(0).local_port();
}

pid_t fork_child(const ScenarioConfig& config,
                 const std::vector<std::string>& peers, std::size_t index,
                 Phase phase, std::uint64_t incarnation) {
  const pid_t pid = fork();
  if (pid != 0) return pid;
  int code = 4;
  try {
    code = run_child(config, peers, index, phase, incarnation);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "member %zu: %s\n", index, e.what());
  }
  std::fflush(stdout);
  std::_Exit(code);
}

bool wait_for(pid_t pid) {
  int status = 0;
  return waitpid(pid, &status, 0) == pid && WIFEXITED(status) &&
         WEXITSTATUS(status) == 0;
}

/// Forks the fleet and waits for every child to exit cleanly. In the rejoin
/// phase the crashed leaf is restarted (same index, incarnation 2) once its
/// first instance has exited.
bool run_phase(const ScenarioConfig& config, Phase phase) {
  // The full mesh gets real ports up front: election and rejoin require
  // every process to be dialable, not just the initial root.
  std::vector<std::string> peers;
  for (std::size_t i = 0; i < config.redirector_count; ++i)
    peers.push_back("127.0.0.1:" + std::to_string(pick_port()));
  std::fflush(stdout);

  std::vector<pid_t> children;
  for (std::size_t i = 0; i < config.redirector_count; ++i) {
    const pid_t pid = fork_child(config, peers, i, phase, 1);
    if (pid < 0) {
      std::perror("fork");
      return false;
    }
    children.push_back(pid);
  }

  bool ok = true;
  if (phase == Phase::kRejoin) {
    // The victim (highest index) crashes first; restart it with a bumped
    // incarnation while the rest of the fleet keeps running. The pause
    // spans several round deadlines so the root demonstrably PRUNES the
    // dead leaf (rounds keep completing without it) before the restart is
    // re-admitted — an instant restart would slot into the open round and
    // the membership gap this phase exists to exercise would never happen.
    const std::size_t victim = config.redirector_count - 1;
    ok = wait_for(children[victim]);
    usleep(150'000);
    children[victim] = ok ? fork_child(config, peers, victim, phase, 2) : -1;
    if (children[victim] < 0) ok = false;
  }
  for (std::size_t i = 0; i < children.size(); ++i) {
    if (children[i] < 0) continue;
    if (!wait_for(children[i])) ok = false;
  }
  std::printf("phase %s: %s\n", phase_name(phase), ok ? "ok" : "FAILED");
  return ok;
}

}  // namespace

int main(int argc, char** argv) {
  if (argc != 2) {
    std::fprintf(stderr, "usage: %s <scenario.ini>\n", argv[0]);
    return 64;
  }
  ScenarioConfig config;
  try {
    config = sharegrid::experiments::load_scenario_file(argv[1]);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "%s\n", e.what());
    return 64;
  }
  if (config.transport != ScenarioConfig::TransportKind::kSocket) {
    std::fprintf(stderr,
                 "%s: scenario must set [control_plane] transport = socket\n",
                 argv[1]);
    return 64;
  }
  if (config.redirector_count < 3) {
    std::fprintf(stderr,
                 "need at least 3 redirector processes (the election phase "
                 "kills one and still wants a root and a follower)\n");
    return 64;
  }

  std::printf("forking %zu redirector processes over loopback TCP\n",
              config.redirector_count);
  const bool converged = run_phase(config, Phase::kConverge);
  const bool rejoined = converged && run_phase(config, Phase::kRejoin);
  const bool elected = rejoined && run_phase(config, Phase::kElection);
  if (!(converged && rejoined && elected)) return 1;
  std::printf(
      "multi_process_demo: plan-convergence: ok; leaf-rejoin: ok; "
      "root-election: ok\n");
  return 0;
}
