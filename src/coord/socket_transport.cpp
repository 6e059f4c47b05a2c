#include "coord/socket_transport.hpp"

#include <algorithm>
#include <limits>
#include <utility>

#include "audit/invariant_auditor.hpp"
#include "util/assert.hpp"
#include "util/metrics_registry.hpp"

namespace sharegrid::coord {
namespace {

util::MetricCounter& rejected_counter() {
  static util::MetricCounter& counter = util::global_metrics().counter(
      "coord.socket.frames_rejected",
      "malformed or unexpected control-plane frames dropped");
  return counter;
}
util::MetricCounter& abandoned_counter() {
  static util::MetricCounter& counter = util::global_metrics().counter(
      "coord.socket.rounds_abandoned",
      "snapshot rounds abandoned at the deadline with reports missing");
  return counter;
}
util::MetricCounter& stale_counter() {
  static util::MetricCounter& counter = util::global_metrics().counter(
      "coord.socket.stale_fallbacks",
      "staleness threshold hits that dropped members to the 1/R regime");
  return counter;
}
util::MetricCounter& elections_counter() {
  static util::MetricCounter& counter = util::global_metrics().counter(
      "coord.socket.elections",
      "root leases acquired by this process after detecting expiry");
  return counter;
}

constexpr std::int64_t kNeverRefused = std::numeric_limits<std::int64_t>::min();

}  // namespace

SocketTransport::SocketTransport(std::size_t local_member_count,
                                 std::size_t vector_size, Options options)
    : local_member_count_(local_member_count),
      vector_size_(vector_size),
      options_(std::move(options)),
      fleet_size_(options_.fleet_size != 0 ? options_.fleet_size
                                           : options_.peers.size()),
      providers_(local_member_count),
      receivers_(local_member_count),
      stale_handlers_(local_member_count) {
  SHAREGRID_EXPECTS(local_member_count >= 1);
  SHAREGRID_EXPECTS(vector_size >= 1);
  SHAREGRID_EXPECTS(!options_.peers.empty());
  SHAREGRID_EXPECTS(options_.process_index < options_.peers.size());
  SHAREGRID_EXPECTS(options_.incarnation >= 1);
  SHAREGRID_EXPECTS(options_.member_offset + local_member_count <=
                    fleet_size_);
  SHAREGRID_EXPECTS(options_.round_period_usec > 0);
  SHAREGRID_EXPECTS(options_.round_deadline_usec > 0);
  SHAREGRID_EXPECTS(options_.lease_ttl_usec > 0);
  SHAREGRID_EXPECTS(options_.io_timeout_ms > 0);
  SessionManager::Options session;
  session.peers = options_.peers;
  session.self_index = options_.process_index;
  session.incarnation = options_.incarnation;
  session.allow_nonlocal = options_.allow_nonlocal;
  session.reconnect_base_usec = options_.reconnect_base_usec;
  session.reconnect_max_usec = options_.reconnect_max_usec;
  session.io_timeout_ms = options_.io_timeout_ms;
  session.hello_aux =
      (static_cast<std::uint64_t>(options_.member_offset) << 32) |
      static_cast<std::uint64_t>(local_member_count_);
  session.on_reject = [this](const char* why) { reject_frame(why); };
  session_ = std::make_unique<SessionManager>(std::move(session));
}

SocketTransport::~SocketTransport() { stop(); }

void SocketTransport::attach(std::size_t member, Provider provider,
                             Receiver receiver) {
  SHAREGRID_EXPECTS(member < local_member_count_);
  providers_[member] = std::move(provider);
  receivers_[member] = std::move(receiver);
}

void SocketTransport::attach_stale_handler(std::size_t member,
                                           std::function<void()> on_stale) {
  SHAREGRID_EXPECTS(member < local_member_count_);
  stale_handlers_[member] = std::move(on_stale);
}

void SocketTransport::start() {
  SHAREGRID_EXPECTS(!running_.load());
  // Process 0 at incarnation 1 bootstraps the lease; every other process —
  // including a restarted process 0 — starts as a follower and adopts the
  // lease the current root sends it on session establishment.
  role_root_ = options_.process_index == 0 && options_.incarnation == 1;
  lease_known_ = false;
  lease_root_ = 0;
  lease_inc_ = role_root_ ? 1 : 0;
  lease_expiry_usec_ = 0;
  highest_inc_seen_ = lease_inc_;
  next_heartbeat_usec_ = 0;
  electing_ = false;
  last_refusal_usec_.assign(options_.peers.size(), kNeverRefused);
  processes_.assign(options_.peers.size(), Process{});
  processes_[options_.process_index].range_known = true;
  processes_[options_.process_index].member_offset = options_.member_offset;
  processes_[options_.process_index].member_count = local_member_count_;
  round_open_ = false;
  current_round_ = 0;
  next_round_start_usec_ = 0;
  report_slots_.assign(fleet_size_, {});
  report_seen_.assign(fleet_size_, false);
  reports_pending_ = 0;
  last_round_members_ = 0;
  has_delivered_ = false;
  last_delivered_round_ = 0;
  stale_fired_ = false;
  session_->start();
  // Full mesh: any process may need to reach any other (reports to a future
  // root, refusal evidence from dead lower-index peers during an election).
  for (std::size_t p = 0; p < options_.peers.size(); ++p)
    if (p != options_.process_index) session_->want(p, true);
  running_.store(true);
}

void SocketTransport::stop() {
  if (!running_.exchange(false)) return;
  session_->stop();
}

void SocketTransport::reject_frame(const char* why) {
  frames_rejected_.fetch_add(1, std::memory_order_relaxed);
  rejected_counter().add();
  const util::MutexLock lock(mutex_);
  last_reject_reason_ = why;
}

std::string SocketTransport::last_reject_reason() const {
  const util::MutexLock lock(mutex_);
  return last_reject_reason_;
}

void SocketTransport::poll(std::int64_t now_usec) {
  if (!running_.load()) return;
  session_->poll(now_usec);
  for (const SessionManager::Event& event : session_->take_events())
    handle_event(event, now_usec);
  if (!role_root_) maybe_elect(now_usec);
  if (role_root_) {
    if (now_usec >= next_heartbeat_usec_) {
      session_->broadcast(lease_bytes());
      next_heartbeat_usec_ = now_usec + options_.lease_ttl_usec / 3;
    }
    poll_round_root(now_usec);
  }
  check_staleness(now_usec);
}

void SocketTransport::handle_event(const SessionManager::Event& event,
                                   std::int64_t now_usec) {
  switch (event.kind) {
    case SessionManager::Event::Kind::kPeerUp: {
      const std::size_t offset =
          static_cast<std::size_t>(event.aux >> 32);
      const std::size_t count =
          static_cast<std::size_t>(event.aux & 0xffffffffu);
      if (count == 0 || offset + count > fleet_size_) {
        reject_frame("hello member range out of range");
        session_->disconnect(event.peer);
        return;
      }
      processes_[event.peer].range_known = true;
      processes_[event.peer].member_offset = offset;
      processes_[event.peer].member_count = count;
      // The root introduces itself to every newcomer immediately, so a
      // rejoining process adopts the lease before the first round-start it
      // sees (frames on one session are ordered).
      if (role_root_) send_lease(event.peer);
      return;
    }
    case SessionManager::Event::Kind::kPeerDown:
      // Membership changes only at round boundaries: an open round that
      // just lost a reporter runs into its deadline, and the next
      // open_round() captures the shrunken live set.
      return;
    case SessionManager::Event::Kind::kDialRefused:
      last_refusal_usec_[event.peer] = now_usec;
      return;
    case SessionManager::Event::Kind::kFrame:
      break;
  }
  wire::Frame frame = event.frame;
  switch (frame.type) {
    case wire::FrameType::kLease:
      handle_lease(event.peer, frame, now_usec);
      return;
    case wire::FrameType::kLeaseAck:
      handle_lease_ack(event.peer, frame);
      return;
    case wire::FrameType::kReport:
      if (!role_root_) {
        // A reporter that still believes we hold the lease; its report is
        // for a round that died with our tenure.
        reject_frame("report at non-root");
        return;
      }
      handle_report(event.peer, frame);
      return;
    case wire::FrameType::kRoundStart:
      if (role_root_) {
        fence_zombie_root(event.peer, "round start from rival root");
        return;
      }
      handle_round_start(event.peer, frame, now_usec);
      return;
    case wire::FrameType::kAggregate:
      if (role_root_) {
        fence_zombie_root(event.peer, "aggregate from rival root");
        return;
      }
      handle_aggregate(event.peer, frame, now_usec);
      return;
    case wire::FrameType::kHello:
      reject_frame("unexpected hello frame");  // the session layer owns these
      return;
  }
}

void SocketTransport::handle_lease(std::size_t from, const wire::Frame& frame,
                                   std::int64_t now_usec) {
  if (frame.member != from) {
    reject_frame("lease root mismatch");
    return;
  }
  if (frame.aux == 0) {
    reject_frame("lease ttl zero");
    return;
  }
  const std::uint64_t inc = frame.incarnation;
  if (inc < highest_inc_seen_) {
    // A zombie root still advertising a superseded lease: reject it and
    // answer with the incarnation that displaced it so it steps down.
    fence_zombie_root(from, "stale lease incarnation");
    return;
  }
  if (role_root_) {
    if (inc > lease_inc_) {
      step_down(inc);
    } else {
      // Same incarnation, different holder: that is a genuine split brain,
      // and the audit below is the one that fires on it.
      SHAREGRID_AUDIT_HOOK(audit::audit_lease_monotone(
          true, lease_inc_, options_.process_index, inc, frame.member));
      reject_frame("rival lease at same incarnation");
      return;
    }
  }
  SHAREGRID_AUDIT_HOOK(audit::audit_lease_monotone(
      lease_known_, lease_inc_, lease_root_, inc, frame.member));
  lease_known_ = true;
  lease_root_ = from;
  lease_inc_ = inc;
  highest_inc_seen_ = inc;
  lease_expiry_usec_ = now_usec + static_cast<std::int64_t>(frame.aux);
  electing_ = false;
  // Ack with our highest round so a freshly elected root fast-forwards its
  // round counter above anything we have seen or delivered.
  wire::Frame ack;
  ack.type = wire::FrameType::kLeaseAck;
  ack.member = static_cast<std::uint32_t>(options_.process_index);
  ack.incarnation = inc;
  ack.round = std::max(current_round_, last_delivered_round_);
  session_->send(from, wire::encode(ack));
}

void SocketTransport::handle_lease_ack(std::size_t from,
                                       const wire::Frame& frame) {
  if (role_root_) {
    if (frame.incarnation > lease_inc_) {
      // The fence: a receiver we tried to drive rounds on is operating
      // under a newer lease. Our tenure is over.
      step_down(frame.incarnation);
      return;
    }
    if (frame.incarnation < lease_inc_) {
      reject_frame("stale lease ack");
      return;
    }
    if (frame.round > current_round_) {
      // A survivor delivered rounds we never saw (the old root died between
      // per-peer sends). Jump past them; an open round with a lower tag is
      // unservable for that survivor anyway.
      if (round_open_) {
        round_open_ = false;
        rounds_abandoned_.fetch_add(1, std::memory_order_relaxed);
        abandoned_counter().add();
      }
      current_round_ = frame.round;
    }
    return;
  }
  if (frame.incarnation > highest_inc_seen_) {
    // Someone holds a lease newer than anything we have adopted; remember
    // the incarnation so we neither elect over it nor accept older leases.
    highest_inc_seen_ = frame.incarnation;
    return;
  }
  reject_frame("unexpected lease ack");
  (void)from;
}

void SocketTransport::handle_report(std::size_t from, wire::Frame& frame) {
  if (!round_open_ || frame.round != current_round_) {
    reject_frame("stale round tag");
    return;
  }
  const Process& proc = processes_[from];
  if (!proc.live_this_round) {
    reject_frame("report from process outside the round's live set");
    return;
  }
  if (frame.member < proc.member_offset ||
      frame.member >= proc.member_offset + proc.member_count) {
    reject_frame("member index outside sender's claimed range");
    return;
  }
  if (report_seen_[frame.member]) {
    reject_frame("duplicate member report");
    return;
  }
  if (frame.values.size() != vector_size_) {
    reject_frame("report vector size mismatch");
    return;
  }
  report_seen_[frame.member] = true;
  report_slots_[frame.member] = std::move(frame.values);
  --reports_pending_;
}

void SocketTransport::handle_round_start(std::size_t from,
                                         const wire::Frame& frame,
                                         std::int64_t now_usec) {
  (void)now_usec;
  if (!lease_known_) {
    reject_frame("round start without lease");
    return;
  }
  if (from != lease_root_) {
    fence_zombie_root(from, "round start from non-root");
    return;
  }
  // current_round_ doubles as "highest round-start seen" on a follower.
  if (frame.round <= current_round_) {
    reject_frame("stale round tag");
    return;
  }
  current_round_ = frame.round;
  if (options_.on_round_start) options_.on_round_start(current_round_);
  sample_local_members(current_round_);
}

void SocketTransport::handle_aggregate(std::size_t from,
                                       const wire::Frame& frame,
                                       std::int64_t now_usec) {
  if (!lease_known_) {
    reject_frame("aggregate without lease");
    return;
  }
  if (from != lease_root_) {
    fence_zombie_root(from, "aggregate from non-root");
    return;
  }
  if (frame.values.size() != vector_size_) {
    reject_frame("aggregate vector size mismatch");
    return;
  }
  if (has_delivered_ && frame.round <= last_delivered_round_) {
    reject_frame("stale round tag");
    return;
  }
  deliver_aggregate(frame.round, frame.values, now_usec);
}

void SocketTransport::fence_zombie_root(std::size_t from, const char* why) {
  reject_frame(why);
  if (!role_root_ && !lease_known_) return;  // nothing newer to point at
  wire::Frame nack;
  nack.type = wire::FrameType::kLeaseAck;
  nack.member = static_cast<std::uint32_t>(options_.process_index);
  nack.incarnation = highest_inc_seen_;
  nack.round = std::max(current_round_, last_delivered_round_);
  session_->send(from, wire::encode(nack));
}

std::string SocketTransport::lease_bytes() const {
  wire::Frame lease;
  lease.type = wire::FrameType::kLease;
  lease.member = static_cast<std::uint32_t>(options_.process_index);
  lease.incarnation = lease_inc_;
  lease.round = current_round_;
  lease.aux = static_cast<std::uint64_t>(options_.lease_ttl_usec);
  return wire::encode(lease);
}

void SocketTransport::send_lease(std::size_t peer) {
  session_->send(peer, lease_bytes());
}

void SocketTransport::step_down(std::uint64_t newer_incarnation) {
  role_root_ = false;
  electing_ = false;
  // We do not know the new holder or its expiry yet; its lease frame fills
  // those in. Until then we are a follower with no lease, which also means
  // we cannot (re-)elect over the newer incarnation we just learned about.
  lease_known_ = false;
  highest_inc_seen_ = std::max(highest_inc_seen_, newer_incarnation);
  if (round_open_) {
    round_open_ = false;
    rounds_abandoned_.fetch_add(1, std::memory_order_relaxed);
    abandoned_counter().add();
  }
}

void SocketTransport::maybe_elect(std::int64_t now_usec) {
  // Candidacy needs a lease to have *expired*: a follower that never
  // adopted one (fresh start, or fresh restart) waits for the live root to
  // introduce itself instead of electing over a fleet it cannot see yet.
  if (!options_.election_enabled || !lease_known_) return;
  if (now_usec < lease_expiry_usec_) {
    electing_ = false;
    return;
  }
  if (!electing_) {
    electing_ = true;
    election_started_usec_ = now_usec;
  }
  // Lowest live member id wins: we may acquire only once every lower-index
  // peer has refused a dial since candidacy began. An established session
  // to a lower peer means it is alive and will acquire instead; a session
  // that merely dropped is not evidence of death (kDialRefused never fires
  // for those), so we keep waiting for a hard refusal.
  for (std::size_t p = 0; p < options_.process_index; ++p) {
    if (session_->established(p)) return;
    if (last_refusal_usec_[p] < election_started_usec_) return;
  }
  acquire_lease(now_usec);
}

void SocketTransport::acquire_lease(std::int64_t now_usec) {
  const std::uint64_t new_inc = highest_inc_seen_ + 1;
  SHAREGRID_AUDIT_HOOK(audit::audit_root_acquire(
      lease_known_, now_usec, lease_expiry_usec_, new_inc,
      highest_inc_seen_));
  role_root_ = true;
  electing_ = false;
  lease_known_ = false;
  lease_root_ = options_.process_index;
  lease_inc_ = new_inc;
  highest_inc_seen_ = new_inc;
  current_round_ = std::max(current_round_, last_delivered_round_);
  round_open_ = false;
  elections_.fetch_add(1, std::memory_order_relaxed);
  elections_counter().add();
  // Announce immediately; acks flow back carrying each survivor's highest
  // round. The first round is held one period so those acks can
  // fast-forward current_round_ before a tag is spent on a round the
  // survivors would reject.
  session_->broadcast(lease_bytes());
  next_heartbeat_usec_ = now_usec + options_.lease_ttl_usec / 3;
  next_round_start_usec_ = now_usec + options_.round_period_usec;
}

void SocketTransport::poll_round_root(std::int64_t now_usec) {
  if (round_open_ && reports_pending_ == 0) finish_round(now_usec);
  if (round_open_ &&
      now_usec - round_started_usec_ >= options_.round_deadline_usec) {
    round_open_ = false;
    rounds_abandoned_.fetch_add(1, std::memory_order_relaxed);
    abandoned_counter().add();
  }
  // The bootstrap root (lease incarnation 1) holds round 1 until the whole
  // fleet has connected once, so a slow peer start-up shows as a later
  // first round, not a gap — and so churn-free runs are bitwise-identical
  // to the fixed-fleet transport. An elected root has no such luxury: it
  // resumes with whoever is alive.
  const bool assembled =
      lease_inc_ > 1 || current_round_ > 0 ||
      session_->peers_ever_established() + 1 >= options_.peers.size();
  if (!round_open_ && assembled && now_usec >= next_round_start_usec_)
    open_round(now_usec);
}

void SocketTransport::open_round(std::int64_t now_usec) {
  // Membership is captured here and holds for the whole round: this process
  // plus every established peer, each contributing the global member range
  // its HELLO claimed. Joins and rejoins fold in at the *next* boundary.
  std::size_t live_members = 0;
  for (std::size_t p = 0; p < options_.peers.size(); ++p) {
    Process& proc = processes_[p];
    const bool live = p == options_.process_index ||
                      (session_->established(p) && proc.range_known);
    if (live && proc.was_pruned) {
      readmissions_.fetch_add(1, std::memory_order_relaxed);
      proc.was_pruned = false;
    }
    if (!live && proc.live_this_round) proc.was_pruned = true;
    proc.live_this_round = live;
    if (live) live_members += proc.member_count;
  }
  ++current_round_;
  round_open_ = true;
  round_started_usec_ = now_usec;
  next_round_start_usec_ = now_usec + options_.round_period_usec;
  report_seen_.assign(fleet_size_, false);
  reports_pending_ = live_members;
  last_round_members_ = live_members;
  // Lease refresh piggybacks on every round-start: one heartbeat per round
  // keeps followers' expiry clocks armed without a separate timer firing.
  session_->broadcast(lease_bytes());
  next_heartbeat_usec_ = now_usec + options_.lease_ttl_usec / 3;
  if (options_.on_round_start) options_.on_round_start(current_round_);
  sample_local_members(current_round_);
  wire::Frame kick;
  kick.type = wire::FrameType::kRoundStart;
  kick.round = current_round_;
  const std::string bytes = wire::encode(kick);
  for (std::size_t p = 0; p < options_.peers.size(); ++p)
    if (p != options_.process_index && processes_[p].live_this_round)
      session_->send(p, bytes);
}

void SocketTransport::finish_round(std::int64_t now_usec) {
  // Sum in global member order — the same floating-point order
  // InProcessTransport::exchange uses, so with full membership the
  // aggregates (and therefore the plans) match it bitwise. Pruned members
  // contribute nothing: a dead process's demand is not demand.
  std::vector<double> sum(vector_size_, 0.0);
  for (std::size_t m = 0; m < fleet_size_; ++m) {
    if (!report_seen_[m]) continue;
    for (std::size_t i = 0; i < vector_size_; ++i)
      sum[i] += report_slots_[m][i];
  }
  round_open_ = false;
  rounds_completed_.fetch_add(1, std::memory_order_relaxed);
  // Star accounting: one logical broadcast down per live member.
  messages_sent_.fetch_add(last_round_members_, std::memory_order_relaxed);
  deliver_aggregate(current_round_, sum, now_usec);
  wire::Frame down;
  down.type = wire::FrameType::kAggregate;
  down.round = current_round_;
  down.values = std::move(sum);
  const std::string bytes = wire::encode(down);
  for (std::size_t p = 0; p < options_.peers.size(); ++p)
    if (p != options_.process_index && processes_[p].live_this_round)
      session_->send(p, bytes);
}

void SocketTransport::sample_local_members(std::uint64_t round) {
  for (std::size_t m = 0; m < local_member_count_; ++m) {
    // An unattached member contributes zeros, like InProcessTransport
    // skipping a null provider — the round must still complete.
    std::vector<double> local = providers_[m]
                                    ? providers_[m]()
                                    : std::vector<double>(vector_size_, 0.0);
    SHAREGRID_ASSERT(local.size() == vector_size_);
    const std::size_t global = options_.member_offset + m;
    messages_sent_.fetch_add(1, std::memory_order_relaxed);  // report up
    if (role_root_) {
      report_seen_[global] = true;
      report_slots_[global] = std::move(local);
      --reports_pending_;
    } else {
      wire::Frame up;
      up.type = wire::FrameType::kReport;
      up.round = round;
      up.member = static_cast<std::uint32_t>(global);
      up.values = std::move(local);
      session_->send(lease_root_, wire::encode(up));
    }
  }
}

void SocketTransport::deliver_aggregate(std::uint64_t round,
                                        const std::vector<double>& sum,
                                        std::int64_t now_usec) {
  SHAREGRID_AUDIT_HOOK(audit::audit_round_tag_monotone(
      has_delivered_, last_delivered_round_, round));
  has_delivered_ = true;
  last_delivered_round_ = round;
  last_delivery_usec_ = now_usec;
  stale_fired_ = false;  // a fresh aggregate re-arms the staleness trip
  for (std::size_t m = 0; m < local_member_count_; ++m)
    if (receivers_[m]) receivers_[m](round, sum);
}

void SocketTransport::check_staleness(std::int64_t now_usec) {
  // Nothing delivered yet = the members never left the conservative regime;
  // there is nothing to fall back from.
  if (!has_delivered_ || stale_fired_) return;
  const std::int64_t stale_after =
      options_.stale_after_usec > 0
          ? options_.stale_after_usec
          : options_.round_period_usec + options_.round_deadline_usec;
  if (now_usec - last_delivery_usec_ < stale_after) return;
  stale_fired_ = true;
  stale_fallbacks_.fetch_add(1, std::memory_order_relaxed);
  stale_counter().add();
  for (const auto& handler : stale_handlers_)
    if (handler) handler();
}

}  // namespace sharegrid::coord
