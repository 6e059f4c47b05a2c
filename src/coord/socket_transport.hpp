// Cross-process snapshot transport: the SnapshotTransport seam over real
// TCP, membership-aware (ROADMAP "rejoin and leadership on the live path";
// docs/control-plane.md).
//
// Topology is a star, mirroring the flat CombiningTree, but the star's hub
// is now elected rather than frozen: the root is whichever process holds the
// current *lease*. A round is three phases:
//
//   1. root:   round-start(round k) to every live peer, sample local members
//   2. leaves: sample local members, report(k, member, demand) to the root
//   3. root:   when every live member's report is in, sum them in global
//              member order and send aggregate(k, sum) down + deliver locally
//
// Membership: SessionManager owns the per-peer sessions (full mesh — every
// process listens and dials every other). The root captures the live set
// when a round opens: itself plus every established peer, each contributing
// the global member range its HELLO claimed. A peer that dies mid-round
// just lets the round hit its deadline; a peer that (re)joins mid-round is
// folded in at the next round boundary — membership never changes inside a
// round, which is what keeps churn-free runs bitwise-identical to the
// fixed-fleet transport.
//
// Leadership: the root holds a TTL lease (lease frame: root index, lease
// incarnation, TTL), refreshed by piggybacking on every round-start plus a
// standalone heartbeat for idle gaps. Followers re-arm the expiry clock on
// every lease receipt. When a follower observes the lease expired, it
// becomes a candidate; it may acquire only once every LOWER-index peer has
// refused its dials since candidacy began (SessionManager fires
// kDialRefused only for connect-refusals and handshake timeouts — never for
// an established session that dropped — so "all lower peers refuse" really
// means "all lower peers are dead", and the lowest live member id wins).
// Acquisition bumps the lease incarnation past the highest ever seen; the
// audit_root_acquire hook pins both conditions. A deposed root that wakes
// up and keeps sending rounds is fenced by incarnation: receivers reject
// frames from a non-lease-holder and answer with a lease-ack carrying the
// newer incarnation, which makes the zombie step down and re-adopt. Lease
// acks also carry the acker's highest round so a freshly elected root
// fast-forwards its round counter above anything any survivor delivered —
// round tags stay strictly monotone across root changes.
//
// Failure semantics: an abandoned round is counted and skipped; when no
// aggregate has been delivered for `stale_after_usec`, the stale handlers
// registered via attach_stale_handler fire once (re-armed by the next
// delivery), re-admitting the control-plane members into the conservative
// 1/R regime. With election enabled a dead root is replaced within a lease
// TTL and survivors usually never go stale; with it disabled this transport
// degrades exactly like the fixed-fleet one.
//
// Threading: unchanged contract. SessionManager's background threads only
// pump bytes; everything with semantics — sessions, leases, elections,
// round pacing, deadlines, delivery — happens inside poll(now_usec) on the
// caller's thread against the caller's monotonic clock. The transport never
// reads a clock, so deadlines, lease expiry and elections are deterministic
// under test-supplied time.
#pragma once

#include <atomic>
#include <cstdint>
#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "coord/session_manager.hpp"
#include "coord/snapshot_transport.hpp"
#include "coord/snapshot_wire.hpp"
#include "util/thread_annotations.hpp"

namespace sharegrid::coord {

/// Star-topology snapshot exchange between N processes over TCP, with peer
/// rejoin and lease-based root election.
class SocketTransport final : public SnapshotTransport {
 public:
  struct Options {
    /// host:port of every process in the fleet, index-aligned with
    /// process_index. Every process listens on its own entry and dials the
    /// others (SessionManager; port 0 entries are inbound-only). Loopback
    /// unless allow_nonlocal.
    std::vector<std::string> peers;
    /// Which peers[] entry this process is.
    std::size_t process_index = 0;
    /// This process's incarnation, bumped on each restart. Process 0 at
    /// incarnation 1 bootstraps as the initial lease holder; a restarted
    /// process always starts as a follower and adopts the current lease.
    std::uint64_t incarnation = 1;
    /// Loopback-only unless set; peers may then span hosts (numeric IPv4).
    bool allow_nonlocal = false;
    /// First global member index hosted by this process. Global members are
    /// assigned contiguously per process; with the default one-member-per-
    /// process fleet this equals process_index.
    std::size_t member_offset = 0;
    /// Total members across the fleet, R (0 = one per process).
    std::size_t fleet_size = 0;
    /// Root: minimum spacing between round starts, in caller-clock usec.
    std::int64_t round_period_usec = 100000;
    /// Root: an incomplete round is abandoned this long after it started.
    std::int64_t round_deadline_usec = 100000;
    /// No aggregate for this long after the last delivery -> stale handlers
    /// fire (0 = round_period_usec + round_deadline_usec).
    std::int64_t stale_after_usec = 0;
    /// Root lease TTL. Followers treat the root as dead this long after the
    /// last lease receipt; keep it comfortably above round_period_usec. The
    /// root refreshes the lease at every round start and, when rounds are
    /// sparse, on its own a third of the TTL after the last refresh.
    std::int64_t lease_ttl_usec = 500000;
    /// When false, followers never run for root: a dead root means
    /// staleness and the conservative 1/R regime, as in the fixed fleet.
    bool election_enabled = true;
    /// Session re-dial backoff: first retry after reconnect_base_usec,
    /// doubling up to reconnect_max_usec, reset on an established session.
    std::int64_t reconnect_base_usec = 20000;
    std::int64_t reconnect_max_usec = 320000;
    /// Socket receive timeout for the background pumps; bounds stop() join
    /// latency and how often readers re-check the running flag.
    int io_timeout_ms = 50;
    /// Fired from poll() when a round opens here (root: before sampling;
    /// leaf: on round-start receipt, before sampling). The multi-process
    /// demo advances its windows in this hook so every process advances on
    /// the same round boundaries.
    std::function<void(std::uint64_t round)> on_round_start;
  };

  SocketTransport(std::size_t local_member_count, std::size_t vector_size,
                  Options options);
  ~SocketTransport() override;

  void attach(std::size_t member, Provider provider,
              Receiver receiver) override;
  void attach_stale_handler(std::size_t member,
                            std::function<void()> on_stale) override;

  /// Binds this process's listen port and starts the session layer. Dials,
  /// handshakes and rounds all happen in poll(), so start() needs no clock.
  void start() override;
  void stop() override;

  /// Advances sessions, leases, elections and rounds against the caller's
  /// monotonic clock. Must be called from one thread (the window driver's);
  /// receivers and on_round_start run synchronously inside it.
  void poll(std::int64_t now_usec);

  /// Logical star messages (reports up from local members + aggregate
  /// broadcasts down at the root), so the fleet-wide sum per completed
  /// full-membership round is 2R — comparable with InProcessTransport.
  /// Session and lease frames are control overhead and are not counted.
  std::uint64_t messages_sent() const override {
    return messages_sent_.load(std::memory_order_relaxed);
  }

  /// Whether this process currently holds the lease. Dynamic: changes on
  /// election and on being fenced.
  bool is_root() const { return role_root_; }
  /// The current lease holder as this process believes it (valid only when
  /// has_root() — a restarted follower knows no root until a lease lands).
  bool has_root() const { return role_root_ || lease_known_; }
  std::size_t root_index() const {
    return role_root_ ? options_.process_index : lease_root_;
  }
  /// The lease incarnation this process is operating under (0 = none yet).
  std::uint64_t lease_incarnation() const {
    return role_root_ ? lease_inc_ : (lease_known_ ? lease_inc_ : 0);
  }
  /// The bound port (after start()); valid with ephemeral binds.
  std::uint16_t listen_port() const { return session_->listen_port(); }
  /// Session state for a peer process (SessionManager passthrough).
  SessionManager::SessionState session_state(std::size_t peer) const {
    return session_->state(peer);
  }
  /// Distinct peers that have ever established a session with us.
  std::size_t peers_connected() const {
    return session_->peers_ever_established();
  }
  /// Sessions re-established after a loss (SessionManager passthrough;
  /// metric coord.socket.reconnects).
  std::uint64_t reconnects() const { return session_->reconnects(); }
  /// Times this process acquired the lease (metric coord.socket.elections).
  std::uint64_t elections() const {
    return elections_.load(std::memory_order_relaxed);
  }
  /// Root: times a previously-pruned peer was folded back into the live set
  /// at a round boundary.
  std::uint64_t readmissions() const {
    return readmissions_.load(std::memory_order_relaxed);
  }
  /// Root: global members included in the most recently opened round.
  std::size_t members_live() const { return last_round_members_; }

  std::uint64_t rounds_completed() const {
    return rounds_completed_.load(std::memory_order_relaxed);
  }
  std::uint64_t rounds_abandoned() const {
    return rounds_abandoned_.load(std::memory_order_relaxed);
  }
  /// Frames dropped for any reason: undecodable bytes, zombie hellos or
  /// leases, unknown round or member, duplicates, wrong direction. Mirrored
  /// into the metrics registry as coord.socket.frames_rejected.
  std::uint64_t frames_rejected() const {
    return frames_rejected_.load(std::memory_order_relaxed);
  }
  /// Times the staleness threshold fired and handlers were invoked.
  std::uint64_t stale_fallbacks() const {
    return stale_fallbacks_.load(std::memory_order_relaxed);
  }
  /// Why the most recent frame was rejected ("" if none yet) — a debugging
  /// and test aid alongside the frames_rejected() count.
  std::string last_reject_reason() const SHAREGRID_EXCLUDES(mutex_);

 private:
  /// What the root knows about one process of the fleet (itself included).
  struct Process {
    bool range_known = false;    ///< HELLO seen at least once (self: always)
    std::size_t member_offset = 0;
    std::size_t member_count = 0;
    bool live_this_round = false;
    bool was_pruned = false;  ///< left the live set at least once
  };

  void reject_frame(const char* why) SHAREGRID_EXCLUDES(mutex_);

  // poll()-thread only ----------------------------------------------------
  void handle_event(const SessionManager::Event& event, std::int64_t now_usec);
  void handle_lease(std::size_t from, const wire::Frame& frame,
                    std::int64_t now_usec);
  void handle_lease_ack(std::size_t from, const wire::Frame& frame);
  void handle_report(std::size_t from, wire::Frame& frame);
  void handle_round_start(std::size_t from, const wire::Frame& frame,
                          std::int64_t now_usec);
  void handle_aggregate(std::size_t from, const wire::Frame& frame,
                        std::int64_t now_usec);
  /// Rejects a round frame from a process that no longer holds the lease
  /// and answers with the newer incarnation so the zombie steps down.
  void fence_zombie_root(std::size_t from, const char* why);
  void send_lease(std::size_t peer);
  void broadcast_lease(std::int64_t now_usec);
  void step_down(std::uint64_t newer_incarnation);
  void maybe_elect(std::int64_t now_usec);
  void acquire_lease(std::int64_t now_usec);
  void poll_round_root(std::int64_t now_usec);
  void open_round(std::int64_t now_usec);
  void finish_round(std::int64_t now_usec);
  void sample_local_members(std::uint64_t round);
  void deliver_aggregate(std::uint64_t round, const std::vector<double>& sum,
                         std::int64_t now_usec);
  void check_staleness(std::int64_t now_usec);
  std::string lease_bytes() const;

  std::size_t local_member_count_;
  std::size_t vector_size_;
  Options options_;
  std::size_t fleet_size_;  ///< R (resolved from options)

  std::vector<Provider> providers_;
  std::vector<Receiver> receivers_;
  std::vector<std::function<void()>> stale_handlers_;

  std::unique_ptr<SessionManager> session_;

  mutable util::Mutex mutex_;
  std::string last_reject_reason_ SHAREGRID_GUARDED_BY(mutex_);

  std::atomic<bool> running_{false};

  // Lease / election state, touched only by the poll() thread.
  bool role_root_ = false;
  bool lease_known_ = false;       ///< follower: a lease has been adopted
  std::size_t lease_root_ = 0;     ///< follower: its holder
  std::uint64_t lease_inc_ = 0;    ///< adopted (follower) or held (root)
  std::int64_t lease_expiry_usec_ = 0;      ///< follower: local re-armed TTL
  std::uint64_t highest_inc_seen_ = 0;
  std::int64_t next_heartbeat_usec_ = 0;    ///< root only
  bool electing_ = false;
  std::int64_t election_started_usec_ = 0;
  std::vector<std::int64_t> last_refusal_usec_;  ///< per peer; -1 = never

  // Round state (root role), touched only by the poll() thread.
  std::vector<Process> processes_;
  bool round_open_ = false;
  std::uint64_t current_round_ = 0;   ///< root: last opened; leaf: last seen
  std::int64_t round_started_usec_ = 0;
  std::int64_t next_round_start_usec_ = 0;
  std::vector<std::vector<double>> report_slots_;  ///< [global member]
  std::vector<bool> report_seen_;
  std::size_t reports_pending_ = 0;
  std::size_t last_round_members_ = 0;
  // Delivery / staleness state (poll() thread).
  bool has_delivered_ = false;
  std::uint64_t last_delivered_round_ = 0;
  std::int64_t last_delivery_usec_ = 0;
  bool stale_fired_ = false;

  std::atomic<std::uint64_t> messages_sent_{0};
  std::atomic<std::uint64_t> rounds_completed_{0};
  std::atomic<std::uint64_t> rounds_abandoned_{0};
  std::atomic<std::uint64_t> frames_rejected_{0};
  std::atomic<std::uint64_t> stale_fallbacks_{0};
  std::atomic<std::uint64_t> elections_{0};
  std::atomic<std::uint64_t> readmissions_{0};
};

}  // namespace sharegrid::coord
