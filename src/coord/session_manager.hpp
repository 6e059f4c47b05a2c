// Per-peer session layer for the cross-process control plane.
//
// PR 9's SocketTransport wired its star once at start(): the root accepted
// anonymous connections forever and a leaf dialed process 0 exactly once —
// a dead peer's connection slot was never reclaimed and a restarted process
// could not re-dial into an assembled fleet. SessionManager owns that whole
// lifecycle instead, for every process symmetrically:
//
//   - every process listens on its own peers[self] address for the life of
//     the run (so any process can be dialed — the precondition for both
//     rejoin and root election);
//   - outbound sessions are driven by a want-set: want(p) dials peer p with
//     capped exponential backoff (reconnect_base_usec doubling up to
//     reconnect_max_usec, reset on success) until a session is established
//     or the peer is unwanted;
//   - a session exists only after a HELLO handshake in both directions.
//     HELLO carries the sender's process index, its incarnation number
//     (bumped each restart) and the global member range it hosts. A HELLO
//     whose incarnation is below the highest one seen from that process is
//     a zombie and is rejected; an equal-or-higher incarnation replaces any
//     existing session (that is a rejoin);
//   - per-peer session state is explicit — connecting / established / lost /
//     rejoining — and surfaced as metrics (coord.socket.sessions_active,
//     coord.socket.reconnects).
//
// The owner consumes a flat event stream from poll(): kPeerUp / kPeerDown /
// kDialRefused / kFrame. kDialRefused fires only when connect() itself is
// refused or a handshake times out — a live peer whose session drops mid-
// stream is kPeerDown + a rejoining redial, never a refusal — which is what
// lets the election layer read "every lower-id peer refuses my dials" as
// "every lower-id peer is dead".
//
// Threading: identical contract to the rest of the coord stack. Background
// threads (one acceptor + one reader per connection) only pump bytes into a
// mutex-guarded inbox; every protocol decision — handshakes, dial pacing,
// session replacement, event emission — happens inside poll(now_usec) on
// the caller's thread against the caller's clock. The manager never reads
// a clock, so backoff and handshake timeouts are deterministic under
// test-supplied time.
//
// Simultaneous dials (two processes dialing each other while electing) are
// broken deterministically: for a pair of processes the session dialed by
// the lower-index one wins, on both sides, so the pair converges on one
// connection instead of repeatedly closing each other's.
#pragma once

#include <atomic>
#include <cstdint>
#include <functional>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "coord/snapshot_wire.hpp"
#include "net/tcp.hpp"
#include "util/thread_annotations.hpp"

namespace sharegrid::coord {

/// Owns dial/accept, the HELLO handshake, reconnect backoff and per-peer
/// session state for one process of a control-plane fleet.
class SessionManager {
 public:
  /// Explicit per-peer lifecycle, readable via state() and surfaced in the
  /// sessions_active gauge.
  enum class SessionState {
    kIdle,         ///< no session and none wanted
    kConnecting,   ///< first dial (never established before) in progress
    kEstablished,  ///< HELLO exchanged both ways; frames flow
    kLost,         ///< had a session, it died; waiting out the backoff
    kRejoining,    ///< re-dial after a loss (or of a restarted peer) underway
  };

  struct Options {
    /// host:port of every process, index-aligned with process indices. This
    /// process listens on its own entry; others are dial targets. A port of
    /// 0 marks a peer as inbound-only (it holds an ephemeral port and must
    /// dial us) — tests use this to avoid pre-picking ports.
    std::vector<std::string> peers;
    /// Which peers[] entry this process is.
    std::size_t self_index = 0;
    /// This process's incarnation, carried in every HELLO. Bump it on each
    /// restart: peers use it to tell a rejoining process from a zombie.
    std::uint64_t incarnation = 1;
    /// Loopback-only unless set: with false (default) every peer entry must
    /// be 127.0.0.1/localhost and the listener binds loopback; with true,
    /// peers may be any numeric IPv4 and the listener binds 0.0.0.0.
    bool allow_nonlocal = false;
    /// First re-dial delay after a refusal; doubles per refusal up to
    /// reconnect_max_usec, resets on an established session.
    std::int64_t reconnect_base_usec = 20000;
    std::int64_t reconnect_max_usec = 320000;
    /// Socket receive timeout for the background pumps; bounds stop() join
    /// latency and how often readers re-check the running flag.
    int io_timeout_ms = 50;
    /// Opaque payload for our HELLO frames; the transport packs the global
    /// member range it hosts as (member_offset << 32) | member_count.
    std::uint64_t hello_aux = 0;
    /// Invoked (from poll() or a reader thread — must be thread-safe) for
    /// every dropped frame: undecodable bytes, zombie HELLOs, pre-HELLO
    /// frames. The transport points this at its frames_rejected counter so
    /// one count covers the whole receive path.
    std::function<void(const char*)> on_reject;
  };

  /// One poll() outcome, consumed in order via take_events().
  struct Event {
    enum class Kind {
      kPeerUp,       ///< session established (incarnation/aux from its HELLO)
      kPeerDown,     ///< established session died
      kDialRefused,  ///< connect() refused or handshake timed out
      kFrame,        ///< non-HELLO frame from an established session
    };
    Kind kind = Kind::kFrame;
    std::size_t peer = 0;
    std::uint64_t incarnation = 0;  ///< kPeerUp only
    std::uint64_t aux = 0;          ///< kPeerUp only
    wire::Frame frame;              ///< kFrame only
  };

  explicit SessionManager(Options options);
  ~SessionManager();

  /// Binds the listener and starts the acceptor. Dials happen in poll().
  void start();
  void stop();

  /// Drives dials, handshakes, timeouts and the inbox against the caller's
  /// monotonic clock. Single poll thread, same contract as
  /// SocketTransport::poll.
  void poll(std::int64_t now_usec);

  /// Drains the events poll() produced, in arrival order.
  std::vector<Event> take_events();

  /// Marks peer as a dial target (or not). Unwanting a peer abandons any
  /// in-flight dial but leaves an established session alone — use
  /// disconnect() to drop one.
  void want(std::size_t peer, bool wanted);

  /// Deliberately drops peer's session (no kPeerDown — the owner asked).
  /// A still-wanted peer re-enters the dial loop.
  void disconnect(std::size_t peer);

  /// Sends one framed message to peer; silently dropped unless established
  /// (the session layer's answer to "the peer is gone" is events, not
  /// errors on every send site).
  void send(std::size_t peer, const std::string& bytes);

  /// send() to every established peer.
  void broadcast(const std::string& bytes);

  SessionState state(std::size_t peer) const;
  bool established(std::size_t peer) const;
  std::size_t established_count() const;
  /// Incarnation from the peer's most recent accepted HELLO (0 = never).
  std::uint64_t peer_incarnation(std::size_t peer) const;
  /// aux from the peer's most recent accepted HELLO.
  std::uint64_t peer_aux(std::size_t peer) const;

  /// The bound port (after start()); valid with ephemeral binds.
  std::uint16_t listen_port() const { return listen_port_; }
  /// Sessions that re-established after a loss or refusal, fleet-lifetime.
  std::uint64_t reconnects() const {
    return reconnects_.load(std::memory_order_relaxed);
  }
  /// Distinct peers that have ever reached kEstablished.
  std::size_t peers_ever_established() const;

  /// Validates one "host:port" peer entry and splits it. Enforces loopback
  /// unless @p allow_nonlocal; throws ContractViolation on violations.
  struct PeerAddr {
    std::string host;
    std::uint16_t port = 0;
  };
  static PeerAddr parse_peer(const std::string& peer, bool allow_nonlocal);

 private:
  /// One live connection; reader threads hold a stable Conn*. Slots in
  /// conns_ are reclaimed (joined and freed) from poll() once the reader
  /// reports the connection closed — dead peers do not leak slots.
  struct Conn {
    net::Socket sock;
    std::thread reader;
    std::atomic<bool> closed{false};
  };

  /// A parsed frame (or a disconnect note) queued by a reader thread.
  struct Inbound {
    std::size_t conn_index = 0;
    bool disconnected = false;
    wire::Frame frame;
  };

  static constexpr std::size_t kNoConn = static_cast<std::size_t>(-1);

  /// poll()-side view of one connection slot (never touched by readers).
  struct ConnInfo {
    bool known = false;     ///< poll() has seen this slot
    bool outbound = false;  ///< we dialed it (peer below is the dial target)
    bool open = false;
    std::size_t peer = kNoConn;  ///< bound process index (outbound: target)
  };

  /// poll()-side state for one peer process.
  struct Peer {
    SessionState state = SessionState::kIdle;
    bool wanted = false;
    bool ever_established = false;
    std::size_t conn = kNoConn;  ///< established or handshaking outbound conn
    std::uint64_t incarnation = 0;
    std::uint64_t aux = 0;
    std::int64_t next_dial_usec = 0;
    std::int64_t backoff_usec = 0;  ///< 0 = dial immediately when wanted
    std::int64_t handshake_deadline_usec = 0;
  };

  void accept_loop() SHAREGRID_EXCLUDES(mutex_);
  void reader_loop(Conn* conn, std::size_t conn_index)
      SHAREGRID_EXCLUDES(mutex_);
  void reject(const char* why);

  // poll()-thread only ----------------------------------------------------
  std::vector<Inbound> take_inbox() SHAREGRID_EXCLUDES(mutex_);
  ConnInfo& info(std::size_t conn_index);
  std::size_t adopt_socket(net::Socket sock) SHAREGRID_EXCLUDES(mutex_);
  void send_on_conn(std::size_t conn_index, const std::string& bytes)
      SHAREGRID_EXCLUDES(mutex_);
  void close_conn(std::size_t conn_index) SHAREGRID_EXCLUDES(mutex_);
  void reclaim_conn(std::size_t conn_index) SHAREGRID_EXCLUDES(mutex_);
  void handle_closed(std::size_t conn_index, std::int64_t now_usec);
  void handle_hello(std::size_t conn_index, const wire::Frame& frame,
                    std::int64_t now_usec);
  void establish(std::size_t peer, std::size_t conn_index,
                 std::uint64_t incarnation, std::uint64_t aux);
  void dial_pass(std::int64_t now_usec);
  void note_refusal(std::size_t peer, std::int64_t now_usec);
  std::string hello_bytes() const;
  void update_gauge() const;

  Options options_;
  std::size_t fleet_;  ///< peers.size()

  // Shared between poll(), the acceptor, and the readers.
  mutable util::Mutex mutex_;
  std::vector<std::unique_ptr<Conn>> conns_ SHAREGRID_GUARDED_BY(mutex_);
  std::vector<Inbound> inbox_ SHAREGRID_GUARDED_BY(mutex_);

  net::Socket listener_;  ///< every process listens; shutdown() wakes accept
  std::thread acceptor_;
  std::atomic<bool> running_{false};
  std::uint16_t listen_port_ = 0;
  std::atomic<std::uint64_t> reconnects_{0};

  // poll()-thread only.
  std::vector<ConnInfo> conn_info_;
  std::vector<Peer> peers_;
  std::vector<Event> events_;
};

}  // namespace sharegrid::coord
