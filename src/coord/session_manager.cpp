#include "coord/session_manager.hpp"

#include <algorithm>
#include <utility>

#include "util/assert.hpp"
#include "util/metrics_registry.hpp"

namespace sharegrid::coord {
namespace {

// A dialed peer that accepts TCP but never answers HELLO (e.g. a stopped
// process whose kernel still completes connections) is treated as a refusal
// after this long.
constexpr std::int64_t kHelloTimeoutUsec = 500000;

util::MetricCounter& reconnects_counter() {
  static util::MetricCounter& counter = util::global_metrics().counter(
      "coord.socket.reconnects",
      "control-plane sessions re-established after a loss or refusal");
  return counter;
}
util::MetricGauge& sessions_gauge() {
  static util::MetricGauge& gauge = util::global_metrics().gauge(
      "coord.socket.sessions_active",
      "established control-plane peer sessions (per process)");
  return gauge;
}

}  // namespace

SessionManager::PeerAddr SessionManager::parse_peer(const std::string& peer,
                                                    bool allow_nonlocal) {
  const std::size_t colon = peer.find_last_of(':');
  if (colon == std::string::npos || colon == 0 || colon + 1 >= peer.size())
    throw ContractViolation("SessionManager: peer '" + peer +
                            "' must look like 'host:port'");
  PeerAddr addr;
  addr.host = peer.substr(0, colon);
  if (addr.host == "localhost") addr.host = "127.0.0.1";
  if (!allow_nonlocal && addr.host != "127.0.0.1")
    throw ContractViolation(
        "SessionManager: peer '" + peer +
        "' is not loopback; non-local peers require the explicit "
        "allow_nonlocal option");
  int port = 0;
  try {
    port = std::stoi(peer.substr(colon + 1));
  } catch (const std::exception&) {
    port = -1;
  }
  if (port < 0 || port > 65535)
    throw ContractViolation("SessionManager: peer '" + peer +
                            "' has an invalid port");
  addr.port = static_cast<std::uint16_t>(port);
  return addr;
}

SessionManager::SessionManager(Options options)
    : options_(std::move(options)), fleet_(options_.peers.size()) {
  SHAREGRID_EXPECTS(!options_.peers.empty());
  SHAREGRID_EXPECTS(options_.self_index < fleet_);
  SHAREGRID_EXPECTS(options_.incarnation >= 1);
  SHAREGRID_EXPECTS(options_.reconnect_base_usec > 0);
  SHAREGRID_EXPECTS(options_.reconnect_max_usec >=
                    options_.reconnect_base_usec);
  SHAREGRID_EXPECTS(options_.io_timeout_ms > 0);
  // Every peer entry must parse (and pass the loopback policy) up front,
  // not when first dialed.
  for (const std::string& peer : options_.peers)
    parse_peer(peer, options_.allow_nonlocal);
}

SessionManager::~SessionManager() { stop(); }

void SessionManager::start() {
  SHAREGRID_EXPECTS(!running_.load());
  conn_info_.clear();
  events_.clear();
  peers_.assign(fleet_, Peer{});
  const PeerAddr self =
      parse_peer(options_.peers[options_.self_index], options_.allow_nonlocal);
  // Loopback fleets bind loopback; a fleet that opted into non-local peers
  // must accept from other hosts, so it binds the wildcard address.
  listener_ = options_.allow_nonlocal
                  ? net::Socket::listen_on("0.0.0.0", self.port)
                  : net::Socket::listen_on_loopback(self.port);
  listener_.set_read_timeout_ms(options_.io_timeout_ms);
  listen_port_ = listener_.local_port();
  running_.store(true);
  acceptor_ = std::thread([this] { accept_loop(); });
  update_gauge();
}

void SessionManager::stop() {
  if (!running_.exchange(false)) return;
  // Wake every blocked syscall first, then join outside the lock: a reader
  // that is mid-push into the inbox needs the mutex to finish exiting.
  if (listener_.valid()) listener_.shutdown();
  std::vector<std::unique_ptr<Conn>> conns;
  {
    const util::MutexLock lock(mutex_);
    for (const auto& conn : conns_)
      if (conn) conn->sock.shutdown();
    conns.swap(conns_);
  }
  if (acceptor_.joinable()) acceptor_.join();
  for (const auto& conn : conns)
    if (conn && conn->reader.joinable()) conn->reader.join();
  listener_.close();
  const util::MutexLock lock(mutex_);
  inbox_.clear();
}

void SessionManager::accept_loop() {
  while (running_.load()) {
    net::Socket sock;
    try {
      sock = listener_.try_accept();
    } catch (const ContractViolation&) {
      if (!running_.load()) break;
      continue;  // transient accept failure; keep listening
    }
    if (!sock.valid()) continue;  // timeout or shutdown wake-up
    if (!running_.load()) break;
    sock.set_read_timeout_ms(options_.io_timeout_ms);
    const util::MutexLock lock(mutex_);
    auto conn = std::make_unique<Conn>();
    conn->sock = std::move(sock);
    Conn* raw = conn.get();
    const std::size_t index = conns_.size();
    conns_.push_back(std::move(conn));
    raw->reader = std::thread([this, raw, index] { reader_loop(raw, index); });
  }
}

void SessionManager::reader_loop(Conn* conn, std::size_t conn_index) {
  // Dumb pump: bytes -> frames -> inbox. No protocol state lives here; a
  // reader cannot race the handshake logic because poll() owns all of it.
  net::FrameReader frames(/*max_frame_bytes=*/1 << 20);
  bool abort = false;
  while (!abort && running_.load()) {
    const net::ReadResult result = conn->sock.read_some();
    if (result.status == net::ReadStatus::kTimedOut) continue;
    if (result.status == net::ReadStatus::kClosed) break;
    frames.feed(result.data);
    std::string payload;
    while (!abort) {
      const net::FrameReader::Event event = frames.next(&payload);
      if (event == net::FrameReader::Event::kNeedMore) break;
      if (event == net::FrameReader::Event::kOversized) {
        // Framing is unrecoverable: count it and drop the connection.
        reject("oversized length prefix");
        conn->sock.shutdown();
        abort = true;
        break;
      }
      wire::Frame frame;
      const wire::DecodeStatus status = wire::decode(payload, &frame);
      if (status != wire::DecodeStatus::kOk) {
        reject(wire::to_string(status));
        continue;
      }
      const util::MutexLock lock(mutex_);
      inbox_.push_back({conn_index, false, std::move(frame)});
    }
  }
  conn->closed.store(true);
  const util::MutexLock lock(mutex_);
  inbox_.push_back({conn_index, true, {}});
}

void SessionManager::reject(const char* why) {
  if (options_.on_reject) options_.on_reject(why);
}

std::vector<SessionManager::Inbound> SessionManager::take_inbox() {
  const util::MutexLock lock(mutex_);
  std::vector<Inbound> taken;
  taken.swap(inbox_);
  return taken;
}

SessionManager::ConnInfo& SessionManager::info(std::size_t conn_index) {
  if (conn_index >= conn_info_.size()) conn_info_.resize(conn_index + 1);
  ConnInfo& ci = conn_info_[conn_index];
  if (!ci.known) {
    ci.known = true;
    ci.open = true;  // first sighting: an accepted conn, not yet helloed
  }
  return ci;
}

std::size_t SessionManager::adopt_socket(net::Socket sock) {
  const util::MutexLock lock(mutex_);
  auto conn = std::make_unique<Conn>();
  conn->sock = std::move(sock);
  Conn* raw = conn.get();
  const std::size_t index = conns_.size();
  conns_.push_back(std::move(conn));
  raw->reader = std::thread([this, raw, index] { reader_loop(raw, index); });
  return index;
}

void SessionManager::send_on_conn(std::size_t conn_index,
                                  const std::string& bytes) {
  const util::MutexLock lock(mutex_);
  if (conn_index >= conns_.size() || !conns_[conn_index]) return;
  Conn* conn = conns_[conn_index].get();
  if (conn->closed.load()) return;
  try {
    conn->sock.write_frame(bytes);
  } catch (const ContractViolation&) {
    conn->closed.store(true);  // peer died mid-send; its reader notices too
  }
}

void SessionManager::close_conn(std::size_t conn_index) {
  info(conn_index).open = false;
  const util::MutexLock lock(mutex_);
  if (conn_index < conns_.size() && conns_[conn_index])
    conns_[conn_index]->sock.shutdown();
  // The reader observes the shutdown, queues its disconnect note, and the
  // slot is reclaimed when that note is handled.
}

void SessionManager::reclaim_conn(std::size_t conn_index) {
  std::unique_ptr<Conn> conn;
  {
    const util::MutexLock lock(mutex_);
    if (conn_index < conns_.size()) conn.swap(conns_[conn_index]);
  }
  // The reader queued the disconnect note as its last act, so this join
  // returns promptly; freeing the slot afterwards is what keeps a churning
  // fleet from accumulating one dead Conn per rejoin forever.
  if (conn && conn->reader.joinable()) conn->reader.join();
}

void SessionManager::handle_closed(std::size_t conn_index,
                                   std::int64_t now_usec) {
  ConnInfo& ci = info(conn_index);
  ci.open = false;
  reclaim_conn(conn_index);
  const std::size_t p = ci.peer;
  if (p == kNoConn || p >= fleet_ || peers_[p].conn != conn_index) return;
  Peer& peer = peers_[p];
  peer.conn = kNoConn;
  const bool was_established = peer.state == SessionState::kEstablished;
  if (was_established) {
    events_.push_back({Event::Kind::kPeerDown, p, 0, 0, {}});
    update_gauge();
  }
  if (!peer.wanted) {
    peer.state = peer.ever_established ? SessionState::kLost
                                       : SessionState::kIdle;
    return;
  }
  peer.state = peer.ever_established ? SessionState::kLost
                                     : SessionState::kConnecting;
  if (was_established) {
    // A lost session redials immediately once; refusals then back off.
    peer.backoff_usec = 0;
    peer.next_dial_usec = now_usec;
  } else {
    // Closed before the handshake finished (collision loser, or a peer that
    // crashed mid-accept): back off like a refusal, but without the event —
    // a completed TCP connect is not evidence the process is gone.
    peer.backoff_usec =
        peer.backoff_usec == 0
            ? options_.reconnect_base_usec
            : std::min(2 * peer.backoff_usec, options_.reconnect_max_usec);
    peer.next_dial_usec = now_usec + peer.backoff_usec;
  }
}

void SessionManager::note_refusal(std::size_t peer_index,
                                  std::int64_t now_usec) {
  Peer& peer = peers_[peer_index];
  events_.push_back({Event::Kind::kDialRefused, peer_index, 0, 0, {}});
  peer.state = peer.ever_established ? SessionState::kLost
                                     : SessionState::kConnecting;
  peer.backoff_usec =
      peer.backoff_usec == 0
          ? options_.reconnect_base_usec
          : std::min(2 * peer.backoff_usec, options_.reconnect_max_usec);
  peer.next_dial_usec = now_usec + peer.backoff_usec;
}

void SessionManager::establish(std::size_t peer_index, std::size_t conn_index,
                               std::uint64_t incarnation, std::uint64_t aux) {
  Peer& peer = peers_[peer_index];
  if (peer.conn == conn_index && peer.state == SessionState::kEstablished) {
    peer.incarnation = incarnation;  // duplicate HELLO on the live session
    peer.aux = aux;
    return;
  }
  if (peer.conn != kNoConn && peer.conn != conn_index) {
    // Replacing an existing session (rejoin with a fresh incarnation, or a
    // collision resolved toward this conn): unbind first so the old conn's
    // disconnect note does not read as a peer loss.
    const std::size_t old = peer.conn;
    peer.conn = kNoConn;
    info(old).peer = kNoConn;
    close_conn(old);
    if (peer.state == SessionState::kEstablished) update_gauge();
  }
  const bool rejoined = peer.ever_established;
  peer.conn = conn_index;
  peer.state = SessionState::kEstablished;
  peer.ever_established = true;
  peer.incarnation = incarnation;
  peer.aux = aux;
  peer.backoff_usec = 0;
  if (rejoined) {
    reconnects_.fetch_add(1, std::memory_order_relaxed);
    reconnects_counter().add();
  }
  events_.push_back({Event::Kind::kPeerUp, peer_index, incarnation, aux, {}});
  update_gauge();
}

void SessionManager::handle_hello(std::size_t conn_index,
                                  const wire::Frame& frame,
                                  std::int64_t now_usec) {
  ConnInfo& ci = info(conn_index);
  if (!ci.open) return;  // already closed this poll
  const std::size_t p = frame.member;
  if (p >= fleet_ || p == options_.self_index) {
    reject("hello member out of range");
    close_conn(conn_index);
    return;
  }
  Peer& peer = peers_[p];
  if (ci.outbound) {
    if (ci.peer != p) {
      reject("hello identity mismatch");
      if (ci.peer != kNoConn && peers_[ci.peer].conn == conn_index)
        peers_[ci.peer].conn = kNoConn;
      ci.peer = kNoConn;
      close_conn(conn_index);
      return;
    }
    if (peer.conn != kNoConn && peer.conn != conn_index && p < options_.self_index) {
      // Collision: for a pair of processes the session dialed by the
      // lower-index one wins, and that is the peer's dial, not ours.
      ci.peer = kNoConn;
      close_conn(conn_index);
      return;
    }
    if (frame.incarnation < peer.incarnation) {
      reject("stale incarnation hello");
      ci.peer = kNoConn;
      if (peer.conn == conn_index) peer.conn = kNoConn;
      close_conn(conn_index);
      note_refusal(p, now_usec);
      return;
    }
    establish(p, conn_index, frame.incarnation, frame.aux);
    return;
  }
  // Inbound conn: the HELLO is what binds it to a peer.
  if (frame.incarnation < peer.incarnation) {
    // A process we have already seen at a higher incarnation is a zombie
    // instance of that peer; its session must not displace the live one.
    reject("stale incarnation hello");
    close_conn(conn_index);
    return;
  }
  if (peer.conn != kNoConn && peer.conn != conn_index &&
      info(peer.conn).outbound && options_.self_index < p &&
      (peer.state != SessionState::kEstablished ||
       frame.incarnation == peer.incarnation)) {
    // Collision, and our dial wins the lower-index tie-break. Two live
    // processes dialing each other simultaneously is routine in a full
    // mesh — drop the duplicate quietly rather than flag a protocol
    // reject. While our dial's handshake is still in flight we have not
    // learned the peer's incarnation yet, so the equality clause must not
    // gate the drop then: both hellos come from the same live instance,
    // and honouring the inbound one here while the peer honours our dial
    // would make each side tear down the other's pick (a startup session
    // flap that shrinks the root's first live set). Once established, a
    // HIGHER inbound incarnation is a restarted peer and must replace the
    // session our now-dead counterparty left behind.
    close_conn(conn_index);
    return;
  }
  ci.peer = p;
  send_on_conn(conn_index, hello_bytes());  // complete the dialer's handshake
  establish(p, conn_index, frame.incarnation, frame.aux);
}

void SessionManager::dial_pass(std::int64_t now_usec) {
  for (std::size_t p = 0; p < fleet_; ++p) {
    if (p == options_.self_index) continue;
    Peer& peer = peers_[p];
    // A dialed peer that accepted TCP but never answered HELLO counts as a
    // refusal: a stopped process's kernel happily completes connections.
    if (peer.wanted && peer.conn != kNoConn &&
        peer.state != SessionState::kEstablished &&
        info(peer.conn).outbound && now_usec >= peer.handshake_deadline_usec) {
      const std::size_t idx = peer.conn;
      peer.conn = kNoConn;
      info(idx).peer = kNoConn;
      close_conn(idx);
      reject("hello handshake timed out");
      note_refusal(p, now_usec);
      continue;
    }
    if (!peer.wanted || peer.conn != kNoConn ||
        now_usec < peer.next_dial_usec)
      continue;
    const PeerAddr addr = parse_peer(options_.peers[p], options_.allow_nonlocal);
    if (addr.port == 0) continue;  // undialable (ephemeral); it dials us
    peer.state = peer.ever_established ? SessionState::kRejoining
                                       : SessionState::kConnecting;
    net::Socket sock;
    try {
      sock = net::Socket::connect_to(addr.host, addr.port);
    } catch (const ContractViolation&) {
      note_refusal(p, now_usec);
      continue;
    }
    sock.set_read_timeout_ms(options_.io_timeout_ms);
    const std::size_t idx = adopt_socket(std::move(sock));
    ConnInfo& ci = info(idx);
    ci.outbound = true;
    ci.peer = p;
    peer.conn = idx;
    peer.handshake_deadline_usec = now_usec + kHelloTimeoutUsec;
    send_on_conn(idx, hello_bytes());
  }
}

void SessionManager::poll(std::int64_t now_usec) {
  if (!running_.load()) return;
  for (Inbound& in : take_inbox()) {
    if (in.disconnected) {
      handle_closed(in.conn_index, now_usec);
      continue;
    }
    if (in.frame.type == wire::FrameType::kHello) {
      handle_hello(in.conn_index, in.frame, now_usec);
      continue;
    }
    const ConnInfo& ci = info(in.conn_index);
    if (!ci.open) continue;  // frame raced the close; the session is gone
    if (ci.peer == kNoConn || peers_[ci.peer].conn != in.conn_index ||
        peers_[ci.peer].state != SessionState::kEstablished) {
      reject("frame before hello");
      continue;
    }
    events_.push_back(
        {Event::Kind::kFrame, ci.peer, 0, 0, std::move(in.frame)});
  }
  dial_pass(now_usec);
}

std::vector<SessionManager::Event> SessionManager::take_events() {
  std::vector<Event> taken;
  taken.swap(events_);
  return taken;
}

void SessionManager::want(std::size_t peer_index, bool wanted) {
  SHAREGRID_EXPECTS(peer_index < fleet_);
  SHAREGRID_EXPECTS(peer_index != options_.self_index);
  Peer& peer = peers_[peer_index];
  if (peer.wanted == wanted) return;
  peer.wanted = wanted;
  if (wanted) {
    if (peer.state == SessionState::kIdle || peer.state == SessionState::kLost) {
      peer.state = peer.ever_established ? SessionState::kLost
                                         : SessionState::kConnecting;
      peer.next_dial_usec = 0;  // dial at the next poll
      peer.backoff_usec = 0;
    }
    return;
  }
  if (peer.state == SessionState::kEstablished) return;  // session stays
  if (peer.conn != kNoConn) {
    // Abandon the in-flight dial.
    info(peer.conn).peer = kNoConn;
    close_conn(peer.conn);
    peer.conn = kNoConn;
  }
  peer.state =
      peer.ever_established ? SessionState::kLost : SessionState::kIdle;
}

void SessionManager::disconnect(std::size_t peer_index) {
  SHAREGRID_EXPECTS(peer_index < fleet_);
  Peer& peer = peers_[peer_index];
  if (peer.conn == kNoConn) return;
  const bool was_established = peer.state == SessionState::kEstablished;
  info(peer.conn).peer = kNoConn;
  close_conn(peer.conn);
  peer.conn = kNoConn;
  peer.state = peer.wanted
                   ? (peer.ever_established ? SessionState::kLost
                                            : SessionState::kConnecting)
                   : (peer.ever_established ? SessionState::kLost
                                            : SessionState::kIdle);
  if (peer.wanted) {
    peer.next_dial_usec = 0;
    peer.backoff_usec = 0;
  }
  if (was_established) update_gauge();
}

void SessionManager::send(std::size_t peer_index, const std::string& bytes) {
  SHAREGRID_EXPECTS(peer_index < fleet_);
  const Peer& peer = peers_[peer_index];
  if (peer.state != SessionState::kEstablished || peer.conn == kNoConn) return;
  send_on_conn(peer.conn, bytes);
}

void SessionManager::broadcast(const std::string& bytes) {
  for (std::size_t p = 0; p < fleet_; ++p)
    if (peers_[p].state == SessionState::kEstablished) send(p, bytes);
}

SessionManager::SessionState SessionManager::state(
    std::size_t peer_index) const {
  SHAREGRID_EXPECTS(peer_index < fleet_);
  return peers_[peer_index].state;
}

bool SessionManager::established(std::size_t peer_index) const {
  return state(peer_index) == SessionState::kEstablished;
}

std::size_t SessionManager::established_count() const {
  std::size_t n = 0;
  for (const Peer& peer : peers_)
    if (peer.state == SessionState::kEstablished) ++n;
  return n;
}

std::uint64_t SessionManager::peer_incarnation(std::size_t peer_index) const {
  SHAREGRID_EXPECTS(peer_index < fleet_);
  return peers_[peer_index].incarnation;
}

std::uint64_t SessionManager::peer_aux(std::size_t peer_index) const {
  SHAREGRID_EXPECTS(peer_index < fleet_);
  return peers_[peer_index].aux;
}

std::size_t SessionManager::peers_ever_established() const {
  std::size_t n = 0;
  for (const Peer& peer : peers_)
    if (peer.ever_established) ++n;
  return n;
}

std::string SessionManager::hello_bytes() const {
  wire::Frame hello;
  hello.type = wire::FrameType::kHello;
  hello.member = static_cast<std::uint32_t>(options_.self_index);
  hello.incarnation = options_.incarnation;
  hello.aux = options_.hello_aux;
  return wire::encode(hello);
}

void SessionManager::update_gauge() const {
  sessions_gauge().set(static_cast<std::int64_t>(established_count()));
}

}  // namespace sharegrid::coord
