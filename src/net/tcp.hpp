// Minimal RAII TCP sockets plus length-prefixed framing.
//
// Loopback-first by design: the live service and the socket control plane
// exist to demonstrate that the scheduling stack drives real processes (as
// the paper's prototype did), not to be an internet-facing server. The
// loopback constructors are the default path; connect_to()/listen_on() take
// an explicit numeric IPv4 address so a second host can be tested, but the
// coord layer only reaches them behind its allow_nonlocal option — the
// loopback validation stays on unless its caller opts out. Reads carry a
// timeout so tests can never hang on a stuck peer.
//
// This is the bottom networking layer (below both `live` and `coord` in the
// include DAG, see tools/analyze/include_graph.hpp): the live L7 service
// and the cross-process snapshot transport share these sockets without the
// control plane having to depend on the data plane.
#pragma once

#include <cstdint>
#include <string>
#include <string_view>

namespace sharegrid::net {

/// What a read attempt observed. Timeouts and peer closes used to be
/// conflated (both surfaced as an empty string), which made it impossible
/// for callers to tell "slow peer, keep waiting" from "peer gone, give up".
enum class ReadStatus {
  kData,      ///< bytes arrived (ReadResult::data is non-empty)
  kTimedOut,  ///< SO_RCVTIMEO expired with nothing to read; peer still there
  kClosed,    ///< orderly close or a hard socket error; peer is gone
};

/// One read attempt: the bytes (empty unless status == kData) and what the
/// socket reported.
struct ReadResult {
  std::string data;
  ReadStatus status = ReadStatus::kClosed;
};

/// RAII wrapper over a connected or listening TCP socket on 127.0.0.1.
class Socket {
 public:
  Socket() = default;
  ~Socket();

  Socket(Socket&& other) noexcept;
  Socket& operator=(Socket&& other) noexcept;
  Socket(const Socket&) = delete;
  Socket& operator=(const Socket&) = delete;

  /// Creates a listening socket bound to 127.0.0.1:@p port (0 = ephemeral).
  static Socket listen_on_loopback(std::uint16_t port = 0, int backlog = 16);

  /// Connects to 127.0.0.1:@p port.
  static Socket connect_loopback(std::uint16_t port);

  /// Creates a listening socket bound to the numeric IPv4 address
  /// @p bind_host ("0.0.0.0" to accept from any interface). No DNS.
  static Socket listen_on(const std::string& bind_host, std::uint16_t port,
                          int backlog = 16);

  /// Connects to the numeric IPv4 address @p host ("10.0.0.2"). No DNS —
  /// peers in a sharing fleet are configuration, not names to resolve at
  /// dial time. Throws ContractViolation on a malformed address.
  static Socket connect_to(const std::string& host, std::uint16_t port);

  /// Blocks until a peer connects; the returned socket has the same read
  /// timeout applied. Throws on error or accept timeout.
  Socket accept() const;

  /// Like accept(), but an accept timeout or a shut-down listener yields an
  /// invalid Socket instead of a throw, so background accept loops can poll
  /// a stop flag between attempts. Still throws on unexpected errors.
  Socket try_accept() const;

  /// Port this socket is bound to (listening sockets).
  std::uint16_t local_port() const;

  /// Reads until the HTTP header terminator (blank line) or EOF; returns
  /// everything read. Empty result means the peer closed immediately or the
  /// read timed out. Capped at 64 KiB.
  std::string read_http_head() const;

  /// Reads whatever is available (up to 16 KiB). The status disambiguates
  /// an empty result: kTimedOut means the peer is merely slow, kClosed
  /// means it is gone. For protocol-agnostic relaying and frame pumps.
  ReadResult read_some() const;

  /// Writes the whole buffer, retrying on EINTR and short writes (throws
  /// ContractViolation on a hard error).
  void write_all(std::string_view data) const;

  /// Writes a u32 little-endian length prefix followed by @p payload.
  /// The receiving side reassembles with FrameReader.
  void write_frame(std::string_view payload) const;

  /// Overrides the default 5 s receive timeout (also paces accept() on
  /// listening sockets). Tests use tight timeouts to exercise the
  /// stalled-peer paths without multi-second waits.
  void set_read_timeout_ms(int timeout_ms) const;

  /// Disables further sends and receives without releasing the fd: any
  /// thread blocked in recv()/accept() on this socket wakes up and observes
  /// kClosed. This is how owners stop background reader threads; close()
  /// alone must not be called while another thread reads the same fd.
  void shutdown() const;

  bool valid() const { return fd_ >= 0; }
  void close();

 private:
  explicit Socket(int fd) : fd_(fd) {}
  static void set_read_timeout(int fd);

  int fd_ = -1;
};

/// Incremental decoder for the u32-length-prefixed frames produced by
/// Socket::write_frame. Feed it whatever read_some() returns — TCP is free
/// to dribble a frame one byte at a time or to coalesce several — and pull
/// complete frames out with next().
class FrameReader {
 public:
  /// @p max_frame_bytes guards against a hostile or corrupt length prefix
  /// committing us to buffering gigabytes; an over-limit prefix surfaces as
  /// kOversized and the connection should be dropped.
  explicit FrameReader(std::size_t max_frame_bytes = 1 << 20)
      : max_frame_bytes_(max_frame_bytes) {}

  void feed(std::string_view bytes) { buffer_.append(bytes); }

  enum class Event {
    kFrame,     ///< *frame holds one complete payload (prefix stripped)
    kNeedMore,  ///< partial prefix or partial payload; feed() more bytes
    kOversized, ///< length prefix exceeds the cap; abandon the connection
  };

  /// Extracts the next complete frame if one is buffered. kOversized is
  /// sticky: the stream is unframeable from that point on.
  Event next(std::string* frame);

 private:
  std::size_t max_frame_bytes_;
  std::string buffer_;
  bool oversized_ = false;
};

}  // namespace sharegrid::net
