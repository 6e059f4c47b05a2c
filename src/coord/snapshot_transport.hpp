// Transport seam for combining-tree snapshot exchange (§3.2).
//
// The control plane's window loop needs exactly one thing from the network:
// periodically sample every member's local demand vector, sum the samples,
// and deliver the aggregate back to every member tagged with a monotonically
// increasing round number. SnapshotTransport abstracts that exchange so the
// same coord::ControlPlane runs over
//
//  * CombiningTree     — the event-driven tree on a Simulator
//    (coord/combining_tree.hpp; the DES experiments, where link delay and
//    tree shape are modeled);
//  * InProcessTransport — a synchronous in-memory combining tree: the live
//    facade's one-member exchange (mutex-serialized by the wall-clock
//    driver above it), and the R-member oracle that the socket parity
//    tests and multi_process_demo compare SocketTransport against;
//  * SocketTransport   — cross-process exchange over loopback TCP
//    (coord/socket_transport.hpp): round-tagged demand vectors in a star,
//    with deadline-abandoned rounds and a staleness fallback to 1/R.
#pragma once

#include <cstdint>
#include <functional>
#include <string>
#include <vector>

#include "util/time.hpp"

namespace sharegrid::coord {

/// Abstract snapshot-exchange transport. Members are indexed 0..R-1 in the
/// order the control plane registered them.
class SnapshotTransport {
 public:
  /// Samples a member's local demand vector at round start.
  using Provider = std::function<std::vector<double>()>;
  /// Delivers a completed aggregate; @p round strictly increases per member.
  using Receiver =
      std::function<void(std::uint64_t round, const std::vector<double>&)>;

  virtual ~SnapshotTransport() = default;

  /// Registers member @p member's sample/deliver hooks. Call before start().
  virtual void attach(std::size_t member, Provider provider,
                      Receiver receiver) = 0;

  /// Registers a callback fired when the transport declares its aggregate
  /// stream stale — no fresh aggregate within its staleness budget — so the
  /// member can drop back to the conservative no-snapshot 1/R regime.
  /// Transports that cannot lose peers keep this default no-op.
  virtual void attach_stale_handler(std::size_t member,
                                    std::function<void()> on_stale) {
    (void)member;
    (void)on_stale;
  }

  /// Begins exchange rounds (periodic on the sim transport; explicit via
  /// InProcessTransport::exchange() on the wall-clock path).
  virtual void start() = 0;
  virtual void stop() = 0;

  virtual std::uint64_t messages_sent() const = 0;
};

/// Schedule and shape of a simulated exchange: CombiningTree,
/// PairwiseExchange and ShardedStarTransport all take it.
struct SimExchangeOptions {
  /// How often an aggregation round starts.
  SimDuration period = 100 * kMillisecond;
  /// One-way delay of every link (same up and down).
  SimDuration link_delay = 0;
  /// When the first aggregation round fires.
  SimTime first_round = 0;
  /// CombiningTree's shape: 0 = flat star under the virtual root, k >= 2 =
  /// complete k-ary tree. The star and pairwise exchanges take only 0.
  std::size_t fanout = 0;
};

/// Synchronous in-process combining tree for live deployments: exchange()
/// samples every provider, sums element-wise, and delivers the aggregate to
/// every receiver before returning. Message accounting mirrors the star
/// CombiningTree (R reports up + R broadcasts down per round). Not
/// internally synchronized — the wall-clock driver above it serializes.
class InProcessTransport final : public SnapshotTransport {
 public:
  InProcessTransport(std::size_t member_count, std::size_t vector_size);

  void attach(std::size_t member, Provider provider,
              Receiver receiver) override;
  void start() override;
  void stop() override;
  std::uint64_t messages_sent() const override { return messages_sent_; }

  /// Runs one full aggregation round synchronously. No-op before start() /
  /// after stop().
  void exchange();

  std::uint64_t rounds_completed() const { return rounds_completed_; }

 private:
  std::size_t vector_size_;
  std::vector<Provider> providers_;
  std::vector<Receiver> receivers_;
  std::vector<double> sum_scratch_;
  bool started_ = false;
  std::uint64_t next_round_ = 0;
  std::uint64_t rounds_completed_ = 0;
  std::uint64_t messages_sent_ = 0;
};

// The cross-process SocketTransport lives in coord/socket_transport.hpp —
// it pulls in real sockets and threads, which nothing sim-only should pay
// for transitively.

}  // namespace sharegrid::coord
