// Snapshot exchange across sharded simulation domains (DESIGN.md D13).
//
// In the cluster-partitioned scenarios every cluster runs in its own
// simulation domain, and the ONLY cross-domain traffic is the combining
// tree's snapshot exchange: each cluster's control-plane member contributes
// its local demand vector, a virtual root (hosted in domain 0) sums the
// contributions, and the aggregate is broadcast back — the flat star of
// CombiningTree, with each link crossing a domain boundary through
// ShardedSimulator::post(). The link delay is therefore exactly the
// conservative lookahead bound the engine steps by.
//
// Determinism: all reports of a round arrive at the root at the same
// simulated time and are delivered in source-cluster order (the barrier
// contract), so the root's accumulation order — and the broadcast it posts —
// is invariant to shard count.
#pragma once

#include <cstdint>
#include <map>
#include <memory>
#include <vector>

#include "coord/snapshot_transport.hpp"
#include "sim/sharded_simulator.hpp"
#include "sim/simulator.hpp"

namespace sharegrid::coord {

/// Star-shaped snapshot exchange between clusters of a ShardedSimulator;
/// cluster c's provider/receiver run entirely inside domain c.
class ShardedStarTransport {
 public:
  using Provider = SnapshotTransport::Provider;
  using Receiver = SnapshotTransport::Receiver;

  /// options.link_delay is the one-way delay of every cluster->root and
  /// root->cluster link; it must be >= the engine's lookahead (it IS the
  /// natural lookahead bound). @pre options.fanout is 0: a star.
  ShardedStarTransport(sim::ShardedSimulator* sharded, std::size_t vector_size,
                       SimExchangeOptions options);

  /// Registers cluster @p cluster's hooks; call for every cluster before
  /// start(). The provider samples inside domain `cluster`; the receiver is
  /// invoked inside domain `cluster` one link delay after the root combines.
  void attach(std::size_t cluster, Provider provider, Receiver receiver);

  /// Creates one sampling task per cluster (cluster order — creation order
  /// fixes equal-time event ordering, DESIGN.md D4).
  void start();
  void stop();

  /// 2 * clusters per completed round (reports up + broadcasts down), same
  /// accounting as the star CombiningTree.
  std::uint64_t messages_sent() const { return messages_sent_; }
  std::uint64_t rounds_completed() const { return rounds_completed_; }

 private:
  /// Root-side accumulation of one in-flight round (domain 0 only).
  struct RootSlot {
    std::vector<double> sum;
    std::size_t reports = 0;
  };

  void sample(std::size_t cluster, std::uint64_t round);
  void root_receive(std::uint64_t round, std::size_t cluster,
                    const std::vector<double>& value);

  sim::ShardedSimulator* sharded_;
  std::size_t vector_size_;
  SimExchangeOptions options_;
  std::vector<Provider> providers_;
  std::vector<Receiver> receivers_;
  /// Per-cluster next round number; advanced only by the cluster's own task.
  std::vector<std::uint64_t> next_round_;
  std::vector<std::unique_ptr<sim::PeriodicTask>> tasks_;
  /// In-flight rounds at the virtual root. Touched only from domain-0
  /// events, so no synchronization; ordered map keeps drain order stable.
  std::map<std::uint64_t, RootSlot> root_rounds_;
  std::uint64_t messages_sent_ = 0;
  std::uint64_t rounds_completed_ = 0;
};

}  // namespace sharegrid::coord
