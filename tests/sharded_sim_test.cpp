// Tests for the conservatively synchronized multi-domain engine
// (sim/sharded_simulator.hpp): epoch stepping, deterministic barrier
// delivery, shard-count invariance of the per-domain event streams, the
// unconditional lookahead-violation check, event conservation, and the
// engine's own lanes (every domain once per epoch, lowest-domain rethrow,
// shutdown); and for the star snapshot exchange that runs across its
// domains (coord/sharded_transport.hpp).
#include <cstdint>
#include <string>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "coord/sharded_transport.hpp"
#include "sim/sharded_simulator.hpp"
#include "util/assert.hpp"

namespace sharegrid {
namespace {

using sim::ShardedSimulator;

ShardedSimulator::Options options(SimDuration lookahead, std::size_t shards) {
  ShardedSimulator::Options o;
  o.lookahead = lookahead;
  o.shards = shards;
  return o;
}

TEST(ShardedSimulator, RunsLocalEventsPerDomain) {
  ShardedSimulator sharded(3, options(100, 2));
  std::vector<int> fired(3, 0);
  for (std::size_t d = 0; d < 3; ++d) {
    for (int i = 0; i < 5; ++i)
      sharded.domain(d).schedule_at(10 * (i + 1),
                                    [&fired, d] { ++fired[d]; });
  }
  sharded.run_until(1000);
  EXPECT_EQ(sharded.now(), 1000);
  for (std::size_t d = 0; d < 3; ++d) {
    EXPECT_EQ(fired[d], 5);
    EXPECT_EQ(sharded.domain(d).now(), 1000);
  }
  EXPECT_EQ(sharded.events_processed(), 15u);
  EXPECT_EQ(sharded.epochs(), 10u);
}

TEST(ShardedSimulator, SetupPostsDeliverAtFirstBarrier) {
  ShardedSimulator sharded(2, options(50, 1));
  std::vector<SimTime> seen;
  sharded.post(0, 1, 75, [&sharded, &seen] { seen.push_back(sharded.domain(1).now()); });
  sharded.post(1, 0, 0, [&sharded, &seen] { seen.push_back(sharded.domain(0).now()); });
  sharded.run_until(200);
  ASSERT_EQ(seen.size(), 2u);
  // Domain 0's message at t=0, domain 1's at t=75 (delivery order is by
  // source; execution order is by event time inside each domain).
  EXPECT_EQ(seen[0], 0);
  EXPECT_EQ(seen[1], 75);
  EXPECT_EQ(sharded.posts_sent(), 2u);
  EXPECT_EQ(sharded.posts_delivered(), 2u);
  sharded.audit_event_conservation();  // posts all accounted for
}

TEST(ShardedSimulator, LookaheadViolationThrowsInEveryBuild) {
  ShardedSimulator sharded(2, options(100, 1));
  // An event running in epoch [0, 100) posts for t = 50 < 100: the link
  // delay this post models is shorter than the declared lookahead, which
  // would let domain 1 miss a message for time it already executed.
  sharded.domain(0).schedule_at(10, [&sharded] {
    sharded.post(0, 1, 50, [] {});
  });
  EXPECT_THROW(sharded.run_until(1000), ContractViolation);
}

TEST(ShardedSimulator, PostAtEpochEndIsLegal) {
  ShardedSimulator sharded(2, options(100, 2));
  int delivered = 0;
  sharded.domain(0).schedule_at(10, [&sharded, &delivered] {
    sharded.post(0, 1, 100, [&delivered] { ++delivered; });
  });
  sharded.run_until(300);
  EXPECT_EQ(delivered, 1);
}

/// Ping-pong workload: every domain keeps local periodic work and relays a
/// token to the next domain with exactly-lookahead delay. The recorded
/// per-domain trace (time, tag) is the full observable event stream.
std::vector<std::vector<std::pair<SimTime, std::string>>> run_ring_workload(
    std::size_t domains, std::size_t shards) {
  constexpr SimDuration kLookahead = 100;
  ShardedSimulator sharded(domains, options(kLookahead, shards));
  std::vector<std::vector<std::pair<SimTime, std::string>>> traces(domains);

  // Local periodic work, two tasks per domain to create equal-time events.
  std::vector<std::unique_ptr<sim::PeriodicTask>> tasks;
  for (std::size_t d = 0; d < domains; ++d) {
    sim::Simulator& local = sharded.domain(d);
    for (int t = 0; t < 2; ++t) {
      tasks.push_back(std::make_unique<sim::PeriodicTask>(
          &local, 30, 60, [&local, &traces, d, t] {
            traces[d].push_back({local.now(), "local" + std::to_string(t)});
          }));
    }
  }

  // Token relays: domain d -> d+1 with the link delay == lookahead. The
  // relay function must live long enough; keep it on the heap via a shared
  // recursive lambda structure.
  struct Relay {
    ShardedSimulator* sharded;
    std::vector<std::vector<std::pair<SimTime, std::string>>>* traces;
    std::size_t domains;
    void hop(std::size_t d, int hops_left) {
      sim::Simulator& local = sharded->domain(d);
      (*traces)[d].push_back({local.now(), "token"});
      if (hops_left == 0) return;
      const std::size_t next = (d + 1) % domains;
      sharded->post(d, next, local.now() + 100,
                    [this, next, hops_left] { hop(next, hops_left - 1); });
    }
  };
  Relay relay{&sharded, &traces, domains};
  for (std::size_t d = 0; d < domains; ++d) {
    sharded.domain(d).schedule_at(5 + static_cast<SimTime>(d),
                                  [&relay, d] { relay.hop(d, 12); });
  }

  sharded.run_until(2000);
  sharded.audit_event_conservation();
  return traces;
}

TEST(ShardedSimulator, EventStreamsInvariantToShardCount) {
  const auto serial = run_ring_workload(5, 1);
  for (const std::size_t shards : {2u, 4u, 8u}) {
    const auto parallel = run_ring_workload(5, shards);
    ASSERT_EQ(parallel.size(), serial.size());
    for (std::size_t d = 0; d < serial.size(); ++d) {
      EXPECT_EQ(parallel[d], serial[d])
          << "domain " << d << " diverged at shards=" << shards;
    }
  }
}

TEST(ShardedSimulator, RepeatedRunUntilContinues) {
  ShardedSimulator sharded(2, options(10, 2));
  int count = 0;
  sim::PeriodicTask tick(&sharded.domain(0), 5, 10,
                         [&count] { ++count; });
  sharded.run_until(100);
  const int after_first = count;
  sharded.run_until(200);
  EXPECT_GT(count, after_first);
  EXPECT_EQ(sharded.now(), 200);
  tick.cancel();
}

TEST(ShardedSimulator, EveryDomainRunsOncePerEpochAtEveryLaneCount) {
  constexpr std::size_t kDomains = 16;
  constexpr std::size_t kEpochs = 25;
  constexpr SimDuration kLookahead = 10;
  for (const std::size_t shards : {1u, 2u, 4u, 8u}) {
    ShardedSimulator sharded(kDomains, options(kLookahead, shards));
    // ran[d][e]: events domain d ran in epoch e, one scheduled per epoch.
    // Each slot is written only by the lane running domain d.
    std::vector<std::vector<int>> ran(kDomains, std::vector<int>(kEpochs, 0));
    for (std::size_t d = 0; d < kDomains; ++d) {
      for (std::size_t e = 0; e < kEpochs; ++e) {
        const SimTime at =
            static_cast<SimTime>(e) * kLookahead + 1 + static_cast<SimTime>(d % 9);
        sharded.domain(d).schedule_at(at, [&ran, d, e] { ++ran[d][e]; });
      }
    }
    sharded.run_until(static_cast<SimTime>(kEpochs) * kLookahead);
    EXPECT_EQ(sharded.epochs(), kEpochs) << "shards=" << shards;
    EXPECT_EQ(sharded.events_processed(), kDomains * kEpochs);
    for (std::size_t d = 0; d < kDomains; ++d) {
      EXPECT_EQ(sharded.domain(d).now(), sharded.now());
      for (std::size_t e = 0; e < kEpochs; ++e)
        EXPECT_EQ(ran[d][e], 1) << "domain " << d << " epoch " << e
                                << " shards=" << shards;
    }
  }
}

TEST(ShardedSimulator, OneLaneRunsEveryDomainOnTheCallingThread) {
  ShardedSimulator sharded(6, options(10, 1));
  std::vector<std::thread::id> ran_on;
  for (std::size_t d = 0; d < 6; ++d) {
    sim::Simulator& local = sharded.domain(d);
    for (SimTime at = 3; at < 50; at += 7)
      local.schedule_at(at, [&ran_on] {
        ran_on.push_back(std::this_thread::get_id());
      });
  }
  sharded.run_until(50);
  ASSERT_EQ(ran_on.size(), 6u * 7u);
  for (const std::thread::id id : ran_on)
    EXPECT_EQ(id, std::this_thread::get_id());
}

TEST(ShardedSimulator, RethrowsLowestFailingDomainAfterEveryDomainRuns) {
  // Domains 3 and 9 throw in the same epoch; every domain must still run
  // it, and the error must be domain 3's whichever lane failed first.
  for (int attempt = 0; attempt < 20; ++attempt) {
    ShardedSimulator sharded(16, options(10, 4));
    std::vector<int> ran(16, 0);
    for (std::size_t d = 0; d < 16; ++d) {
      sharded.domain(d).schedule_at(5, [&ran, d] {
        ++ran[d];
        if (d == 3 || d == 9)
          throw ContractViolation("boom " + std::to_string(d));
      });
    }
    try {
      sharded.run_until(100);
      FAIL() << "expected an exception";
    } catch (const ContractViolation& e) {
      EXPECT_STREQ(e.what(), "boom 3");
    }
    for (int r : ran) EXPECT_EQ(r, 1);
    EXPECT_EQ(sharded.epochs(), 0u);  // the failing epoch is not crossed
  }
}

TEST(ShardedSimulator, DestroysWithoutHangingAfterAThrowOrWithoutARun) {
  {
    ShardedSimulator threw(8, options(10, 4));
    threw.domain(5).schedule_at(1, [] { throw ContractViolation("boom"); });
    EXPECT_THROW(threw.run_until(100), ContractViolation);
  }
  {
    const ShardedSimulator never_ran(8, options(10, 4));
    EXPECT_EQ(never_ran.epochs(), 0u);
  }
}

// --- ShardedStarTransport ---------------------------------------------------

struct StarDelivery {
  SimTime at;  // on the receiving cluster's clock
  std::uint64_t round;
  std::vector<double> aggregate;
  bool operator==(const StarDelivery&) const = default;
};

struct StarRun {
  std::vector<std::vector<StarDelivery>> deliveries;  // per cluster
  std::uint64_t messages = 0;
  std::uint64_t rounds = 0;
};

constexpr std::size_t kStarClusters = 4;
constexpr SimDuration kStarLink = 50;
constexpr SimDuration kStarPeriod = 200;
constexpr SimTime kStarFirstRound = 100;

/// Cluster c's fixed sample. The second slot's sum depends on the order of
/// the additions: 1 in cluster order, 0 in reverse.
std::vector<double> star_sample(std::size_t cluster) {
  constexpr double kSecond[kStarClusters] = {1e16, 1.0, -1e16, 1.0};
  return {static_cast<double>(cluster + 1), kSecond[cluster]};
}

/// Three rounds of the star exchange over four clusters, the engine's
/// lookahead equal to the link delay.
StarRun run_star_exchange(std::size_t shards) {
  ShardedSimulator sharded(kStarClusters, options(kStarLink, shards));
  coord::ShardedStarTransport star(&sharded, 2,
                                   {.period = kStarPeriod,
                                    .link_delay = kStarLink,
                                    .first_round = kStarFirstRound});
  StarRun run;
  run.deliveries.resize(kStarClusters);
  for (std::size_t c = 0; c < kStarClusters; ++c) {
    sim::Simulator* local = &sharded.domain(c);
    std::vector<StarDelivery>* out = &run.deliveries[c];
    star.attach(
        c, [c] { return star_sample(c); },
        [local, out](std::uint64_t round, const std::vector<double>& sum) {
          out->push_back({local->now(), round, sum});
        });
  }
  star.start();
  sharded.run_until(kStarFirstRound + 3 * kStarPeriod - 1);
  star.stop();
  run.messages = star.messages_sent();
  run.rounds = star.rounds_completed();
  return run;
}

TEST(ShardedStarTransport, DeliversTheClusterOrderedSumToEveryCluster) {
  std::vector<double> sum(2, 0.0);
  for (std::size_t c = 0; c < kStarClusters; ++c) {
    const std::vector<double> sample = star_sample(c);
    for (std::size_t i = 0; i < sum.size(); ++i) sum[i] += sample[i];
  }
  ASSERT_EQ(sum, (std::vector<double>{10.0, 1.0}));

  const StarRun serial = run_star_exchange(1);
  EXPECT_EQ(serial.rounds, 3u);
  EXPECT_EQ(serial.messages, 2 * kStarClusters * serial.rounds);
  for (std::size_t c = 0; c < kStarClusters; ++c) {
    SCOPED_TRACE(testing::Message() << "cluster " << c);
    ASSERT_EQ(serial.deliveries[c].size(), 3u);
    for (std::uint64_t round = 0; round < 3; ++round) {
      const SimTime start =
          kStarFirstRound + static_cast<SimTime>(round) * kStarPeriod;
      EXPECT_EQ(serial.deliveries[c][round],
                (StarDelivery{start + 2 * kStarLink, round, sum}));
    }
  }

  const StarRun parallel = run_star_exchange(4);
  EXPECT_EQ(parallel.deliveries, serial.deliveries);
  EXPECT_EQ(parallel.messages, serial.messages);
  EXPECT_EQ(parallel.rounds, serial.rounds);
}

}  // namespace
}  // namespace sharegrid
