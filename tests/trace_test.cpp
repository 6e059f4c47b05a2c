// Tests for request traces and the open-loop TraceClient.
#include <gtest/gtest.h>

#include <memory>

#include "coord/control_plane.hpp"
#include "coord/window_driver.hpp"
#include "nodes/l4_redirector.hpp"
#include "nodes/server.hpp"
#include "nodes/trace_client.hpp"
#include "sched/response_time_scheduler.hpp"
#include "test_helpers.hpp"
#include "workload/trace.hpp"

namespace sharegrid {
namespace {

using workload::ActivityPlan;
using workload::ReplySizeDistribution;
using workload::RequestTrace;
using workload::TraceEntry;

TEST(RequestTrace, SynthesizedRatesMatchSpec) {
  ActivityPlan plan(2);
  plan.always_active(0, seconds(50));
  plan.add_interval(1, seconds(10), seconds(40));

  const ReplySizeDistribution sizes;
  const RequestTrace trace =
      RequestTrace::synthesize(plan, {0, 1}, {200.0, 100.0}, sizes, 42);

  // Client 0: 200/s over 50 s = ~10000; client 1: 100/s over 30 s = ~3000.
  const auto counts = trace.counts_by_principal();
  ASSERT_EQ(counts.size(), 2u);
  EXPECT_NEAR(static_cast<double>(counts[0]), 10000.0, 300.0);
  EXPECT_NEAR(static_cast<double>(counts[1]), 3000.0, 170.0);
  EXPECT_NEAR(trace.rate_of(0, seconds(50)), 200.0, 6.0);
}

TEST(RequestTrace, EntriesAreTimeOrderedAndInsideIntervals) {
  ActivityPlan plan(1);
  plan.add_interval(0, seconds(5), seconds(15));
  const ReplySizeDistribution sizes;
  const RequestTrace trace =
      RequestTrace::synthesize(plan, {0}, {50.0}, sizes, 7);

  SimTime last = 0;
  for (const TraceEntry& e : trace.entries()) {
    EXPECT_GE(e.time, last);
    EXPECT_GE(e.time, seconds(5));
    EXPECT_LT(e.time, seconds(15));
    last = e.time;
  }
}

TEST(RequestTrace, DeterministicInSeed) {
  ActivityPlan plan(1);
  plan.always_active(0, seconds(10));
  const ReplySizeDistribution sizes;
  const RequestTrace a = RequestTrace::synthesize(plan, {0}, {100.0}, sizes, 5);
  const RequestTrace b = RequestTrace::synthesize(plan, {0}, {100.0}, sizes, 5);
  const RequestTrace c = RequestTrace::synthesize(plan, {0}, {100.0}, sizes, 6);
  ASSERT_EQ(a.size(), b.size());
  for (std::size_t i = 0; i < a.size(); ++i)
    EXPECT_EQ(a.entries()[i].time, b.entries()[i].time);
  EXPECT_NE(a.size(), c.size());
}

TEST(RequestTrace, AppendValidatesOrder) {
  RequestTrace trace;
  trace.append({seconds(1), 0, 100.0});
  EXPECT_THROW(trace.append({seconds(0.5), 0, 100.0}),
               ContractViolation);
  EXPECT_THROW(trace.append({seconds(2), core::kNoPrincipal, 100.0}),
               ContractViolation);
  EXPECT_EQ(trace.size(), 1u);
}

TEST(TraceClient, ReplaysOpenLoopThroughL4) {
  // Offered load is fixed by the trace: even though only 40/s are admitted,
  // the client keeps issuing at the full trace rate (open loop), unlike the
  // closed-loop ClientFleet.
  sim::Simulator sim;
  nodes::RequestSlab requests;
  nodes::Metrics metrics(1);
  nodes::Server server(&sim, &requests, &metrics, {"s", 0, 1000.0});
  nodes::ServerPool pool;
  pool.add(&server);
  test::FixedRateScheduler scheduler({40.0});
  coord::ControlPlane plane(&scheduler, {});
  nodes::L4Redirector redirector(&sim, &requests, &metrics, &pool,
                                 plane.add_member(), {});
  coord::SimWindowDriver driver(&sim, &plane);
  driver.start(100 * kMillisecond);

  ActivityPlan plan(1);
  plan.always_active(0, seconds(10));
  const ReplySizeDistribution sizes;
  const RequestTrace trace =
      RequestTrace::synthesize(plan, {0}, {200.0}, sizes, 11);

  nodes::TraceClient client(&sim, &requests, &metrics, &redirector, &trace,
                            {}, Rng(3));
  client.start();
  sim.run_until(seconds(10));

  EXPECT_EQ(client.issued(), trace.size());
  // Offered tracks the trace (~200/s); served tracks the 40/s quota.
  EXPECT_NEAR(metrics.offered(0).average_rate(0, seconds(10)), 200.0, 10.0);
  EXPECT_NEAR(metrics.served(0).average_rate(seconds(2), seconds(10)), 40.0,
              5.0);
  // The unserved backlog sits in the redirector queue, still growing.
  EXPECT_GT(redirector.queue_length(0), 1000u);
}

/// Counts the requests clients hand to it.
class CountingRedirector final : public nodes::RedirectorBase {
 public:
  void on_client_request(nodes::RequestHandle) override { ++requests; }
  int requests = 0;
};

// A trace client destroyed with arrivals, a send, a hop to a server and a
// retry pending leaves them all inert.
TEST(TraceClient, DestructionIsSafeWithPendingEvents) {
  sim::Simulator sim;
  nodes::RequestSlab requests;
  nodes::Metrics metrics(1);
  nodes::Server server(&sim, &requests, &metrics, {"s", 0, 1000.0});
  CountingRedirector redirector;
  RequestTrace trace;
  for (int i = 1; i <= 100; ++i)
    trace.append({i * 10 * kMillisecond, 0, 100.0});
  auto client = std::make_unique<nodes::TraceClient>(
      &sim, &requests, &metrics, &redirector, &trace,
      nodes::TraceClient::Config{}, Rng(3));
  client->start();
  // The arrival at 500 ms is still on its way to the redirector.
  sim.run_until(seconds(0.5));
  nodes::Request request;
  request.principal = 0;
  client->on_redirect_to_server(requests.acquire(request, client.get()),
                                &server);
  client->on_self_redirect(requests.acquire(request, client.get()));
  const int seen = redirector.requests;
  EXPECT_EQ(seen, 49);
  client.reset();
  sim.run_all();
  EXPECT_EQ(redirector.requests, seen);
  EXPECT_EQ(server.requests_submitted(), 0u);
  EXPECT_EQ(metrics.latency(0).count(), 0u);
}

TEST(TraceClient, IdenticalInputForDifferentSchedulers) {
  // The point of open loop: two different schedulers see the same issued
  // request ids at the same times.
  ActivityPlan plan(1);
  plan.always_active(0, seconds(5));
  const ReplySizeDistribution sizes;
  const RequestTrace trace =
      RequestTrace::synthesize(plan, {0}, {100.0}, sizes, 13);

  auto run = [&](double rate) {
    sim::Simulator sim;
    nodes::RequestSlab requests;
    nodes::Metrics metrics(1);
    nodes::Server server(&sim, &requests, &metrics,
                         {"s", 0, 1000.0});
    nodes::ServerPool pool;
    pool.add(&server);
    test::FixedRateScheduler scheduler({rate});
    coord::ControlPlane plane(&scheduler, {});
    nodes::L4Redirector redirector(&sim, &requests, &metrics, &pool,
                                   plane.add_member(), {});
    coord::SimWindowDriver driver(&sim, &plane);
    driver.start(100 * kMillisecond);
    nodes::TraceClient client(&sim, &requests, &metrics, &redirector, &trace,
                              {}, Rng(3));
    client.start();
    sim.run_until(seconds(5));
    return metrics.offered(0).total_events();
  };

  EXPECT_EQ(run(10.0), run(1000.0));  // offered load is scheduler-invariant
}

}  // namespace
}  // namespace sharegrid
