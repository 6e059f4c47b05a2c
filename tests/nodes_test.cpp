// Unit tests for the node layer: server machines, pools, client fleets,
// and both redirector implementations.
#include <gtest/gtest.h>

#include <cstdint>
#include <limits>
#include <memory>
#include <utility>
#include <vector>

#include "coord/control_plane.hpp"
#include "coord/window_driver.hpp"
#include "nodes/client.hpp"
#include "nodes/l4_redirector.hpp"
#include "nodes/l7_redirector.hpp"
#include "nodes/metrics.hpp"
#include "nodes/server.hpp"
#include "sim/simulator.hpp"
#include "test_helpers.hpp"
#include "workload/reply_size.hpp"

namespace sharegrid::nodes {
namespace {

using test::FallbackScheduler;
using test::FixedRateScheduler;

Request make_request(core::PrincipalId p, std::uint64_t id, SimTime created,
                     std::size_t client = 0) {
  Request r;
  r.id = id;
  r.principal = p;
  r.created = created;
  r.client = client;
  return r;
}

/// A source that is never called back (slab bookkeeping tests).
class SilentSource final : public RequestSource {
 public:
  void on_redirect_to_server(RequestHandle, Server*) override {}
  void on_self_redirect(RequestHandle) override {}
  void on_response(RequestHandle) override {}
};

/// Records the id and time of each completion a server reports.
class RecordingSink final : public ServiceSink {
 public:
  RecordingSink(sim::Simulator* sim, const RequestSlab* requests)
      : ServiceSink(sim), sim_(sim), requests_(requests) {}

  void on_served(RequestHandle request) override {
    done.emplace_back((*requests_)[request].id, sim_->now());
  }

  std::vector<std::pair<std::uint64_t, SimTime>> done;

 private:
  sim::Simulator* sim_;
  const RequestSlab* requests_;
};

// --- Server ------------------------------------------------------------------

TEST(Server, ServesAtConfiguredCapacity) {
  sim::Simulator sim;
  RequestSlab requests;
  Metrics metrics(1);
  Server server(&sim, &requests, &metrics, {"s", 0, 100.0});
  RecordingSink sink(&sim, &requests);

  for (int i = 0; i < 50; ++i) {
    server.submit(requests.acquire(
                      make_request(0, static_cast<std::uint64_t>(i), 0),
                      nullptr),
                  &sink);
  }
  // 50 requests at 100/s take 0.5 s of busy time.
  sim.run_until(seconds(0.25));
  EXPECT_NEAR(static_cast<double>(sink.done.size()), 25.0, 1.0);
  sim.run_until(seconds(1.0));
  EXPECT_EQ(sink.done.size(), 50u);
  EXPECT_EQ(server.requests_submitted(), 50u);
}

TEST(Server, BacklogReflectsQueuedWork) {
  sim::Simulator sim;
  RequestSlab requests;
  Metrics metrics(1);
  Server server(&sim, &requests, &metrics, {"s", 0, 100.0});
  EXPECT_DOUBLE_EQ(server.backlog_seconds(), 0.0);
  for (int i = 0; i < 10; ++i)
    server.submit(requests.acquire(
                      make_request(0, static_cast<std::uint64_t>(i), 0),
                      nullptr),
                  nullptr);
  EXPECT_NEAR(server.backlog_seconds(), 0.1, 1e-6);
}

TEST(Server, RecordsServedMetrics) {
  sim::Simulator sim;
  RequestSlab requests;
  Metrics metrics(2);
  Server server(&sim, &requests, &metrics, {"s", 0, 100.0});
  Request request = make_request(1, 1, 0);
  request.reply_bytes = 1000.0;
  server.submit(requests.acquire(request, nullptr), nullptr);
  sim.run_all();
  EXPECT_EQ(metrics.served(1).total_events(), 1u);
  EXPECT_EQ(metrics.served(0).total_events(), 0u);
  EXPECT_EQ(metrics.reply_bytes(1).total_events(), 1000u);
}

// Each completion reaches the sink once, at its own request's completion,
// in submission order, across service times that change between
// submissions and a queue that never drains.
TEST(Server, CompletionsFireInSubmissionOrder) {
  sim::Simulator sim;
  RequestSlab requests;
  Metrics metrics(1);
  Server server(&sim, &requests, &metrics, {"s", 0, 100.0});
  RecordingSink sink(&sim, &requests);
  const auto& done = sink.done;
  std::vector<SimTime> due;
  SimTime free_at = 0;
  for (std::uint64_t i = 0; i < 40; ++i) {
    const double capacity =
        (i < 20 ? 100.0 : 400.0) / static_cast<double>(1 + i % 3);
    server.set_capacity(capacity);
    server.submit(requests.acquire(make_request(0, i, 0), nullptr), &sink);
    free_at += static_cast<SimDuration>(1.0 / capacity *
                                        static_cast<double>(kSecond));
    due.push_back(free_at);
    // Submissions interleave with completions.
    sim.run_until(sim.now() + 5 * kMillisecond);
  }
  sim.run_all();
  ASSERT_EQ(done.size(), 40u);
  for (std::uint64_t i = 0; i < 40; ++i) {
    EXPECT_EQ(done[i].first, i);
    EXPECT_EQ(done[i].second, due[i]);
  }
}

// A server destroyed with sinkless completions pending leaves them inert:
// nothing is served once it is gone (debug-asan catches a completion event
// that would still touch it). A completion with a sink checks the sink's
// flag instead, and sinks are destroyed before their servers
// (L4Redirector.DestructionIsSafeWithPendingEvents).
TEST(Server, DestructionIsSafeWithPendingEvents) {
  sim::Simulator sim;
  RequestSlab requests;
  Metrics metrics(1);
  auto server = std::make_unique<Server>(
      &sim, &requests, &metrics, Server::Config{"s", 0, 100.0});
  for (std::uint64_t i = 0; i < 10; ++i)
    server->submit(requests.acquire(make_request(0, i, 0), nullptr), nullptr);
  sim.run_until(seconds(0.035));  // 10 ms per request: three done
  EXPECT_EQ(metrics.served(0).total_events(), 3u);
  server.reset();
  EXPECT_FALSE(sim.idle());
  sim.run_all();
  EXPECT_EQ(metrics.served(0).total_events(), 3u);
}

TEST(ServerPool, PicksLeastBackloggedMachineOfOwner) {
  sim::Simulator sim;
  RequestSlab requests;
  Metrics metrics(2);
  Server s1(&sim, &requests, &metrics, {"s1", 0, 100.0});
  Server s2(&sim, &requests, &metrics, {"s2", 0, 100.0});
  Server other(&sim, &requests, &metrics, {"s3", 1, 100.0});
  Server idle(&sim, &requests, &metrics, {"s4", 1, 100.0});
  ServerPool pool;
  pool.add(&s1);
  pool.add(&s2);
  pool.add(&other);

  // Indexes are registration order.
  EXPECT_EQ(pool.size(), 3u);
  EXPECT_EQ(&pool.at(1), &s2);
  EXPECT_THROW(pool.at(3), ContractViolation);

  EXPECT_EQ(pool.pick(0), 0u);  // tie broken by registration order
  s1.submit(requests.acquire(make_request(0, 1, 0), nullptr), nullptr);
  EXPECT_EQ(pool.pick(0), 1u);  // s1 now has backlog
  EXPECT_EQ(pool.pick(1), 2u);
  EXPECT_FALSE(pool.pick(5).has_value());

  // s2's work ends 1 us after s1's: the smallest gap still orders them.
  sim.run_until(1);
  s2.submit(requests.acquire(make_request(0, 2, 1), nullptr), nullptr);
  EXPECT_EQ(s2.next_free(), s1.next_free() + 1);
  EXPECT_EQ(pool.pick(0), 0u);

  // A machine whose work ended in the past is as free as one that never
  // had any: the two tie, and the first registered wins.
  other.submit(requests.acquire(make_request(1, 3, 1), nullptr), nullptr);
  pool.add(&idle);
  sim.run_until(seconds(1.0));
  EXPECT_EQ(other.next_free(), idle.next_free());
  EXPECT_EQ(pool.pick(1), 2u);
}

// --- RequestSlab -------------------------------------------------------------

TEST(RequestSlab, ReusesReleasedSlotsAndRejectsStaleHandles) {
  RequestSlab slab;
  SilentSource source;
  const RequestHandle a = slab.acquire(make_request(0, 1, 0), &source);
  const RequestHandle b = slab.acquire(make_request(1, 2, 0), nullptr);
  EXPECT_EQ(slab[a].id, 1u);
  EXPECT_EQ(slab[b].principal, 1u);
  EXPECT_EQ(slab.source(a), &source);
  EXPECT_EQ(slab.in_flight(), 2u);

  slab.release(a);
  EXPECT_THROW(slab[a], ContractViolation);
  EXPECT_THROW(slab.release(a), ContractViolation);
  // The freed slot is reused under a new generation: the old handle stays
  // dead and the slab does not grow.
  const RequestHandle c = slab.acquire(make_request(0, 3, 0), nullptr);
  EXPECT_NE(c, a);
  EXPECT_EQ(slab[c].id, 3u);
  EXPECT_THROW(slab[a], ContractViolation);
  EXPECT_EQ(slab.slots(), 2u);
  EXPECT_EQ(slab.in_flight(), 2u);
  EXPECT_THROW(slab[RequestHandle{7}], ContractViolation);  // never issued

  // Slots never move: a reference taken before the slab grows across
  // chunk boundaries still names the same request.
  const Request& first = slab[b];
  std::vector<RequestHandle> more;
  for (std::uint64_t id = 10; id < 10 + 3 * RequestSlab::kChunkSlots; ++id)
    more.push_back(slab.acquire(make_request(0, id, 0), nullptr));
  EXPECT_EQ(&first, &slab[b]);
  for (std::size_t i = 0; i < more.size(); ++i)
    EXPECT_EQ(slab[more[i]].id, 10 + i);
  EXPECT_EQ(slab.slots(), 2 + more.size());
}

// --- ClientFleet ---------------------------------------------------------------

/// Records everything a redirector would see.
class RecordingRedirector final : public RedirectorBase {
 public:
  explicit RecordingRedirector(RequestSlab* slab) : slab_(slab) {}
  void on_client_request(RequestHandle request) override {
    handles.push_back(request);
    requests.push_back((*slab_)[request]);
  }
  /// The handle of the first recorded request from @p client.
  RequestHandle handle_of(std::size_t client) const {
    for (std::size_t i = 0; i < requests.size(); ++i)
      if (requests[i].client == client) return handles[i];
    ADD_FAILURE() << "no request from client " << client;
    return {};
  }
  std::vector<RequestHandle> handles;
  std::vector<Request> requests;

 private:
  RequestSlab* slab_;
};

ClientFleet::Config client_config(double rate, std::size_t max_outstanding,
                                  bool exponential = false) {
  ClientFleet::Config c;
  c.principal = 0;
  c.first_index = 0;
  c.rate = rate;
  c.max_outstanding = max_outstanding;
  c.exponential_arrivals = exponential;
  return c;
}

/// The next value a machine's RNG would draw, without advancing it.
std::uint64_t peek(const ClientFleet& fleet, std::size_t m) {
  Rng copy = fleet.machine(m).rng;
  return copy();
}

// The ClientMachine tests pin one WebBench machine's closed-loop behaviour,
// run as a fleet of one.

TEST(ClientMachine, GeneratesAtConfiguredRate) {
  sim::Simulator sim;
  RequestSlab requests;
  Metrics metrics(1);
  RecordingRedirector redirector(&requests);
  ClientFleet client(&sim, &requests, &metrics, &redirector, client_config(100.0, 1000),
                     {Rng(1)});
  client.set_active(true);
  sim.run_until(seconds(10.0));
  EXPECT_NEAR(static_cast<double>(redirector.requests.size()), 1000.0, 5.0);
}

TEST(ClientMachine, DeactivationStopsGeneration) {
  sim::Simulator sim;
  RequestSlab requests;
  Metrics metrics(1);
  RecordingRedirector redirector(&requests);
  ClientFleet client(&sim, &requests, &metrics, &redirector, client_config(100.0, 1000),
                     {Rng(2)});
  client.set_active(true);
  sim.run_until(seconds(1.0));
  client.set_active(false);
  const auto count = redirector.requests.size();
  sim.run_until(seconds(5.0));
  EXPECT_LE(redirector.requests.size(), count + 1);  // at most one in flight
}

TEST(ClientMachine, OutstandingCapThrottlesGeneration) {
  sim::Simulator sim;
  RequestSlab requests;
  Metrics metrics(1);
  RecordingRedirector redirector(&requests);  // never responds
  ClientFleet client(&sim, &requests, &metrics, &redirector, client_config(100.0, 7),
                     {Rng(3)});
  client.set_active(true);
  sim.run_until(seconds(5.0));
  EXPECT_EQ(redirector.requests.size(), 7u);
  EXPECT_EQ(client.machine(0).outstanding, 7u);
}

TEST(ClientMachine, SelfRedirectRetriesSameRequest) {
  sim::Simulator sim;
  RequestSlab requests;
  Metrics metrics(1);
  RecordingRedirector redirector(&requests);
  ClientFleet client(&sim, &requests, &metrics, &redirector,
                     client_config(100.0, 10), {Rng(4)});
  client.set_active(true);
  sim.run_until(seconds(0.02));  // one request out
  ASSERT_GE(redirector.requests.size(), 1u);
  const Request first = redirector.requests[0];

  client.set_active(false);
  client.on_self_redirect(redirector.handles[0]);
  sim.run_until(seconds(2.0));
  // The retry arrives with the same id and original creation time.
  const Request& retried = redirector.requests.back();
  EXPECT_EQ(retried.id, first.id);
  EXPECT_EQ(retried.created, first.created);
  EXPECT_EQ(metrics.rejected(0).total_events(), 1u);
}

TEST(ClientMachine, ResponseFreesSlotAndRecordsLatency) {
  sim::Simulator sim;
  RequestSlab requests;
  Metrics metrics(1);
  RecordingRedirector redirector(&requests);
  ClientFleet client(&sim, &requests, &metrics, &redirector, client_config(100.0, 5),
                     {Rng(5)});
  client.set_active(true);
  sim.run_until(seconds(0.05));
  ASSERT_GE(client.machine(0).outstanding, 1u);
  const std::size_t before = client.machine(0).outstanding;

  sim.run_until(seconds(1.0) + 1);  // move time forward for latency
  client.on_response(redirector.handles[0]);
  EXPECT_EQ(client.machine(0).outstanding, before - 1);
  EXPECT_EQ(metrics.latency(0).count(), 1u);
  EXPECT_GT(metrics.latency(0).mean(), 0.9);
}

TEST(ClientFleet, MachinesCarryTheirOwnIndicesAndRequestIds) {
  sim::Simulator sim;
  RequestSlab requests;
  Metrics metrics(1);
  RecordingRedirector redirector(&requests);
  auto config = client_config(100.0, 1000);
  config.first_index = 10;
  ClientFleet fleet(&sim, &requests, &metrics, &redirector, config,
                    {Rng(1), Rng(2), Rng(3)});
  fleet.set_active(true);
  sim.run_until(seconds(1.0));
  fleet.set_active(false);
  sim.run_until(seconds(1.1));  // the last requests finish their hop
  std::vector<std::uint64_t> issued(3, 0);
  for (const Request& r : redirector.requests) {
    ASSERT_GE(r.client, 10u);
    ASSERT_LT(r.client, 13u);
    const std::size_t m = r.client - 10;
    EXPECT_EQ(r.id, (std::uint64_t{r.client} << 32) | issued[m]);
    ++issued[m];
  }
  for (std::size_t m = 0; m < 3; ++m) {
    EXPECT_NEAR(static_cast<double>(issued[m]), 100.0, 2.0);
    EXPECT_EQ(fleet.machine(m).next_request_id, issued[m]);
  }
}

TEST(ClientFleet, CallbacksTouchOnlyTheAddressedMachine) {
  sim::Simulator sim;
  RequestSlab requests;
  Metrics metrics(1);
  RecordingRedirector redirector(&requests);
  auto config = client_config(100.0, 1000, /*exponential=*/true);
  config.first_index = 10;
  ClientFleet fleet(&sim, &requests, &metrics, &redirector, config,
                    {Rng(1), Rng(2), Rng(3)});
  fleet.set_active(true);
  sim.run_until(seconds(0.2));
  fleet.set_active(false);
  ASSERT_FALSE(redirector.requests.empty());
  auto snapshot = [&] {
    std::vector<std::pair<std::size_t, std::uint64_t>> state;
    for (std::size_t m = 0; m < fleet.size(); ++m)
      state.emplace_back(fleet.machine(m).outstanding, peek(fleet, m));
    return state;
  };

  // A response frees a slot on its own machine and draws nothing.
  auto before = snapshot();
  fleet.on_response(redirector.handle_of(11));
  auto after = snapshot();
  EXPECT_EQ(after[0], before[0]);
  EXPECT_EQ(after[1].first, before[1].first - 1);
  EXPECT_EQ(after[1].second, before[1].second);
  EXPECT_EQ(after[2], before[2]);

  // A self-redirect draws its retry jitter from its own machine's stream
  // and keeps the slot occupied.
  before = after;
  fleet.on_self_redirect(redirector.handle_of(12));
  after = snapshot();
  EXPECT_EQ(after[0], before[0]);
  EXPECT_EQ(after[1], before[1]);
  EXPECT_EQ(after[2].first, before[2].first);
  EXPECT_NE(after[2].second, before[2].second);

  // Requests from outside the fleet are refused, not misrouted.
  Request stranger = requests[redirector.handle_of(10)];
  stranger.client = 9;
  EXPECT_THROW(fleet.on_response(requests.acquire(stranger, &fleet)),
               ContractViolation);
  stranger.client = 13;
  EXPECT_THROW(fleet.on_self_redirect(requests.acquire(stranger, &fleet)),
               ContractViolation);
  EXPECT_EQ(snapshot(), after);
}

// A fleet destroyed with its arrival loop, a send, a hop to a server and a
// retry pending leaves them all inert.
TEST(ClientFleet, DestructionIsSafeWithPendingEvents) {
  sim::Simulator sim;
  RequestSlab requests;
  Metrics metrics(1);
  RecordingRedirector redirector(&requests);
  Server server(&sim, &requests, &metrics, {"s", 0, 100.0});
  auto fleet = std::make_unique<ClientFleet>(
      &sim, &requests, &metrics, &redirector, client_config(100.0, 1000),
      std::vector<Rng>{Rng(1), Rng(2)});
  fleet->set_active(true);
  // Arrivals every 10 ms: the one at 1 s is still on its way.
  sim.run_until(seconds(1.0));
  ASSERT_GE(redirector.handles.size(), 2u);
  fleet->on_redirect_to_server(redirector.handles[0], &server);
  fleet->on_self_redirect(redirector.handles[1]);
  const std::size_t seen = redirector.requests.size();
  fleet.reset();
  EXPECT_FALSE(sim.idle());
  sim.run_until(seconds(5.0));
  EXPECT_EQ(redirector.requests.size(), seen);
  EXPECT_EQ(server.requests_submitted(), 0u);
  EXPECT_EQ(metrics.latency(0).count(), 0u);
}

/// Counts the callbacks a redirector makes to its request source.
class CountingSource final : public RequestSource {
 public:
  void on_redirect_to_server(RequestHandle, Server*) override { ++calls; }
  void on_self_redirect(RequestHandle) override { ++calls; }
  void on_response(RequestHandle) override { ++calls; }
  int calls = 0;
};

// --- L7Redirector ---------------------------------------------------------------

struct L7Fixture {
  sim::Simulator sim;
  RequestSlab requests;
  Metrics metrics{2};
  FixedRateScheduler scheduler;
  std::unique_ptr<coord::ControlPlane> plane;
  std::unique_ptr<coord::SimWindowDriver> driver;
  std::unique_ptr<Server> server0;
  std::unique_ptr<Server> server1;
  ServerPool pool;
  std::unique_ptr<L7Redirector> redirector;
  std::unique_ptr<ClientFleet> client;

  explicit L7Fixture(std::vector<double> rates,
                     L7Redirector::Mode mode = L7Redirector::Mode::kCreditBased)
      : scheduler(std::move(rates)) {
    plane = std::make_unique<coord::ControlPlane>(&scheduler,
                                                  coord::ControlPlaneConfig{});
    server0 = std::make_unique<Server>(
        &sim, &requests, &metrics, Server::Config{"s0", 0, 1000.0});
    server1 = std::make_unique<Server>(
        &sim, &requests, &metrics, Server::Config{"s1", 1, 1000.0});
    pool.add(server0.get());
    pool.add(server1.get());
    L7Redirector::Config rc;
    rc.name = "r";
    rc.mode = mode;
    redirector = std::make_unique<L7Redirector>(&sim, &requests, &pool,
                                                plane->add_member(), rc);
    ClientFleet::Config cc;
    cc.principal = 0;
    cc.rate = 100.0;
    cc.max_outstanding = 1000;
    cc.exponential_arrivals = false;
    client = std::make_unique<ClientFleet>(&sim, &requests, &metrics,
                                           redirector.get(), cc,
                                           std::vector<Rng>{Rng(6)});
    driver = std::make_unique<coord::SimWindowDriver>(&sim, plane.get());
    driver->start(100 * kMillisecond);
  }
};

TEST(L7Redirector, AdmitsWithinQuotaServesViaServer) {
  L7Fixture f({200.0, 0.0});  // plenty of quota for principal 0
  f.client->set_active(true);
  f.sim.run_until(seconds(5.0));
  // ~500 requests generated, all should be admitted and served — except the
  // handful arriving before the first scheduling window opens any quota.
  EXPECT_NEAR(static_cast<double>(f.metrics.served(0).total_events()), 490.0,
              20.0);
  EXPECT_LE(f.redirector->self_redirects(), 15u);
}

TEST(L7Redirector, OverQuotaRequestsSelfRedirect) {
  L7Fixture f({40.0, 0.0});  // quota 40/s against 100/s offered
  f.client->set_active(true);
  f.sim.run_until(seconds(10.0));
  const double served = f.metrics.served(0).average_rate(seconds(2),
                                                          seconds(10));
  EXPECT_NEAR(served, 40.0, 4.0);
  EXPECT_GT(f.redirector->self_redirects(), 100u);
  EXPECT_GT(f.metrics.rejected(0).total_events(), 100u);
}

TEST(L7Redirector, ExplicitQueueModeHoldsAndReleasesPerWindow) {
  L7Fixture f({40.0, 0.0}, L7Redirector::Mode::kExplicitQueue);
  f.client->set_active(true);
  f.sim.run_until(seconds(10.0));
  // Same long-run service rate, but no self-redirects: the queue is real.
  const double served = f.metrics.served(0).average_rate(seconds(2),
                                                          seconds(10));
  EXPECT_NEAR(served, 40.0, 4.0);
  EXPECT_EQ(f.redirector->self_redirects(), 0u);
}

TEST(L7Redirector, LocalDemandTracksArrivals) {
  L7Fixture f({200.0, 0.0});
  f.client->set_active(true);
  f.sim.run_until(seconds(5.0));
  const std::vector<double> demand = f.redirector->member()->local_demand();
  EXPECT_NEAR(demand[0], 100.0, 10.0);
  EXPECT_NEAR(demand[1], 0.0, 1e-9);
}

// Requests handed straight to a redirector get their 302 one hop later.
// When the redirector is destroyed first, those hops stay inert; the run
// without destruction shows they were pending.
TEST(L7Redirector, DestructionIsSafeWithPendingEvents) {
  for (const bool destroy : {false, true}) {
    sim::Simulator sim;
    RequestSlab requests;
    Metrics metrics(1);
    FixedRateScheduler scheduler({100.0});
    coord::ControlPlane plane(&scheduler, coord::ControlPlaneConfig{});
    Server server(&sim, &requests, &metrics, {"s", 0, 1000.0});
    ServerPool pool;
    pool.add(&server);
    CountingSource source;
    auto redirector = std::make_unique<L7Redirector>(
        &sim, &requests, &pool, plane.add_member(), L7Redirector::Config{});
    for (std::uint64_t i = 0; i < 4; ++i) {
      redirector->on_client_request(
          requests.acquire(make_request(0, i, 0), &source));
    }
    if (destroy) redirector.reset();
    EXPECT_FALSE(sim.idle());
    sim.run_all();
    EXPECT_EQ(source.calls, destroy ? 0 : 4);
  }
}

// --- L4Redirector ---------------------------------------------------------------

struct L4Fixture {
  sim::Simulator sim;
  RequestSlab requests;
  Metrics metrics{2};
  FixedRateScheduler scheduler;
  std::unique_ptr<coord::ControlPlane> plane;
  std::unique_ptr<coord::SimWindowDriver> driver;
  std::unique_ptr<Server> server0;
  std::unique_ptr<Server> server1;
  ServerPool pool;
  std::unique_ptr<L4Redirector> redirector;
  std::unique_ptr<ClientFleet> client;

  explicit L4Fixture(std::vector<double> rates, std::size_t max_queue = 1 << 16)
      : scheduler(std::move(rates)) {
    plane = std::make_unique<coord::ControlPlane>(&scheduler,
                                                  coord::ControlPlaneConfig{});
    server0 = std::make_unique<Server>(
        &sim, &requests, &metrics, Server::Config{"s0", 0, 1000.0});
    server1 = std::make_unique<Server>(
        &sim, &requests, &metrics, Server::Config{"s1", 0, 1000.0});
    pool.add(server0.get());
    pool.add(server1.get());
    L4Redirector::Config rc;
    rc.name = "r";
    rc.max_queue = max_queue;
    redirector = std::make_unique<L4Redirector>(&sim, &requests, &metrics,
                                                &pool, plane->add_member(), rc);
    ClientFleet::Config cc;
    cc.principal = 0;
    cc.rate = 100.0;
    cc.max_outstanding = 1000;
    cc.exponential_arrivals = false;
    client = std::make_unique<ClientFleet>(&sim, &requests, &metrics,
                                           redirector.get(), cc,
                                           std::vector<Rng>{Rng(7)});
    driver = std::make_unique<coord::SimWindowDriver>(&sim, plane.get());
    driver->start(100 * kMillisecond);
  }
};

TEST(L4Redirector, ForwardsAdmittedSynsEndToEnd) {
  L4Fixture f({200.0, 0.0});
  f.client->set_active(true);
  f.sim.run_until(seconds(5.0));
  EXPECT_NEAR(static_cast<double>(f.metrics.served(0).total_events()), 490.0,
              20.0);
  // Responses flowed back through the NAT path to the client.
  EXPECT_NEAR(static_cast<double>(f.metrics.latency(0).count()), 490.0, 20.0);
  EXPECT_EQ(f.redirector->queue_length(0), 0u);
}

TEST(L4Redirector, QueuesOverQuotaAndReinjectsNextWindows) {
  L4Fixture f({40.0, 0.0});
  f.client->set_active(true);
  f.sim.run_until(seconds(10.0));
  const double served =
      f.metrics.served(0).average_rate(seconds(2), seconds(10));
  EXPECT_NEAR(served, 40.0, 4.0);
  EXPECT_GT(f.redirector->queue_length(0), 50u);  // backlog is real
  EXPECT_EQ(f.redirector->drops(), 0u);
}

TEST(L4Redirector, BoundedQueueDropsWhenFull) {
  L4Fixture f({1.0, 0.0}, /*max_queue=*/10);
  f.client->set_active(true);
  f.sim.run_until(seconds(5.0));
  EXPECT_EQ(f.redirector->queue_length(0), 10u);
  EXPECT_GT(f.redirector->drops(), 0u);
  EXPECT_GT(f.metrics.rejected(0).total_events(), 0u);
}

TEST(L4Redirector, ConnectionsDrainAfterService) {
  L4Fixture f({200.0, 0.0});
  f.client->set_active(true);
  f.sim.run_until(seconds(2.0));
  f.client->set_active(false);
  f.sim.run_until(seconds(4.0));
  // All connections released once replies went back; each flow stays as
  // an affinity hint, and every request left the slab.
  EXPECT_EQ(f.redirector->connections().active_connections(), 0u);
  EXPECT_GT(f.redirector->connections().flows(), 0u);
  EXPECT_EQ(f.requests.in_flight(), 0u);
}

// Connections admitted at the first window queue at a slow server. The
// redirector is destroyed with forward hops, server completions and reply
// hops of its own pending; none of them reaches the source afterwards.
TEST(L4Redirector, DestructionIsSafeWithPendingEvents) {
  for (const bool destroy : {false, true}) {
    sim::Simulator sim;
    RequestSlab requests;
    Metrics metrics(1);
    FixedRateScheduler scheduler({1000.0});
    coord::ControlPlane plane(&scheduler, coord::ControlPlaneConfig{});
    Server server(&sim, &requests, &metrics, {"s", 0, 100.0});
    ServerPool pool;
    pool.add(&server);
    CountingSource source;
    auto redirector = std::make_unique<L4Redirector>(
        &sim, &requests, &metrics, &pool, plane.add_member(),
        L4Redirector::Config{});
    coord::SimWindowDriver driver(&sim, &plane);
    driver.start(100 * kMillisecond);
    // Parked until the 100 ms window grants quota and reinjects them.
    for (std::uint64_t i = 0; i < 20; ++i) {
      redirector->on_client_request(
          requests.acquire(make_request(0, i, 0, i), &source));
    }
    sim.run_until(seconds(0.13));
    driver.stop();
    const std::uint64_t admitted = redirector->admitted();
    ASSERT_GT(admitted, 3u);
    const int calls = source.calls;
    EXPECT_GT(calls, 0);
    EXPECT_GT(server.backlog_seconds(), 0.0);
    if (destroy) redirector.reset();
    sim.run_all();
    EXPECT_EQ(source.calls, destroy ? calls : static_cast<int>(admitted));
  }
}

// Each node checks its simulator before taking a liveness flag from it, so a
// null simulator is a contract violation, not a crash.
TEST(NodeConstructors, RejectANullSimulator) {
  RequestSlab requests;
  Metrics metrics(1);
  FixedRateScheduler scheduler({100.0});
  coord::ControlPlane plane(&scheduler, coord::ControlPlaneConfig{});
  ServerPool pool;
  RecordingRedirector redirector(&requests);
  EXPECT_THROW(Server(nullptr, &requests, &metrics, {"s", 0, 100.0}),
               ContractViolation);
  EXPECT_THROW(ClientFleet(nullptr, &requests, &metrics, &redirector,
                           client_config(100.0, 10), {Rng(1)}),
               ContractViolation);
  EXPECT_THROW(L7Redirector(nullptr, &requests, &pool, plane.add_member(),
                            L7Redirector::Config{}),
               ContractViolation);
  EXPECT_THROW(L4Redirector(nullptr, &requests, &metrics, &pool,
                            plane.add_member(), L4Redirector::Config{}),
               ContractViolation);
}

TEST(L4Redirector, CountsWindowsBegunOnFallbackPlans) {
  sim::Simulator sim;
  RequestSlab requests;
  Metrics metrics(2);
  FallbackScheduler scheduler({200.0, 0.0});
  coord::ControlPlane plane(&scheduler, coord::ControlPlaneConfig{});
  Server server(&sim, &requests, &metrics, {"s0", 0, 1000.0});
  ServerPool pool;
  pool.add(&server);
  L4Redirector redirector(&sim, &requests, &metrics, &pool,
                          plane.add_member(), L4Redirector::Config{});
  coord::SimWindowDriver driver(&sim, &plane);
  driver.start(100 * kMillisecond);
  sim.run_until(seconds(1.0));
  driver.stop();
  // Every window's plan was a fallback, and the member's window scheduler
  // counts each of the ten windows (0.1 s to 1 s) once.
  EXPECT_EQ(redirector.window_scheduler().plan_fallbacks(), 10u);
}

// Machine 0 belongs to another owner; principal 0 owns machines 1 (a) and
// 2 (b). The first connection goes to b, which pick() prefers while a is
// busy. The second comes from the same client machine with an id 4096
// higher, so from the same source port, while b is the busy one. Its hint
// names b by pool index, so it goes back to b where pick() would choose a.
TEST(L4Redirector, AffinityHintNamesTheLastServerByPoolIndex) {
  sim::Simulator sim;
  RequestSlab requests;
  Metrics metrics(2);
  FixedRateScheduler scheduler({1000.0, 1000.0});
  coord::ControlPlane plane(&scheduler, coord::ControlPlaneConfig{});
  Server other(&sim, &requests, &metrics, {"other", 1, 1000.0});
  Server a(&sim, &requests, &metrics, {"a", 0, 1000.0});
  Server b(&sim, &requests, &metrics, {"b", 0, 1000.0});
  ServerPool pool;
  pool.add(&other);
  pool.add(&a);
  pool.add(&b);
  L4Redirector redirector(&sim, &requests, &metrics, &pool,
                          plane.add_member(), L4Redirector::Config{});
  coord::SimWindowDriver driver(&sim, &plane);
  driver.start(100 * kMillisecond);
  CountingSource source;
  sim.run_until(seconds(0.15));  // the first window granted quota
  // One filler request makes @p busy the more backlogged machine.
  const auto connect = [&](Server& busy, std::uint64_t id) {
    busy.submit(requests.acquire(make_request(0, 0, sim.now()), nullptr),
                nullptr);
    redirector.on_client_request(
        requests.acquire(make_request(0, id, sim.now(), 3), &source));
    sim.run_until(sim.now() + 50 * kMillisecond);
  };
  connect(a, 5);
  EXPECT_EQ(b.requests_submitted(), 1u);
  // A first dial from its port: the flow is opened without the index.
  EXPECT_TRUE(redirector.connections().state().index.empty());
  connect(b, 5 + L4Redirector::kClientPorts);
  driver.stop();
  EXPECT_EQ(source.calls, 2);
  EXPECT_EQ(redirector.connections().flows(), 1u);
  EXPECT_EQ(a.requests_submitted(), 1u);
  EXPECT_EQ(b.requests_submitted(), 3u);
}

// --- Open loop -------------------------------------------------------------------

/// One machine of principal 0 issuing at @p rate req/s, behind an L4
/// redirector whose scheduler grants @p admitted req/s. The machine's
/// outstanding bound is out of reach, so it is open loop. Offered load is
/// binned every 100 ms.
struct OpenLoopL4 {
  sim::Simulator sim;
  RequestSlab requests;
  Metrics metrics{1, 100 * kMillisecond};
  FixedRateScheduler scheduler;
  coord::ControlPlane plane{&scheduler, coord::ControlPlaneConfig{}};
  Server server{&sim, &requests, &metrics, Server::Config{"s", 0, 1000.0}};
  ServerPool pool;
  std::unique_ptr<L4Redirector> redirector;
  coord::SimWindowDriver driver{&sim, &plane};
  workload::ReplySizeDistribution sizes;
  std::unique_ptr<ClientFleet> fleet;

  OpenLoopL4(double admitted, double rate) : scheduler({admitted}) {
    pool.add(&server);
    redirector = std::make_unique<L4Redirector>(
        &sim, &requests, &metrics, &pool, plane.add_member(),
        L4Redirector::Config{});
    driver.start(100 * kMillisecond);
    ClientFleet::Config config;
    config.principal = 0;
    config.rate = rate;
    config.max_outstanding = std::numeric_limits<std::size_t>::max();
    fleet = std::make_unique<ClientFleet>(&sim, &requests, &metrics,
                                          redirector.get(), config,
                                          std::vector<Rng>{Rng(11)}, &sizes);
    fleet->set_active(true);
  }
};

// Offered load stays at the machine's rate however little is admitted; the
// rest waits in the kernel queue, which keeps growing.
TEST(ClientFleet, RunsOpenLoopThroughL4) {
  OpenLoopL4 f(/*admitted=*/40.0, /*rate=*/200.0);
  f.sim.run_until(seconds(10));
  EXPECT_NEAR(f.metrics.offered(0).average_rate(0, seconds(10)), 200.0, 10.0);
  EXPECT_NEAR(f.metrics.served(0).average_rate(seconds(2), seconds(10)), 40.0,
              5.0);
  const std::size_t queued = f.redirector->queue_length(0);
  EXPECT_GT(queued, 1000u);
  f.sim.run_until(seconds(11));
  EXPECT_GT(f.redirector->queue_length(0), queued + 100);
}

// The property the open-loop ablation rests on: schedulers admitting 10 and
// 1000 req/s see the same offered load, bin for bin.
TEST(ClientFleet, IdenticalInputForDifferentSchedulersOnL4) {
  auto offered = [](double admitted) {
    OpenLoopL4 f(admitted, /*rate=*/100.0);
    f.sim.run_until(seconds(5));
    std::vector<std::uint64_t> bins;
    const RateSeries& series = f.metrics.offered(0);
    for (std::size_t b = 0; b < series.bin_count(); ++b)
      bins.push_back(series.events_in_bin(b));
    return bins;
  };
  const std::vector<std::uint64_t> slow = offered(10.0);
  EXPECT_GE(slow.size(), 50u);
  EXPECT_EQ(slow, offered(1000.0));
}

}  // namespace
}  // namespace sharegrid::nodes
