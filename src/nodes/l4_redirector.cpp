#include "nodes/l4_redirector.hpp"

#include <algorithm>
#include <optional>
#include <utility>

#include "audit/invariant_auditor.hpp"
#include "util/assert.hpp"
#include "util/metrics_registry.hpp"

namespace sharegrid::nodes {

namespace {
// Redirector packet-path counters (util/metrics_registry.hpp). Admitted and
// dropped totals are flushed as per-window deltas, keeping the per-packet
// path free of shared atomics that sharded lanes would contend on.
util::MetricCounter& admitted_counter() {
  static util::MetricCounter& counter = util::global_metrics().counter(
      "l4.admitted", "connections admitted and redirected to a server");
  return counter;
}
util::MetricCounter& dropped_counter() {
  static util::MetricCounter& counter = util::global_metrics().counter(
      "l4.dropped", "SYNs dropped with the kernel queue full");
  return counter;
}
}  // namespace

L4Redirector::L4Redirector(sim::Simulator* sim, RequestSlab* requests,
                           Metrics* metrics, ServerPool* servers,
                           coord::ControlPlane::Member* member, Config config)
    : ServiceSink(sim),
      sim_(sim),
      requests_(requests),
      metrics_(metrics),
      servers_(servers),
      member_(member),
      config_(std::move(config)) {
  SHAREGRID_EXPECTS(sim != nullptr);
  SHAREGRID_EXPECTS(requests != nullptr);
  SHAREGRID_EXPECTS(metrics != nullptr);
  SHAREGRID_EXPECTS(servers != nullptr);
  SHAREGRID_EXPECTS(member != nullptr);
  const std::size_t n = member_->size();
  queues_.resize(n);
  in_flight_.assign(n, 0.0);

  coord::ControlPlane::MemberHooks hooks;
  // The user-space daemon reports the smoothed arrival rate plus the queued
  // backlog amortized over a one-second drain horizon. Charging the whole
  // backlog to a single window would let a handful of queued SYNs inflate a
  // principal's apparent demand by hundreds of req/s, systematically
  // over-claiming capacity from its peers.
  hooks.extra_demand = [this](std::vector<double>& demand) {
    constexpr double kDrainHorizonSec = 1.0;
    // In-flight up to 50 ms worth of the arrival rate is normal pipelining
    // (network hops + service time) and must not read as backlog.
    constexpr double kInFlightAllowanceSec = 0.05;
    for (std::size_t i = 0; i < demand.size(); ++i) {
      // Arrival rate + kernel-queue backlog + *excess* admitted-but-unreplied
      // work. The last term keeps latent demand visible when a transient
      // parked requests in a server's FIFO: those connections hold client
      // slots, so without it the closed loop settles wherever the transient
      // left it, below the agreement levels.
      const double rate = demand[i];
      const double excess_in_flight =
          std::max(0.0, in_flight_[i] - rate * kInFlightAllowanceSec);
      demand[i] = rate + (static_cast<double>(queues_[i].size()) +
                          excess_in_flight) /
                             kDrainHorizonSec;
    }
  };
  hooks.on_window_begun = [this](SimTime now) { on_window_begun(now); };
  member_->bind(std::move(hooks));
}

l4::Endpoint L4Redirector::client_of(const Request& request) {
  return {0x0C000000u + static_cast<std::uint32_t>(request.client),
          static_cast<std::uint16_t>(
              1024 + static_cast<std::uint32_t>(request.id) % kClientPorts)};
}

void L4Redirector::on_client_request(RequestHandle handle) {
  Request& request = (*requests_)[handle];
  const core::PrincipalId p = request.principal;
  SHAREGRID_EXPECTS(p < queues_.size());
  // The kernel module sees a new connection, not the client's request:
  // latency counts from the SYN's arrival and the reply size is unknown.
  request.created = sim_->now();
  request.reply_bytes = Request{}.reply_bytes;

  member_->record_arrival(p, 1.0);

  if (try_forward(handle)) return;

  // Out of quota: park the SYN in the principal's kernel-level queue; the
  // window task reinjects it in later windows as agreements allow.
  if (queues_[p].size() >= config_.max_queue) {
    ++drops_;
    metrics_->on_rejected(p, sim_->now());
    requests_->release(handle);  // the connection is lost, as a dropped SYN
    return;
  }
  queues_[p].push_back(handle);
}

bool L4Redirector::try_forward(RequestHandle handle) {
  Request& request = (*requests_)[handle];
  const auto owner = member_->try_admit(request.principal);
  if (!owner) return false;

  // Prefer the machine that last served this client endpoint — but only
  // when the admission decision lands on its owner ("to the extent allowed
  // by the sharing agreements", §4.2).
  const auto pick = [&](std::optional<std::size_t> hint) {
    if (!hint || servers_->at(*hint).config().owner != *owner) {
      hint = servers_->pick(*owner);
      SHAREGRID_ASSERT(hint.has_value());
    }
    return *hint;
  };
  // A machine's connections are admitted in the order it made them (a
  // principal's kernel queue holds SYNs only while its quota is spent), so
  // one of its first kClientPorts dials a port no earlier connection used:
  // its flow is new and has no hint.
  std::size_t server = 0;
  if (static_cast<std::uint32_t>(request.id) < kClientPorts) {
    server = pick(std::nullopt);
    request.flow = table_.open_new(client_of(request), request.principal,
                                   server);
  } else {
    request.flow = table_.open(client_of(request), request.principal,
                               [&](std::optional<std::size_t> hint) {
                                 server = pick(hint);
                                 return server;
                               });
  }
  forward_to(handle, server);
  return true;
}

void L4Redirector::forward_to(RequestHandle handle, std::size_t server) {
  ++admitted_;
  in_flight_[(*requests_)[handle].principal] += 1.0;

  Server* machine = &servers_->at(server);
  sim_->schedule_after(kHopDelay,
                       [this, alive = alive_, handle, machine] {
                         if (!*alive) return;
                         machine->submit(handle, this);
                       });
}

void L4Redirector::on_served(RequestHandle handle) {
  const Request& done = (*requests_)[handle];
  // Reply path: server -> redirector, which closes the flow -> client.
  in_flight_[done.principal] -= 1.0;
  table_.close(done.flow);
  sim_->schedule_after(2 * kHopDelay,
                       [this, alive = alive_, handle] {
                         if (!*alive) return;
                         requests_->source(handle)->on_response(handle);
                       });
}

void L4Redirector::flush_metrics() {
  admitted_counter().add(admitted_ - flushed_admitted_);
  dropped_counter().add(drops_ - flushed_drops_);
  flushed_admitted_ = admitted_;
  flushed_drops_ = drops_;
}

void L4Redirector::on_window_begun(SimTime now) {
  flush_metrics();
  SHAREGRID_AUDIT_HOOK(audit::audit_connection_table(
      table_.state(), queues_.size(), servers_->size()));
  if (config_.trace != nullptr)
    config_.trace->record_window(now, config_.name, *member_);

  // Reinject queued SYNs in FIFO order while quota lasts.
  for (std::size_t i = 0; i < queues_.size(); ++i) {
    while (!queues_[i].empty()) {
      if (!try_forward(queues_[i].front())) break;
      queues_[i].pop_front();
    }
  }
}

std::size_t L4Redirector::queue_length(core::PrincipalId p) const {
  SHAREGRID_EXPECTS(p < queues_.size());
  return queues_[p].size();
}

}  // namespace sharegrid::nodes
