#include "nodes/client.hpp"

#include <algorithm>

#include "util/assert.hpp"

namespace sharegrid::nodes {
namespace {

/// Mean pause before a self-redirected request is retried (L7).
constexpr double kRetryDelaySec = 0.2;

}  // namespace

// Per-machine memory is what scales to a million clients: the 32-byte Rng,
// two 32-bit counters and the armed flag.
static_assert(sizeof(ClientFleet::Machine) <= 48,
              "a client machine's closed-loop state must fit in 48 bytes");

ClientFleet::ClientFleet(sim::Simulator* sim, RequestSlab* requests,
                         Metrics* metrics, RedirectorBase* redirector,
                         Config config, const std::vector<Rng>& streams,
                         const workload::ReplySizeDistribution* sizes)
    : ServiceSink(sim),
      sim_(sim),
      requests_(requests),
      metrics_(metrics),
      redirector_(redirector),
      config_(config),
      sizes_(sizes),
      skip_sizes_(redirector != nullptr &&
                  redirector->discards_reply_sizes()) {
  SHAREGRID_EXPECTS(sim != nullptr);
  SHAREGRID_EXPECTS(requests != nullptr);
  SHAREGRID_EXPECTS(metrics != nullptr);
  SHAREGRID_EXPECTS(redirector != nullptr);
  SHAREGRID_EXPECTS(config_.rate > 0.0);
  SHAREGRID_EXPECTS(config_.principal != core::kNoPrincipal);
  SHAREGRID_EXPECTS(config_.max_outstanding >= 1);
  SHAREGRID_EXPECTS(!streams.empty());
  machines_.reserve(streams.size());
  for (const Rng& stream : streams) machines_.push_back({stream});
}

const ClientFleet::Machine& ClientFleet::machine(std::size_t m) const {
  SHAREGRID_EXPECTS(m < machines_.size());
  return machines_[m];
}

ClientFleet::Machine& ClientFleet::machine_of(const Request& request) {
  // A client below first_index wraps around and fails the bound too.
  const std::size_t m = request.client - config_.first_index;
  SHAREGRID_EXPECTS(m < machines_.size());
  return machines_[m];
}

void ClientFleet::set_active(bool active) {
  active_ = active;
  if (!active_) return;
  // Machines re-arm in index order: the same scheduling order the per-
  // machine toggles of one timestamp produced, so runs stay bit-identical.
  for (std::size_t m = 0; m < machines_.size(); ++m) {
    if (machines_[m].loop_armed) continue;
    machines_[m].loop_armed = true;
    schedule_next_arrival(m);
  }
}

void ClientFleet::schedule_next_arrival(std::size_t m) {
  const double mean_gap = 1.0 / config_.rate;
  const double gap_sec = config_.exponential_arrivals
                             ? machines_[m].rng.exponential(mean_gap)
                             : mean_gap;
  const auto gap = std::max<SimDuration>(1, seconds(gap_sec));
  sim_->schedule_after(gap, [this, alive = alive_, m] {
    if (!*alive) return;
    if (!active_) {
      // Generation stops; reactivation re-arms.
      machines_[m].loop_armed = false;
      return;
    }
    if (machines_[m].outstanding < config_.max_outstanding) emit(m);
    schedule_next_arrival(m);
  });
}

void ClientFleet::emit(std::size_t m) {
  Machine& machine = machines_[m];
  const std::size_t index = config_.first_index + m;
  Request req;
  req.id = (static_cast<std::uint64_t>(index) << 32) |
           machine.next_request_id++;
  req.principal = config_.principal;
  req.created = sim_->now();
  req.client = index;
  if (sizes_ != nullptr) {
    if (skip_sizes_)
      sizes_->skip(machine.rng);
    else
      req.reply_bytes = sizes_->sample(machine.rng).reply_bytes;
  }
  ++machine.outstanding;
  metrics_->on_offered(req.principal, sim_->now());
  send_to_redirector(requests_->acquire(req, this));
}

void ClientFleet::send_to_redirector(RequestHandle request) {
  sim_->schedule_after(kHopDelay, [this, alive = alive_, request] {
    if (!*alive) return;
    redirector_->on_client_request(request);
  });
}

void ClientFleet::on_redirect_to_server(RequestHandle request,
                                        Server* server) {
  SHAREGRID_EXPECTS(server != nullptr);
  // One hop to reach the assigned server, then service, then the reply hop.
  sim_->schedule_after(kHopDelay, [this, alive = alive_, request, server] {
    if (!*alive) return;
    server->submit(request, this);
  });
}

void ClientFleet::on_served(RequestHandle request) {
  sim_->schedule_after(kHopDelay, [this, alive = alive_, request] {
    if (!*alive) return;
    on_response(request);
  });
}

void ClientFleet::on_self_redirect(RequestHandle handle) {
  const Request& request = (*requests_)[handle];
  Machine& machine = machine_of(request);
  metrics_->on_rejected(request.principal, sim_->now());
  // The WebBench-side proxy retries the same URL after a short pause; the
  // outstanding slot stays occupied, which is what throttles generation.
  // Jitter spreads retries across scheduling windows — without it, every
  // request rejected in one window comes back in the same later window,
  // alternately overflowing and starving the quota.
  const double delay_sec = kRetryDelaySec * machine.rng.uniform(0.6, 1.4);
  sim_->schedule_after(seconds(delay_sec),
                       [this, alive = alive_, handle] {
                         if (!*alive) return;
                         send_to_redirector(handle);
                       });
}

void ClientFleet::on_response(RequestHandle handle) {
  const Request& request = (*requests_)[handle];
  Machine& machine = machine_of(request);
  SHAREGRID_ASSERT(machine.outstanding > 0);
  --machine.outstanding;
  metrics_->on_latency(request.principal,
                       to_seconds(sim_->now() - request.created));
  requests_->release(handle);
}

}  // namespace sharegrid::nodes
