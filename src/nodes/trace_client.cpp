#include "nodes/trace_client.hpp"

#include <algorithm>

#include "util/assert.hpp"

namespace sharegrid::nodes {

TraceClient::TraceClient(sim::Simulator* sim, RequestSlab* requests,
                         Metrics* metrics, RedirectorBase* redirector,
                         const workload::RequestTrace* trace, Config config,
                         Rng rng)
    : sim_(sim),
      requests_(requests),
      metrics_(metrics),
      redirector_(redirector),
      trace_(trace),
      config_(config),
      rng_(rng) {
  SHAREGRID_EXPECTS(sim != nullptr);
  SHAREGRID_EXPECTS(requests != nullptr);
  SHAREGRID_EXPECTS(metrics != nullptr);
  SHAREGRID_EXPECTS(redirector != nullptr);
  SHAREGRID_EXPECTS(trace != nullptr);
  alive_ = sim_->new_liveness_flag();
}

void TraceClient::start() {
  const std::vector<workload::TraceEntry>& entries = trace_->entries();
  for (std::size_t i = 0; i < entries.size(); ++i) {
    sim_->schedule_at(entries[i].time, [this, alive = alive_, i] {
      if (!*alive) return;
      issue(i);
    });
  }
}

void TraceClient::issue(std::size_t entry) {
  const workload::TraceEntry& arrival = trace_->entries()[entry];
  Request req;
  req.id = (static_cast<std::uint64_t>(config_.index) << 32) | issued_;
  ++issued_;
  req.principal = arrival.principal;
  req.reply_bytes = arrival.reply_bytes;
  req.created = sim_->now();
  req.client = config_.index;
  metrics_->on_offered(req.principal, sim_->now());
  send(requests_->acquire(req, this));
}

void TraceClient::send(RequestHandle request) {
  sim_->schedule_after(config_.net_delay, [this, alive = alive_, request] {
    if (!*alive) return;
    redirector_->on_client_request(request);
  });
}

void TraceClient::on_redirect_to_server(RequestHandle request,
                                        Server* server) {
  SHAREGRID_EXPECTS(server != nullptr);
  sim_->schedule_after(config_.net_delay, [this, alive = alive_, request,
                                           server] {
    if (!*alive) return;
    server->submit(request, [this, alive, request] {
      if (!*alive) return;
      sim_->schedule_after(config_.net_delay, [this, alive, request] {
        if (!*alive) return;
        on_response(request);
      });
    });
  });
}

void TraceClient::on_self_redirect(RequestHandle request) {
  metrics_->on_rejected((*requests_)[request].principal, sim_->now());
  const double delay_sec = config_.retry_delay_sec * rng_.uniform(0.6, 1.4);
  sim_->schedule_after(std::max<SimDuration>(1, seconds(delay_sec)),
                       [this, alive = alive_, request] {
                         if (!*alive) return;
                         send(request);
                       });
}

void TraceClient::on_response(RequestHandle handle) {
  const Request& request = (*requests_)[handle];
  ++completed_;
  metrics_->on_latency(request.principal,
                       to_seconds(sim_->now() - request.created));
  requests_->release(handle);
}

}  // namespace sharegrid::nodes
