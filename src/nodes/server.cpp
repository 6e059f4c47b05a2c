#include "nodes/server.hpp"

#include <algorithm>
#include <utility>

#include "util/assert.hpp"

namespace sharegrid::nodes {

ServiceSink::ServiceSink(sim::Simulator* sim) {
  SHAREGRID_EXPECTS(sim != nullptr);
  alive_ = sim->new_liveness_flag();
}

Server::Server(sim::Simulator* sim, RequestSlab* requests, Metrics* metrics,
               Config config)
    : sim_(sim),
      requests_(requests),
      metrics_(metrics),
      config_(std::move(config)) {
  SHAREGRID_EXPECTS(sim != nullptr);
  SHAREGRID_EXPECTS(requests != nullptr);
  SHAREGRID_EXPECTS(metrics != nullptr);
  SHAREGRID_EXPECTS(config_.capacity > 0.0);
  SHAREGRID_EXPECTS(config_.owner != core::kNoPrincipal);
  alive_ = sim_->new_liveness_flag();
}

void Server::submit(RequestHandle request, ServiceSink* sink) {
  const SimTime start = std::max(sim_->now(), next_free_);
  // 1.0 / C * kSecond, not kSecond / C: the two round differently.
  const auto service = static_cast<SimDuration>(
      1.0 / config_.capacity * static_cast<double>(kSecond));
  next_free_ = start + std::max<SimDuration>(1, service);
  ++requests_submitted_;

  bool* alive = sink != nullptr ? sink->alive_ : alive_;
  sim_->schedule_at(next_free_, [this, alive, request, sink] {
    if (!*alive) return;
    const Request& served = (*requests_)[request];
    metrics_->on_served(served.principal, sim_->now());
    metrics_->on_reply_bytes(served.principal, sim_->now(),
                             served.reply_bytes);
    if (sink != nullptr) sink->on_served(request);
  });
}

double Server::backlog_seconds() const {
  return std::max<double>(0.0, to_seconds(next_free_ - sim_->now()));
}

void Server::set_capacity(double capacity) {
  SHAREGRID_EXPECTS(capacity > 0.0);
  config_.capacity = capacity;
}

void ServerPool::add(Server* server) {
  SHAREGRID_EXPECTS(server != nullptr);
  const core::PrincipalId owner = server->config().owner;
  if (owner >= by_owner_.size()) by_owner_.resize(owner + 1);
  by_owner_[owner].push_back(machines_.size());
  machines_.push_back(server);
}

std::optional<std::size_t> ServerPool::pick(core::PrincipalId owner) const {
  if (owner >= by_owner_.size() || by_owner_[owner].empty())
    return std::nullopt;
  // Comparing start times orders the machines as their backlogs in
  // seconds would: distinct microsecond gaps stay distinct when divided by
  // 10^6. Idle machines tie, and the first registered wins.
  std::size_t best = by_owner_[owner].front();
  SimTime best_start = machines_[best]->next_free();
  for (const std::size_t s : by_owner_[owner]) {
    const SimTime start = machines_[s]->next_free();
    if (start < best_start) {
      best = s;
      best_start = start;
    }
  }
  return best;
}

Server& ServerPool::at(std::size_t index) const {
  SHAREGRID_EXPECTS(index < machines_.size());
  return *machines_[index];
}

}  // namespace sharegrid::nodes
