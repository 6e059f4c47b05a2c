#include "nodes/l7_redirector.hpp"

#include <utility>

#include "util/assert.hpp"

namespace sharegrid::nodes {

L7Redirector::L7Redirector(sim::Simulator* sim, RequestSlab* requests,
                           ServerPool* servers,
                           coord::ControlPlane::Member* member, Config config)
    : sim_(sim),
      requests_(requests),
      servers_(servers),
      member_(member),
      config_(std::move(config)) {
  SHAREGRID_EXPECTS(sim != nullptr);
  SHAREGRID_EXPECTS(requests != nullptr);
  SHAREGRID_EXPECTS(servers != nullptr);
  SHAREGRID_EXPECTS(member != nullptr);
  alive_ = sim_->new_liveness_flag();
  held_.resize(member_->size());

  coord::ControlPlane::MemberHooks hooks;
  if (config_.mode == Mode::kExplicitQueue) {
    // The real backlog expressed as a rate over one window (§4.1).
    hooks.extra_demand = [this](std::vector<double>& demand) {
      const double window_sec = to_seconds(member_->window());
      for (std::size_t i = 0; i < demand.size(); ++i)
        demand[i] += static_cast<double>(held_[i].size()) / window_sec;
    };
  }
  hooks.on_window_begun = [this](SimTime now) { on_window_begun(now); };
  member_->bind(std::move(hooks));
}

void L7Redirector::on_window_begun(SimTime now) {
  if (config_.trace != nullptr)
    config_.trace->record_window(now, config_.name, *member_);

  if (config_.mode == Mode::kExplicitQueue) {
    // Release queued requests in a batch — intentionally bunchy (§4.1's
    // first design, reproduced for the ablation bench).
    for (std::size_t i = 0; i < held_.size(); ++i) {
      while (!held_[i].empty()) {
        const RequestHandle request = held_[i].front();
        const auto owner = member_->try_admit(i);
        if (!owner) break;
        held_[i].pop_front();
        admit_and_redirect(request, *owner);
      }
    }
  }
}

void L7Redirector::on_client_request(RequestHandle handle) {
  const core::PrincipalId p = (*requests_)[handle].principal;
  SHAREGRID_EXPECTS(p < held_.size());
  member_->record_arrival(p, 1.0);

  if (config_.mode == Mode::kExplicitQueue) {
    held_[p].push_back(handle);
    return;
  }

  if (const auto owner = member_->try_admit(p)) {
    admit_and_redirect(handle, *owner);
    return;
  }
  // Out of quota: 302 back to ourselves; the client retries (implicit
  // queuing — the queue lives at the clients, not here).
  ++self_redirects_;
  sim_->schedule_after(kHopDelay, [this, alive = alive_, handle] {
    if (!*alive) return;
    requests_->source(handle)->on_self_redirect(handle);
  });
}

void L7Redirector::admit_and_redirect(RequestHandle request,
                                      core::PrincipalId owner) {
  const auto index = servers_->pick(owner);
  SHAREGRID_ASSERT(index.has_value());
  Server* server = &servers_->at(*index);
  ++admitted_;
  sim_->schedule_after(kHopDelay,
                       [this, alive = alive_, request, server] {
                         if (!*alive) return;
                         requests_->source(request)->on_redirect_to_server(
                             request, server);
                       });
}

}  // namespace sharegrid::nodes
