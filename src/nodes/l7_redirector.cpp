#include "nodes/l7_redirector.hpp"

#include <utility>

#include "util/assert.hpp"

namespace sharegrid::nodes {

L7Redirector::L7Redirector(sim::Simulator* sim, RequestSlab* requests,
                           Metrics* metrics, ServerPool* servers,
                           coord::ControlPlane::Member* member, Config config)
    : sim_(sim),
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
  const sched::WindowScheduler& window = member_->window_scheduler();
  if (window.last_plan().lp_fallback) metrics_->on_plan_fallback();
  if (config_.trace != nullptr) {
    WindowTrace::Row row;
    row.window_start = now;
    row.redirector = config_.name;
    row.local_demand = member_->last_local_demand();
    if (member_->global().valid) row.global_demand = member_->global().demand;
    row.theta = window.last_plan().theta;
    for (std::size_t i = 0; i < held_.size(); ++i)
      row.planned_rate.push_back(window.last_plan().admitted(i));
    config_.trace->record(std::move(row));
  }

  if (config_.mode == Mode::kExplicitQueue) {
    // Release queued requests in a batch — intentionally bunchy (§4.1's
    // first design, reproduced for the ablation bench).
    for (std::size_t i = 0; i < held_.size(); ++i) {
      while (!held_[i].empty()) {
        const RequestHandle request = held_[i].front();
        const double weight =
            config_.weighted_admission ? (*requests_)[request].weight : 1.0;
        const auto owner = member_->try_admit(i, weight);
        if (!owner) break;
        held_[i].pop_front();
        admit_and_redirect(request, *owner);
      }
    }
  }
}

void L7Redirector::on_client_request(RequestHandle handle) {
  const Request& request = (*requests_)[handle];
  const core::PrincipalId p = request.principal;
  SHAREGRID_EXPECTS(p < held_.size());
  const double weight = config_.weighted_admission ? request.weight : 1.0;
  member_->record_arrival(p, weight);

  if (config_.mode == Mode::kExplicitQueue) {
    held_[p].push_back(handle);
    return;
  }

  if (const auto owner = member_->try_admit(p, weight)) {
    admit_and_redirect(handle, *owner);
    return;
  }
  // Out of quota: 302 back to ourselves; the client retries (implicit
  // queuing — the queue lives at the clients, not here).
  ++self_redirects_;
  sim_->schedule_after(config_.net_delay, [this, alive = alive_, handle] {
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
  sim_->schedule_after(config_.net_delay,
                       [this, alive = alive_, request, server] {
                         if (!*alive) return;
                         requests_->source(request)->on_redirect_to_server(
                             request, server);
                       });
}

std::vector<double> L7Redirector::local_demand() const {
  return member_->local_demand();
}

}  // namespace sharegrid::nodes
