#include "nodes/window_trace.hpp"

#include <utility>

namespace sharegrid::nodes {

void WindowTrace::record_window(SimTime now, const std::string& redirector,
                                const coord::ControlPlane::Member& member) {
  const sched::Plan& plan = member.window_scheduler().last_plan();
  Row row;
  row.window_start = now;
  row.redirector = redirector;
  row.local_demand = member.last_local_demand();
  if (member.global().valid) row.global_demand = member.global().demand;
  row.theta = plan.theta;
  for (std::size_t i = 0; i < member.size(); ++i)
    row.planned_rate.push_back(plan.admitted(i));
  record(std::move(row));
}

}  // namespace sharegrid::nodes
