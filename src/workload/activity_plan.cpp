#include "workload/activity_plan.hpp"

#include "util/assert.hpp"

namespace sharegrid::workload {

ActivityPlan::ActivityPlan(std::size_t client_count)
    : intervals_(client_count) {
  SHAREGRID_EXPECTS(client_count > 0);
}

void ActivityPlan::add_interval(std::size_t client, SimTime start,
                                SimTime end) {
  SHAREGRID_EXPECTS(client < intervals_.size());
  SHAREGRID_EXPECTS(start >= 0 && end > start);
  auto& list = intervals_[client];
  SHAREGRID_EXPECTS(list.empty() || list.back().end <= start);
  list.push_back({start, end});
}

void ActivityPlan::always_active(std::size_t client, SimTime horizon) {
  add_interval(client, 0, horizon);
}

const std::vector<ActiveInterval>& ActivityPlan::intervals(
    std::size_t client) const {
  SHAREGRID_EXPECTS(client < intervals_.size());
  return intervals_[client];
}

}  // namespace sharegrid::workload
