// Phase schedules: which client machines are active when (§5).
//
// Every experiment in the paper runs in phases — client machines switch on
// and off at known times and the figures show how admission adapts. An
// ActivityPlan holds per-client active intervals.
#pragma once

#include <cstddef>
#include <vector>

#include "util/time.hpp"

namespace sharegrid::workload {

/// Half-open activity interval [start, end) for one client machine.
struct ActiveInterval {
  SimTime start = 0;
  SimTime end = 0;
};

/// Per-client on/off schedule.
class ActivityPlan {
 public:
  explicit ActivityPlan(std::size_t client_count);

  /// Marks client @p client active during [start, end). Intervals for one
  /// client must be added in order and must not overlap.
  void add_interval(std::size_t client, SimTime start, SimTime end);

  /// Convenience: active for the whole experiment [0, horizon).
  void always_active(std::size_t client, SimTime horizon);

  std::size_t client_count() const { return intervals_.size(); }
  const std::vector<ActiveInterval>& intervals(std::size_t client) const;

 private:
  std::vector<std::vector<ActiveInterval>> intervals_;
};

}  // namespace sharegrid::workload
