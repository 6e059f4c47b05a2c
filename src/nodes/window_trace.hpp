// Per-window decision tracing: what each redirector saw and decided.
//
// When enabled, every scheduling window appends one row per redirector with
// the local/global demand estimates and the planned admission rates — the
// raw material for debugging enforcement anomalies ("why did B only get 32
// req/s at t=4?") and for plotting plans against measured service. Rows are
// capped so week-long simulations cannot exhaust memory.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "coord/control_plane.hpp"
#include "util/time.hpp"

namespace sharegrid::nodes {

/// Append-only log of window scheduling decisions.
class WindowTrace {
 public:
  struct Row {
    SimTime window_start = 0;
    std::string redirector;
    std::vector<double> local_demand;   ///< req/s per principal
    std::vector<double> global_demand;  ///< snapshot used (empty: none yet)
    std::vector<double> planned_rate;   ///< admitted req/s per principal
    double theta = 0.0;                 ///< community metric (1 if n/a)
  };

  /// @param max_rows  hard cap; once reached, further rows are dropped and
  ///                  counted (see dropped()).
  explicit WindowTrace(std::size_t max_rows = 1 << 20)
      : max_rows_(max_rows) {}

  void record(Row row) {
    if (rows_.size() >= max_rows_) {
      ++dropped_;
      return;
    }
    rows_.push_back(std::move(row));
  }

  /// Records the window @p member began at @p now: its local demand, the
  /// global snapshot it planned against (if any), theta and the planned
  /// admitted rate of each principal.
  void record_window(SimTime now, const std::string& redirector,
                     const coord::ControlPlane::Member& member);

  /// Appends @p other's rows (this trace's cap applies) and adds its
  /// dropped count.
  void merge_from(const WindowTrace& other) {
    for (const Row& row : other.rows_) record(row);
    dropped_ += other.dropped_;
  }

  const std::vector<Row>& rows() const { return rows_; }
  std::uint64_t dropped() const { return dropped_; }

 private:
  std::size_t max_rows_;
  std::vector<Row> rows_;
  std::uint64_t dropped_ = 0;
};

}  // namespace sharegrid::nodes
