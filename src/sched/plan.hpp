// Scheduling plans: the output of the per-window optimization (§3.1.2).
//
// A plan says, in requests/second, how much of each principal's queue should
// be forwarded to each server over the next time window. Redirectors apply
// plans proportionally to their local queues (§3.2): the fraction
// x_ik / n_i is the same at every redirector because all of them solve the
// same LP on the same global queue lengths.
#pragma once

#include <vector>

#include "core/principal.hpp"
#include "util/matrix.hpp"

namespace sharegrid::sched {

/// Per-window allocation: rate(i, k) = requests/sec from principal i's queue
/// scheduled onto principal k's server.
struct Plan {
  Matrix rate;  ///< (principal, server) requests/sec.
  /// Queue lengths (requests/sec of demand) the plan was computed against.
  std::vector<double> demand;
  /// Community metric: the max-min fraction theta (1.0 when not applicable).
  double theta = 1.0;
  /// True when the scheduler's LP reached no optimum this window
  /// (infeasible, unbounded or out of pivots; sched/staged_lp.hpp): a
  /// stage-1 failure falls back to the previous good allocation — or an
  /// empty one when no window succeeded yet — and a stage-2 failure keeps
  /// the stage-1 solution.
  bool lp_fallback = false;

  std::size_t size() const { return demand.size(); }

  /// Total admitted rate for principal i across all servers.
  double admitted(core::PrincipalId i) const { return rate.row_sum(i); }

  /// Total load placed on server k across all principals.
  double server_load(core::PrincipalId k) const { return rate.col_sum(k); }
};

}  // namespace sharegrid::sched
