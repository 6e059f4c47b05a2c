// Runtime invariant auditor (correctness tooling layer).
//
// The paper's enforcement guarantees rest on exact numeric invariants: flow
// conservation through the transitive MI/OI/MT/OT computation (§3.1.1,
// Formulae 1-4), the entitlement decomposition partitioning server capacity
// (DESIGN.md D1), LP solutions being primal feasible, and per-window quota +
// debt conservation (§3.1.2, DESIGN.md D5). This module checks them
// mechanically at runtime.
//
// Two layers:
//  - Non-template checks (implemented in invariant_auditor.cpp) operate on
//    util-level types only (Matrix, vectors, doubles), so sharegrid_audit
//    depends on nothing above sharegrid_util and every subsystem may link it
//    without a dependency cycle.
//  - Template checks are duck-typed over the calling subsystem's own types
//    (AgreementGraph/AccessLevels, lp::Problem/Solution, the L4 flow maps)
//    and instantiate only in translation units where those types are
//    complete, again keeping this header dependency-free.
//
// Call sites wrap invocations in SHAREGRID_AUDIT_HOOK(...), which compiles
// to nothing unless the build defines SHAREGRID_AUDIT (CMake option
// SHAREGRID_AUDIT=ON, on by default in the debug-asan/debug-tsan presets).
// Tests call the audit functions directly; they are always compiled.
//
// Every violation throws sharegrid::ContractViolation whose message starts
// with "[audit] <invariant>:" followed by the offending numbers and a hint
// about what likely broke — messages are meant to be actionable, not merely
// true. Messages are built lazily (require() takes a callable): several
// hooks sit on per-admission/per-pivot hot paths, and a passing check must
// cost arithmetic only, never string formatting.
#pragma once

#include <algorithm>
#include <cmath>
#include <cstddef>
#include <cstdint>
#include <string>
#include <type_traits>
#include <utility>
#include <vector>

#include "util/assert.hpp"
#include "util/matrix.hpp"

namespace sharegrid::audit {

/// Absolute + relative tolerance for floating-point identity checks.
struct Tolerance {
  double abs = 1e-7;
  double rel = 1e-7;

  bool close(double a, double b) const {
    return std::abs(a - b) <= abs + rel * std::max(std::abs(a), std::abs(b));
  }
};

/// Throws ContractViolation with the auditor's message format.
[[noreturn]] void fail(const std::string& invariant, const std::string& detail);

/// fail() unless @p ok; @p message is invoked only on failure so passing
/// checks never pay for string formatting.
template <class MessageFn>
inline void require(bool ok, const char* invariant, MessageFn&& message) {
  if (!ok) fail(invariant, std::forward<MessageFn>(message)());
}

/// Compact numeric formatting for audit messages ("0.300000012" -> "0.3").
std::string num(double value);

// ---------------------------------------------------------------------------
// lp/solve_context: revised-simplex (eta-file) consistency and anti-cycling
// progress. The solver stores no tableau: basis coherence is checked one
// FTRAN image at a time, and the product-form inverse is cross-checked
// against a from-scratch rebuild at every refactorization.
// ---------------------------------------------------------------------------

/// Bland's rule guarantees the objective never regresses even on degenerate
/// pivots; a decrease means the anti-cycling pricing is broken (or the
/// basis lost numerical coherence) and the solver may loop forever.
void audit_bland_progress(double objective_before, double objective_after,
                          double tol);

/// Checks that every basic value lies within its variable's bounds: at least
/// 0, and at most upper[basis[i]] where finite, so the basic solution is
/// primal feasible on both sides. The tolerance scales by the largest |rhs| entry (conservative-mode LPs carry saturated
/// demands around 1e9, where rounding dwarfs any absolute epsilon).
void audit_basic_values(const std::vector<double>& rhs,
                        const std::vector<std::size_t>& basis,
                        const std::vector<double>& upper, double tol);

/// Checks that @p ftran_image — the FTRAN of the column basic in @p row
/// through the current eta file — is that row's unit vector: 1 in its own
/// row, 0 elsewhere. This is the revised-simplex statement of "basic columns
/// are eliminated"; drift here means the eta file no longer inverts the
/// basis and every ratio test is reading garbage.
void audit_unit_column(std::size_t row, const std::vector<double>& ftran_image,
                       double tol);

/// Checks the incrementally-maintained reduced costs against a from-scratch
/// BTRAN recomputation (the caller supplies both vectors; the solver applies
/// an eta update per pivot instead of recomputing, and drift silently
/// mis-prices entering columns). Comparison is entrywise with the tolerance
/// scaled per entry by the magnitudes involved.
void audit_reduced_cost_sync(const std::vector<double>& incremental,
                             const std::vector<double>& reference, double tol);

/// Checks that no artificial column is basic — the warm re-entry
/// precondition. Artificials are meaningless outside phase 1; a basic
/// artificial means the solver is about to optimize a point that never
/// satisfied the original constraints.
void audit_no_artificial_basic(const std::vector<std::size_t>& basis,
                               std::size_t first_artificial);

/// Cross-checks the eta-updated basic values carried across pivots against
/// values recomputed from scratch (B^-1 b minus the at-upper columns) at a
/// refactorization, aligned per basic variable. Divergence beyond the
/// scaled tolerance means the product-form updates drifted from the matrix
/// they claim to invert — plans produced between refactorizations would be
/// quietly wrong.
void audit_eta_consistency(const std::vector<double>& eta_values,
                           const std::vector<double>& fresh_values, double tol);

/// Cross-checks a SolveContext's cumulative counters (duck-typed over
/// lp::SolveStats to keep this header dependency-free). Every solve is
/// either warm or cold — exactly one of the two counters moves per solve()
/// — and every cold solve has at most one recorded cause (layout mismatch,
/// periodic refresh, unrepairable column, rejected rhs); a cause recorded
/// twice for one failed warm attempt would overstate miss rates and trip
/// the CI warm-hit-rate gate on healthy runs.
template <class Stats>
void audit_solve_stats(const Stats& s) {
  require(s.warm_solves + s.cold_solves == s.solves, "lp.stats-solve-split",
          [&] {
            return std::to_string(s.warm_solves) + " warm + " +
                   std::to_string(s.cold_solves) + " cold != " +
                   std::to_string(s.solves) +
                   " total solves; a solve path returned without exactly one "
                   "of the two counters being bumped";
          });
  require(s.structure_misses + s.refreshes + s.repair_rejections +
                  s.rhs_rejections <=
              s.cold_solves,
          "lp.stats-cold-causes", [&] {
            return "cold-solve causes (" + std::to_string(s.structure_misses) +
                   " structure misses + " + std::to_string(s.refreshes) +
                   " refreshes + " + std::to_string(s.repair_rejections) +
                   " repair rejections + " + std::to_string(s.rhs_rejections) +
                   " rhs rejections) exceed " + std::to_string(s.cold_solves) +
                   " cold solves; some failed warm attempt was counted under "
                   "two causes";
          });
}

/// Checks that a returned kOptimal solution satisfies the *original* problem:
/// variable bounds, every constraint in its stated relation, and an objective
/// value consistent with the returned variable values.
template <class Problem, class Solution>
void audit_lp_solution(const Problem& problem, const Solution& solution,
                       double tol) {
  if (!solution.optimal()) return;
  const std::size_t n = problem.num_vars();
  require(solution.values.size() == n, "lp.solution-shape", [&] {
    return "solution has " + std::to_string(solution.values.size()) +
           " values for a problem with " + std::to_string(n) +
           " variables; the solver dropped or invented variables";
  });

  const auto& lo = problem.lower_bounds();
  const auto& hi = problem.upper_bounds();
  for (std::size_t j = 0; j < n; ++j) {
    const double x = solution.values[j];
    const double bound_tol = tol * (1.0 + std::abs(x));
    require(x >= lo[j] - bound_tol && x <= hi[j] + bound_tol,
            "lp.variable-bounds", [&] {
              return "x[" + std::to_string(j) + "] = " + num(x) +
                     " violates bounds [" + num(lo[j]) + ", " + num(hi[j]) +
                     "]; the bound rows were lost in the standard-form "
                     "translation";
            });
  }

  std::size_t row = 0;
  for (const auto& c : problem.constraints()) {
    double lhs = 0.0;
    for (const auto& [var, coeff] : c.terms) lhs += coeff * solution.values[var];
    using Rel = std::decay_t<decltype(c.relation)>;
    const double row_tol = tol * (1.0 + std::abs(lhs) + std::abs(c.rhs));
    const bool ok =
        (c.relation == Rel::kLessEq && lhs <= c.rhs + row_tol) ||
        (c.relation == Rel::kGreaterEq && lhs >= c.rhs - row_tol) ||
        (c.relation == Rel::kEqual && std::abs(lhs - c.rhs) <= row_tol);
    require(ok, "lp.primal-feasibility", [&] {
      return "constraint #" + std::to_string(row) + " has lhs " + num(lhs) +
             " vs rhs " + num(c.rhs) +
             "; the solver returned kOptimal for an infeasible point — "
             "phase-1 termination or the feasibility test is broken";
    });
    ++row;
  }

  double objective = 0.0;
  for (std::size_t j = 0; j < n; ++j)
    objective += problem.objective()[j] * solution.values[j];
  require(std::abs(objective - solution.objective) <=
              tol * (1.0 + std::abs(objective)),
          "lp.objective-consistency", [&] {
            return "reported objective " + num(solution.objective) +
                   " but the values imply " + num(objective) +
                   "; objective bookkeeping diverged from the tableau";
          });
}

// ---------------------------------------------------------------------------
// sched/window_scheduler: quota + debt conservation (DESIGN.md D5).
// ---------------------------------------------------------------------------

/// Per-window conservation: for every (principal, server) cell the window
/// must satisfy  quota + consumed == slice + debt  exactly (within fp
/// noise), with consumed >= 0 and debt <= 0. Any drift means admissions are
/// being created or destroyed relative to the LP plan.
void audit_window_conservation(const Matrix& quota, const Matrix& consumed,
                               const Matrix& debt, const Matrix& slices,
                               double tol);

// ---------------------------------------------------------------------------
// coord/control_plane: snapshot ordering and cross-redirector quota safety.
// ---------------------------------------------------------------------------

/// Snapshot rounds delivered to one control-plane member must be strictly
/// increasing (gaps are fine — abandoned tree rounds). A repeat or a
/// regression means a transport replayed or reordered an aggregate, and the
/// member would plan window k against data older than what it already used.
void audit_control_plane_snapshot(bool has_previous,
                                  std::uint64_t previous_round,
                                  std::uint64_t round);

/// Round tags a transport is about to deliver must be strictly increasing
/// per process (the wire-level twin of audit_control_plane_snapshot): the
/// SocketTransport rejects stale/duplicate round tags before delivery, and
/// this hook pins that the filter actually held — a violation means the
/// validation path let a replayed or reordered aggregate through.
void audit_round_tag_monotone(bool has_previous, std::uint64_t previous_round,
                              std::uint64_t round);

/// Lease adoptions a follower is about to apply must be monotone: the lease
/// incarnation never decreases, and one incarnation never names two roots. A
/// regression means the stale-lease filter let a superseded (zombie) root's
/// lease through; a same-incarnation root change is split brain — two
/// aggregation points could both open rounds and the fleet would plan
/// against two diverging aggregate streams.
void audit_lease_monotone(bool has_previous, std::uint64_t previous_incarnation,
                          std::size_t previous_root,
                          std::uint64_t incarnation, std::size_t root);

/// A process about to acquire the root lease (lowest-live-member election)
/// must have observed the previous lease expire — acquiring next to a live
/// lease is split brain — and must fence the old root with a strictly higher
/// incarnation than anything it has seen, or the zombie's in-flight rounds
/// would be indistinguishable from the new root's.
void audit_root_acquire(bool lease_known, std::int64_t now_usec,
                        std::int64_t lease_expiry_usec,
                        std::uint64_t new_incarnation,
                        std::uint64_t highest_seen);

/// One member's window slices against its own plan: every cell must satisfy
/// 0 <= slice(i, k) <= plan_rate(i, k) * share_cap * window_sec. share_cap
/// is 1/R in the conservative no-snapshot phase (§5.1 phase 1: nobody may
/// take more than their redirector-count slice) and 1 once snapshots flow
/// (the proportional share can legitimately reach 1).
void audit_control_plane_member_slices(const Matrix& slices,
                                       const Matrix& plan_rate,
                                       double share_cap, double window_sec,
                                       double tol);

/// Cross-member conservation in the conservative no-snapshot phase: the
/// redirectors' slices of cell (i, k) must sum to at most the full plan cell
/// plan_rate(i, k) * window_sec — the 1/R split may never hand out more
/// total quota than one redirector owning the whole plan would. Only valid
/// before the first snapshot (afterwards local drift over a lagged snapshot
/// legitimately pushes the share sum past 1; see
/// WindowScheduler::compute_slices).
void audit_control_plane_slice_sum(const Matrix& slice_sum,
                                   const Matrix& plan_rate, double window_sec,
                                   double tol);

// ---------------------------------------------------------------------------
// core/flow + core/entitlement: Formulae 1-4 and the capacity partition.
// ---------------------------------------------------------------------------

/// Audits a complete AccessLevels result against its source graph:
///  - transfer-matrix sanity: MT diagonal 1, OT diagonal 0, all entries
///    non-negative, and MT(j,i) <= 1 (a substochastic path measure: the lb
///    issued by any principal sum to at most 1, Formula 1);
///  - value consistency: M_i / O_i equal the capacity-weighted column sums
///    of MT / OT (Formulae 3-4);
///  - the Figure 5(b) split: MC_i = M_i (1 - L_i), OC_i = O_i + M_i L_i,
///    with L_i in [0, 1], which conserves MC_i + OC_i = M_i + O_i;
///  - entitlement row sums recover the access levels (DESIGN.md D1);
///  - when @p expect_exact_partition (acyclic agreement graphs): the
///    mandatory entitlements of each server column partition its capacity,
///    sum_i EM(i,k) = V_k.
template <class Graph, class Levels>
void audit_access_levels(const Graph& graph, const Levels& levels,
                         bool expect_exact_partition, Tolerance tol = {}) {
  const std::size_t n = graph.size();
  require(levels.size() == n && levels.mandatory_transfer.rows() == n &&
              levels.mandatory_transfer.cols() == n &&
              levels.optional_transfer.rows() == n &&
              levels.optional_transfer.cols() == n &&
              levels.mandatory_entitlement.rows() == n &&
              levels.optional_entitlement.rows() == n,
          "flow.shape", [&] {
            return "access-level result shapes disagree with a graph of " +
                   std::to_string(n) + " principals";
          });

  for (std::size_t j = 0; j < n; ++j) {
    for (std::size_t i = 0; i < n; ++i) {
      const double mt = levels.mandatory_transfer(j, i);
      const double ot = levels.optional_transfer(j, i);
      if (i == j) {
        require(tol.close(mt, 1.0) && std::abs(ot) <= tol.abs,
                "flow.transfer-diagonal", [&] {
                  return "principal " + graph.name(j) + ": MT(j,j) = " +
                         num(mt) + ", OT(j,j) = " + num(ot) +
                         " (must be 1 and 0: a principal fully owns its own "
                         "capacity and gains no optional value from itself)";
                });
        continue;
      }
      require(mt >= -tol.abs && ot >= -tol.abs, "flow.transfer-negative",
              [&] {
                return "MT(" + graph.name(j) + ", " + graph.name(i) + ") = " +
                       num(mt) + ", OT = " + num(ot) +
                       "; negative transfer means a path contributed negative "
                       "value — check agreement bounds 0 <= lb <= ub";
              });
      require(mt <= 1.0 + tol.abs + tol.rel, "flow.mandatory-transfer-bound",
              [&] {
                return "MT(" + graph.name(j) + ", " + graph.name(i) + ") = " +
                       num(mt) +
                       " exceeds 1; the path walk double-counted a simple "
                       "path or an owner issued lower bounds summing past 1 "
                       "(Formula 1)";
              });
    }
  }

  for (std::size_t i = 0; i < n; ++i) {
    double m = 0.0, o = 0.0;
    for (std::size_t j = 0; j < n; ++j) {
      m += graph.capacity(j) * levels.mandatory_transfer(j, i);
      o += graph.capacity(j) * levels.optional_transfer(j, i);
    }
    require(tol.close(m, levels.mandatory_value[i]),
            "flow.mandatory-value-conservation", [&] {
              return "principal " + graph.name(i) + ": stored M_i = " +
                     num(levels.mandatory_value[i]) +
                     " but capacity-weighted MT column sums to " + num(m) +
                     " (Formula 3); values were not recomputed after a "
                     "transfer or capacity change";
            });
    require(tol.close(o, levels.optional_value[i]),
            "flow.optional-value-conservation", [&] {
              return "principal " + graph.name(i) + ": stored O_i = " +
                     num(levels.optional_value[i]) +
                     " but capacity-weighted OT column sums to " + num(o) +
                     " (Formula 4); values were not recomputed after a "
                     "transfer or capacity change";
            });

    const double ceded = graph.issued_lower_bound(i);
    require(ceded >= -tol.abs && ceded <= 1.0 + tol.abs, "flow.ceded-range",
            [&] {
              return "principal " + graph.name(i) +
                     " issues lower bounds summing to " + num(ceded) +
                     "; outside [0, 1] the Figure 5(b) split is meaningless";
            });
    const double mc = levels.mandatory_value[i] * (1.0 - ceded);
    const double oc =
        levels.optional_value[i] + levels.mandatory_value[i] * ceded;
    require(tol.close(mc, levels.mandatory_capacity[i]) &&
                tol.close(oc, levels.optional_capacity[i]),
            "flow.access-level-split", [&] {
              return "principal " + graph.name(i) + ": stored (MC, OC) = (" +
                     num(levels.mandatory_capacity[i]) + ", " +
                     num(levels.optional_capacity[i]) +
                     ") but the L_i = " + num(ceded) + " split of (M, O) "
                     "gives (" + num(mc) + ", " + num(oc) +
                     "); the mandatory/optional conversion lost value";
            });

    double em_row = 0.0, eo_row = 0.0;
    for (std::size_t k = 0; k < n; ++k) {
      em_row += levels.mandatory_entitlement(i, k);
      eo_row += levels.optional_entitlement(i, k);
    }
    require(tol.close(em_row, levels.mandatory_capacity[i]),
            "flow.entitlement-row-sum", [&] {
              return "principal " + graph.name(i) + ": EM row sums to " +
                     num(em_row) + " but MC_i = " +
                     num(levels.mandatory_capacity[i]) +
                     "; the per-server decomposition no longer adds up to "
                     "the access level the schedulers promise (DESIGN.md D1)";
            });
    require(tol.close(eo_row, levels.optional_capacity[i]),
            "flow.entitlement-row-sum", [&] {
              return "principal " + graph.name(i) + ": EO row sums to " +
                     num(eo_row) + " but OC_i = " +
                     num(levels.optional_capacity[i]) +
                     "; the per-server decomposition no longer adds up to "
                     "the access level the schedulers promise (DESIGN.md D1)";
            });
  }

  if (expect_exact_partition) {
    for (std::size_t k = 0; k < n; ++k) {
      double em_col = 0.0;
      for (std::size_t i = 0; i < n; ++i)
        em_col += levels.mandatory_entitlement(i, k);
      require(tol.close(em_col, graph.capacity(k)),
              "flow.entitlement-partition", [&] {
                return "server column " + graph.name(k) + ": EM sums to " +
                       num(em_col) + " but capacity is " +
                       num(graph.capacity(k)) +
                       "; on an acyclic agreement graph the mandatory "
                       "entitlements must exactly partition each server's "
                       "capacity or the schedulers' lower bounds are "
                       "infeasible";
              });
    }
  }
}

// ---------------------------------------------------------------------------
// sim/simulator: timing-wheel event engine (DESIGN.md D4/D8).
// ---------------------------------------------------------------------------

/// The simulated clock may only move forward: the wheel hands events out in
/// nondecreasing time order, so a backwards step means a cascade mis-filed
/// an event into an already-passed bucket.
void audit_sim_clock_monotone(std::int64_t now, std::int64_t next);

/// Conservation across cascades: every scheduled event is either executed or
/// still pending, exactly once. @p inserted counts schedule calls, @p popped
/// executions, @p size the wheel's O(1) size counter, and @p walked the
/// events actually found by walking every slot and the overflow list.
void audit_sim_event_conservation(std::uint64_t inserted, std::uint64_t popped,
                                  std::size_t size, std::uint64_t walked);

// ---------------------------------------------------------------------------
// l4/connection_table: the open-flow counter, the entries' indexes and the
// index that finds them.
// ---------------------------------------------------------------------------

/// One entry per flow holds both the NAT mapping (open) and the affinity
/// hint (closed), so the two can no longer disagree. What can still drift:
/// the open-flow counter behind active_connections() must equal the number
/// of entries marked open, every stored vip and server index must name one
/// of the caller's @p vips principals and @p servers machines, every filed
/// entry's key must lead the index probe back to that entry, and every
/// pending entry's key (one open_new() appended since the last open()) must
/// be new: in neither a filed entry nor another pending one. @p state is an
/// l4::ConnectionTable::State: `flows` entries by id through `entry(id)` (a
/// `key` with `client_host`, `client_port` and `vip`, a `flow` with
/// `server()` and `open()`), the first `indexed` of them filed, `find(key)`
/// the filed id the index reaches, and `open_flows`.
template <class State>
void audit_connection_table(const State& state, std::size_t vips,
                            std::size_t servers) {
  std::size_t open = 0;
  const auto packed = [](const auto& key) {
    return (std::uint64_t{key.client_host} << 32) |
           (std::uint64_t{key.client_port} << 16) | key.vip;
  };
  // Pending ids + 1 in an open-addressing set at most half full (0 when
  // empty), which finds two pending entries with one key.
  std::size_t slots = 16;
  while (state.indexed + slots / 2 < state.flows) slots *= 2;
  std::vector<std::size_t> pending(state.indexed < state.flows ? slots : 0);
  for (std::size_t id = 0; id < state.flows; ++id) {
    const auto& [key, flow] = state.entry(static_cast<std::uint32_t>(id));
    require(key.vip < vips, "l4.vip-index-range", [&] {
      return "flow #" + std::to_string(id) + " names vip " +
             std::to_string(key.vip) + " of " + std::to_string(vips) +
             " vips";
    });
    require(flow.server() < servers, "l4.server-index-range", [&] {
      return "flow #" + std::to_string(id) + " names server " +
             std::to_string(flow.server()) + " of " +
             std::to_string(servers) + " servers";
    });
    const auto found = state.find(key);
    if (id < state.indexed) {
      require(found && *found == id, "l4.index-reach", [&] {
        return "flow #" + std::to_string(id) + "'s key leads the index to " +
               (found ? "flow #" + std::to_string(*found)
                      : std::string("an empty word")) +
               ", so open() would not find it";
      });
    } else {
      require(!found, "l4.pending-key-new", [&] {
        return "pending flow #" + std::to_string(id) +
               " repeats the key of filed flow #" + std::to_string(*found) +
               "; open_new() was handed a key that was not new";
      });
      const std::uint64_t bits = packed(key);
      std::size_t at =
          static_cast<std::size_t>((bits * 0x9e3779b97f4a7c15ull) >> 32) &
          (slots - 1);
      for (; pending[at] != 0; at = (at + 1) & (slots - 1)) {
        const std::size_t first = pending[at] - 1;
        require(packed(state.entry(static_cast<std::uint32_t>(first)).key) !=
                    bits,
                "l4.pending-key-new", [&] {
                  return "pending flows #" + std::to_string(first) + " and #" +
                         std::to_string(id) +
                         " have the same key; open_new() was handed a key "
                         "that was not new";
                });
      }
      pending[at] = id + 1;
    }
    if (flow.open()) ++open;
  }
  require(open == state.open_flows, "l4.open-flow-count", [&] {
    return std::to_string(open) + " entries are marked open but the table "
           "counts " + std::to_string(state.open_flows) +
           " active connections; open() and close() must move the counter "
           "with the open bit";
  });
}

// ---------------------------------------------------------------------------
// experiments/sharded_scenario: sharded run matches the serial oracle.
// ---------------------------------------------------------------------------

/// A cluster-partitioned scenario run with sim_shards > 1 must be *bitwise*
/// equal to the same scenario re-run with sim_shards = 1 — the serial run IS
/// the oracle. The engine promises shard-count invariance by construction
/// (conservative lookahead + source-ordered barrier delivery, DESIGN.md
/// D13); any mismatch here means an event leaked across an epoch boundary,
/// a barrier delivered out of order, or the per-cluster merge ran in a
/// nondeterministic order. Duck-typed over ScenarioResult.
template <class Result>
void audit_shard_merge_match(const Result& sharded, const Result& serial) {
  require(sharded.total_admitted == serial.total_admitted &&
              sharded.total_rejected_or_queued ==
                  serial.total_rejected_or_queued &&
              sharded.coordination_messages == serial.coordination_messages,
          "shard.total-divergence", [&] {
            return "admitted " + std::to_string(sharded.total_admitted) + "/" +
                   std::to_string(serial.total_admitted) + ", rejected " +
                   std::to_string(sharded.total_rejected_or_queued) + "/" +
                   std::to_string(serial.total_rejected_or_queued) +
                   ", coordination " +
                   std::to_string(sharded.coordination_messages) + "/" +
                   std::to_string(serial.coordination_messages) +
                   " (sharded/serial); the lanes dropped or duplicated work";
          });
  const std::size_t principals = serial.metrics.principal_count();
  require(sharded.metrics.principal_count() == principals,
          "shard.metrics-shape", [&] {
            return "sharded run reports " +
                   std::to_string(sharded.metrics.principal_count()) +
                   " principals, serial " + std::to_string(principals);
          });
  for (std::size_t p = 0; p < principals; ++p) {
    const auto compare_series = [&](const auto& lhs, const auto& rhs,
                                    const char* what) {
      const std::size_t bins = std::max(lhs.bin_count(), rhs.bin_count());
      for (std::size_t b = 0; b < bins; ++b) {
        require(lhs.events_in_bin(b) == rhs.events_in_bin(b),
                "shard.series-divergence", [&] {
                  return std::string(what) + "[principal " +
                         std::to_string(p) + "] bin " + std::to_string(b) +
                         ": " + std::to_string(lhs.events_in_bin(b)) +
                         " sharded but " + std::to_string(rhs.events_in_bin(b)) +
                         " serial; some cluster saw a different event stream";
                });
      }
    };
    compare_series(sharded.metrics.offered(p), serial.metrics.offered(p),
                   "offered");
    compare_series(sharded.metrics.served(p), serial.metrics.served(p),
                   "served");
    compare_series(sharded.metrics.rejected(p), serial.metrics.rejected(p),
                   "rejected");
    compare_series(sharded.metrics.reply_bytes(p),
                   serial.metrics.reply_bytes(p), "reply_bytes");
    const auto& lat_s = sharded.metrics.latency(p);
    const auto& lat_o = serial.metrics.latency(p);
    require(lat_s.count() == lat_o.count() && lat_s.mean() == lat_o.mean() &&
                lat_s.min() == lat_o.min() && lat_s.max() == lat_o.max(),
            "shard.latency-divergence", [&] {
              return "latency[principal " + std::to_string(p) + "]: n=" +
                     std::to_string(lat_s.count()) + " mean=" +
                     num(lat_s.mean()) + " sharded but n=" +
                     std::to_string(lat_o.count()) + " mean=" +
                     num(lat_o.mean()) +
                     " serial; the per-cluster merge order is not fixed";
            });
  }
  require(sharded.server_backlog_sec.count() ==
                  serial.server_backlog_sec.count() &&
              sharded.server_backlog_sec.mean() ==
                  serial.server_backlog_sec.mean() &&
              sharded.server_backlog_sec.max() ==
                  serial.server_backlog_sec.max(),
          "shard.backlog-divergence", [&] {
            return "backlog probe: n=" +
                   std::to_string(sharded.server_backlog_sec.count()) +
                   " max=" + num(sharded.server_backlog_sec.max()) +
                   " sharded but n=" +
                   std::to_string(serial.server_backlog_sec.count()) +
                   " max=" + num(serial.server_backlog_sec.max()) + " serial";
          });
}

}  // namespace sharegrid::audit

// Expands audit calls only in SHAREGRID_AUDIT builds; in normal builds the
// hook (and everything computed inside its parentheses) vanishes entirely.
#if defined(SHAREGRID_AUDIT)
#define SHAREGRID_AUDIT_HOOK(call) \
  do {                             \
    call;                          \
  } while (false)
#else
#define SHAREGRID_AUDIT_HOOK(call) ((void)0)
#endif
