// Warm-started, sparse revised-simplex LP solve pipeline.
//
// The paper re-solves an LP every 100 ms scheduling window (§3.1.2) and
// argues the cost is negligible because principal counts are small. On a
// redirector hot path with n² routing variables that stops being true, but
// successive windows differ only in demand-driven data: right-hand sides,
// bounds, objective coefficients, and (for the max-min theta rows) one
// structural column. A SolveContext exploits that structure:
//
//  * PreparedProblem factors standard-form construction — lower-bound
//    shifting, sign flips, slack/artificial column layout, phase-2 costs —
//    out of the solve, so a re-solve only rewrites the numbers that moved.
//    The constraint matrix is stored in compressed sparse column form as
//    well as CSR: the revised simplex works column-wise, and scheduler
//    columns average a handful of nonzeros regardless of principal count.
//    Upper bounds never materialize as rows: the simplex handles them
//    implicitly in the ratio test (bounded-variable simplex).
//  * No tableau is ever formed. The basis inverse is kept as a product-form
//    eta file — one elementary transformation per pivot — applied by sparse
//    FTRAN (column transforms) and BTRAN (row transforms). Per-pivot cost is
//    O(nnz(A) + m·|etas|) instead of the dense tableau's O(m · cols), and
//    the eta file is refactorized from the basis every
//    SolverOptions::refactor_interval pivots to bound both its length and
//    floating-point drift (cross-checked by audit_eta_consistency in
//    SHAREGRID_AUDIT builds).
//  * The optimal basis of the previous solve is kept. When the next problem
//    has the same layout, the solver recomputes the basic values by one
//    FTRAN of the new right-hand side, repairs changed structural columns
//    with at most one eta each, and re-enters phase 2 directly. When the new
//    right-hand side leaves the basis primal infeasible, dual simplex pivots
//    restore feasibility as long as the basis is still dual feasible (true
//    whenever the objective is stable across windows, as in every scheduler
//    stage); only when that also fails does the solve fall back to the full
//    two-phase method.
//  * Scratch buffers (reduced costs, FTRAN/BTRAN vectors, rhs) live in the
//    context, so the pivot inner loops never allocate.
//
// See docs/lp-performance.md for the design discussion and measurements.
#pragma once

#include <cstddef>
#include <cstdint>
#include <limits>
#include <memory>
#include <vector>

#include "lp/problem.hpp"

namespace sharegrid::lp {

/// Solver outcome. kIterationLimit means the pivot budget ran out before a
/// verdict; callers on a per-window hot path should treat it as "no fresh
/// plan this window" (keep the previous one), never as a crash.
enum class Status { kOptimal, kInfeasible, kUnbounded, kIterationLimit };

/// Result of solving a Problem.
struct Solution {
  Status status = Status::kInfeasible;
  /// Objective value in the problem's own sense (valid when kOptimal).
  double objective = 0.0;
  /// Value per variable (valid when kOptimal).
  std::vector<double> values;
  /// Optimal basis: the standard-form column basic in each row (valid when
  /// kOptimal). Carried so the next window's solve can re-enter phase 2 from
  /// here instead of rebuilding from scratch; column indices are internal
  /// (structural < n, then slack/surplus, then artificial).
  std::vector<std::size_t> basis;
  /// True when this solve re-entered phase 2 from a cached basis instead of
  /// running the full two-phase method.
  bool warm_started = false;

  bool optimal() const { return status == Status::kOptimal; }
};

/// Numerical tolerance for optimality/feasibility tests.
inline constexpr double kTolerance = 1e-9;
/// Pivot count after which pricing falls back to Bland's rule.
inline constexpr std::size_t kBlandAfter = 200;

/// Solver tuning knobs; defaults are appropriate for window-scheduling LPs.
struct SolverOptions {
  /// Hard cap on pivots (guards against pathological inputs).
  std::size_t max_iterations = 100000;
  /// Warm solves allowed between full (cold) solves in a SolveContext.
  /// Bounds floating-point drift across reused bases; 0 disables warm
  /// starting entirely.
  std::size_t warm_refresh_interval = 64;
  /// Pivots between eta-file refactorizations. Each pivot appends one eta to
  /// the product-form basis inverse; every K pivots the file is rebuilt from
  /// the basis columns, the basic values are recomputed from scratch (the
  /// eta-updated values are cross-checked against them in SHAREGRID_AUDIT
  /// builds), and the incremental reduced costs are refreshed. Bounds both
  /// FTRAN/BTRAN cost and numerical drift.
  std::size_t refactor_interval = 64;
};

/// "No column" marker in PreparedProblem layout arrays.
inline constexpr std::uint32_t kNoColumn =
    std::numeric_limits<std::uint32_t>::max();

/// Standard-form image of a Problem, split into the *layout* (dimensions,
/// term sparsity, relations, sign-flip pattern, slack/artificial column
/// assignment — everything that decides basis structure) and the *data*
/// (coefficients, right-hand sides, phase-2 costs). Two windows whose
/// layouts match can reuse one cached basis; only the data is rewritten.
struct PreparedProblem {
  // -- dimensions --
  std::size_t num_vars = 0;  ///< structural variables n
  std::size_t num_rows = 0;  ///< user constraints (bounds are implicit)
  std::size_t num_slack = 0;
  std::size_t num_artificial = 0;
  std::size_t cols = 0;  ///< n + slacks + artificials
  std::size_t first_artificial = 0;

  // -- layout (compared by layout_matches) --
  std::vector<Relation> relation;        ///< original relation per constraint
  std::vector<std::uint8_t> flipped;     ///< 1 when the row was negated
  std::vector<Relation> effective;       ///< relation after the flip
  std::vector<std::uint32_t> term_var;   ///< CSR term variable indices
  std::vector<std::uint32_t> row_begin;  ///< CSR offsets, size rows+1
  /// CSC image of the same terms: col_begin[j]..col_begin[j+1] indexes the
  /// (row, value) entries of structural column j, in row order. Duplicate
  /// terms for one variable in one row stay separate entries (they
  /// accumulate in every dot product, matching the CSR scatter). The
  /// pattern follows from term_var/row_begin, so layout_matches need not
  /// compare it separately; col_val below is data.
  std::vector<std::uint32_t> col_begin;  ///< CSC offsets, size num_vars+1
  std::vector<std::uint32_t> col_row;    ///< CSC row indices
  /// Vars with a finite upper bound. Part of the *layout*: a bound drifting
  /// between finite values is a data rewrite, but a bound crossing to/from
  /// kInfinity changes which variables the ratio test may flip, so it must
  /// force a structure miss.
  std::vector<std::uint32_t> ub_var;
  std::vector<std::uint32_t> slack_col;  ///< per row, kNoColumn if none
  std::vector<std::uint32_t> art_col;    ///< per row, kNoColumn if none
  std::vector<std::uint32_t> unit_col;   ///< per row: its initial unit column
  std::vector<double> slack_sign;        ///< +1 slack, -1 surplus, 0 none
  /// Per auxiliary column (index - num_vars): the single row it occupies and
  /// its coefficient there (slack_sign for slacks, +1 for artificials).
  /// Every auxiliary column is a singleton, so this is its whole CSC image.
  std::vector<std::uint32_t> aux_row;
  std::vector<double> aux_val;

  // -- data (free to differ between warm-compatible windows) --
  std::vector<double> coeffs;   ///< CSR coefficients, flip-adjusted
  std::vector<double> col_val;  ///< CSC coefficients, same adjustment
  std::vector<double> rhs;      ///< shifted + flip-adjusted, size num_rows
  std::vector<double> costs;    ///< phase-2 maximize costs over all columns
  /// Shifted upper bound hi_j - lo_j per variable (kInfinity when
  /// unbounded); the finite/infinite *pattern* is layout (ub_var above),
  /// the finite values are data.
  std::vector<double> upper;

  /// True when @p other has the same structural layout (coefficients, rhs,
  /// finite bound values and costs may differ). Warm starts require a match.
  bool layout_matches(const PreparedProblem& other) const;
};

/// Builds the standard form of @p problem into @p out, reusing its storage.
/// Throws ContractViolation if any lower bound is non-finite.
void prepare(const Problem& problem, PreparedProblem& out);

/// Cumulative counters describing how a SolveContext's solves resolved.
struct SolveStats {
  std::uint64_t solves = 0;        ///< total solve() calls
  std::uint64_t warm_solves = 0;   ///< re-entered phase 2 from a cached basis
  std::uint64_t cold_solves = 0;   ///< full two-phase solves
  /// Warm start skipped: constraint/bound layout (or a sign flip) changed.
  std::uint64_t structure_misses = 0;
  /// Warm start attempted, the cached basis was primal infeasible for the
  /// new right-hand side, and dual simplex could not recover (the basis was
  /// not dual feasible either, or the pivot budget ran out) — the "fall
  /// back to phase 1" case.
  std::uint64_t rhs_rejections = 0;
  /// Primal-infeasible warm starts recovered by dual simplex pivots instead
  /// of a cold phase 1+2 (possible whenever the objective is stable across
  /// windows, which holds for every scheduler stage).
  std::uint64_t dual_recoveries = 0;
  /// Warm start attempted but a changed basic column could not be repaired
  /// with a numerically safe pivot.
  std::uint64_t repair_rejections = 0;
  /// Periodic anti-drift cold refreshes (SolverOptions::warm_refresh_interval).
  std::uint64_t refreshes = 0;
  std::uint64_t pivots = 0;  ///< simplex pivots across all solves
  /// Ratio-test steps resolved by moving a nonbasic variable to its opposite
  /// bound instead of changing the basis (no pivot, O(m) instead of a basis
  /// change).
  std::uint64_t bound_flips = 0;
  /// Eta-file rebuilds from the basis columns (every
  /// SolverOptions::refactor_interval pivots; see audit_eta_consistency).
  std::uint64_t refactorizations = 0;

  SolveStats& operator+=(const SolveStats& o) {
    solves += o.solves;
    warm_solves += o.warm_solves;
    cold_solves += o.cold_solves;
    structure_misses += o.structure_misses;
    rhs_rejections += o.rhs_rejections;
    dual_recoveries += o.dual_recoveries;
    repair_rejections += o.repair_rejections;
    refreshes += o.refreshes;
    pivots += o.pivots;
    bound_flips += o.bound_flips;
    refactorizations += o.refactorizations;
    return *this;
  }
};

/// Reusable solve pipeline: owns the prepared standard form, the cached
/// optimal basis and its eta-file inverse, and all pivot scratch space. One
/// context per logically-recurring program (e.g. one per scheduler stage);
/// contexts are not thread-safe — callers serialize access.
class SolveContext {
 public:
  SolveContext();
  ~SolveContext();
  SolveContext(SolveContext&&) noexcept;
  SolveContext& operator=(SolveContext&&) noexcept;
  SolveContext(const SolveContext&) = delete;
  SolveContext& operator=(const SolveContext&) = delete;

  /// Solves @p problem, warm-starting from the previous call's basis when
  /// the problem layout matches. Results are status/objective-equivalent to
  /// a cold lp::solve of the same problem (alternate optima may place the
  /// optimum at a different vertex).
  Solution solve(const Problem& problem, const SolverOptions& options = {});

  const SolveStats& stats() const;

 private:
  struct Impl;
  std::unique_ptr<Impl> impl_;
};

/// Solves @p problem from scratch (cold); never throws on infeasible /
/// unbounded / iteration-limited inputs (reported via Solution::status).
/// Throws ContractViolation on malformed input only. Per-window callers that
/// re-solve structurally identical programs should hold a lp::SolveContext
/// instead and let it warm-start.
Solution solve(const Problem& problem, const SolverOptions& options = {});

}  // namespace sharegrid::lp
