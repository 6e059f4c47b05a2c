// Implementation of the warm-started revised-simplex pipeline
// (lp/solve_context.hpp).
//
// No tableau is ever formed. The solver keeps the constraint matrix in the
// sparse form built by prepare() (CSC for structural columns, one (row,
// value) pair per slack/artificial singleton) and represents the basis
// inverse as a product-form eta file: one elementary column transformation
// per pivot. The two kernels are
//   FTRAN  v := B^-1 v   — apply the etas forward; used to bring the
//                          entering column into the current basis for the
//                          ratio test, and to recompute basic values from a
//                          right-hand side,
//   BTRAN  u := u B^-1   — apply the etas in reverse; used to form the dual
//                          multipliers for pricing (y = c_B B^-1, then
//                          d_j = c_j - y a_j over sparse columns) and to
//                          read single rows of B^-1 A without materializing
//                          anything.
// Per pivot this costs O(nnz(A) + m * |etas|) against the dense tableau's
// O(m * cols) row elimination — on the schedulers' ~3-nonzeros-per-row
// programs the difference is what lets n grow past ~32 principals inside a
// scheduling window (docs/lp-performance.md has the measured curve).
//
// Each eta stores the FTRAN image of its entering column, so applying it
// performs float-for-float the same elimination the dense engine applied to
// every tableau column: pivot choices, and therefore plans, are preserved.
// The file is rebuilt from the basis columns ("refactorized") every
// SolverOptions::refactor_interval pivots, which bounds both the FTRAN/BTRAN
// cost and accumulated rounding; the basic values are recomputed from
// scratch at the same time and cross-checked against the eta-updated ones in
// SHAREGRID_AUDIT builds (audit_eta_consistency).
//
// Upper bounds are handled *implicitly* (bounded-variable simplex): a
// nonbasic variable is either at its lower bound (shifted value 0) or at its
// upper bound (value u_j = hi_j - lo_j), the ratio test gains a third
// candidate — the entering variable reaching its own opposite bound, a
// "bound flip" that moves it there without any basis change — and the stored
// right-hand side always holds the *values of the basic variables* given the
// current nonbasic positions.
//
// The warm path keeps the previous window's basis and eta file. For a new
// window with matching layout the solver recomputes the basic values by one
// FTRAN of the new right-hand side (minus every nonbasic-at-upper column
// times its bound), repairs each changed *basic* structural column with a
// single extra eta, and re-enters phase 2 directly; changed nonbasic columns
// need no work at all, since nothing stores their basis image — the next
// FTRAN re-derives it from the new matrix. If the new right-hand side leaves
// the basis primal infeasible, dual simplex pivots restore feasibility;
// only when that also fails does the solve fall back to the full two-phase
// method. Phase-1 residue (redundant rows) pins the affected rows — they are
// zeroed out of every column image, exactly like the dense engine's row
// clearing — and such bases are never reused (basis_clean below).
#include "lp/solve_context.hpp"

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <limits>
#include <utility>
#include <vector>

#include "audit/invariant_auditor.hpp"
#include "util/assert.hpp"

namespace sharegrid::lp {
namespace {

constexpr std::size_t kNone = static_cast<std::size_t>(-1);
/// Warm repair is abandoned when more basic columns than this changed
/// (each repair costs a full pivot; past this a cold solve is cheaper).
std::size_t max_repairs(std::size_t rows) {
  return std::max<std::size_t>(8, rows / 4);
}

/// Product-form basis inverse: B^-1 = E_k^-1 ... E_1^-1 with one eta E per
/// pivot. An eta differs from the identity only in its pivot column, which
/// holds the FTRAN image of the entering column at pivot time; entries store
/// that image's raw values (pivot row excluded, zeros skipped) and the pivot
/// element is kept as its reciprocal. Applying E^-1 then reproduces the
/// dense engine's elimination arithmetic exactly: scale the pivot row by
/// 1/pivot, subtract column-entry times scaled-pivot-row from every other
/// row.
struct EtaFile {
  std::vector<std::uint32_t> pivot_row;   // one per eta
  std::vector<double> inv;                // one per eta: 1 / pivot element
  std::vector<std::size_t> entry_begin;   // per eta, offsets into the arrays
  std::vector<std::uint32_t> entry_row;
  std::vector<double> entry_val;

  std::size_t size() const { return pivot_row.size(); }

  void clear() {
    pivot_row.clear();
    inv.clear();
    entry_begin.assign(1, 0);
    entry_row.clear();
    entry_val.clear();
  }

  /// Appends the eta for a pivot on @p row whose entering column FTRANs to
  /// @p column (pre-elimination image, dense over the rows).
  void push(std::size_t row, const std::vector<double>& column) {
    const double p = column[row];
    SHAREGRID_ASSERT(std::abs(p) > 0.0);
    pivot_row.push_back(static_cast<std::uint32_t>(row));
    inv.push_back(1.0 / p);
    for (std::size_t i = 0; i < column.size(); ++i) {
      if (i == row || column[i] == 0.0) continue;
      entry_row.push_back(static_cast<std::uint32_t>(i));
      entry_val.push_back(column[i]);
    }
    entry_begin.push_back(entry_row.size());
  }

  /// v := B^-1 v — etas applied oldest first.
  void ftran(std::vector<double>& v) const {
    for (std::size_t e = 0; e < size(); ++e) {
      const std::size_t r = pivot_row[e];
      const double vr = v[r] * inv[e];
      v[r] = vr;
      if (vr == 0.0) continue;
      for (std::size_t k = entry_begin[e]; k < entry_begin[e + 1]; ++k)
        v[entry_row[k]] -= entry_val[k] * vr;
    }
  }

  /// u := u B^-1 — etas applied newest first. Only the pivot-row component
  /// changes per eta: u_r := (u_r - sum_i entry_i * u_i) / pivot.
  void btran(std::vector<double>& u) const {
    for (std::size_t e = size(); e-- > 0;) {
      const std::size_t r = pivot_row[e];
      double acc = u[r];
      for (std::size_t k = entry_begin[e]; k < entry_begin[e + 1]; ++k)
        acc -= entry_val[k] * u[entry_row[k]];
      u[r] = acc * inv[e];
    }
  }
};

/// Scatters standard-form column @p c of @p p into @p v (resized and zeroed
/// to the row count). Duplicate CSC entries for one (row, var) accumulate,
/// matching the CSR scatter the dense engine used.
void scatter_column(const PreparedProblem& p, std::size_t c,
                    std::vector<double>& v) {
  v.assign(p.num_rows, 0.0);
  if (c < p.num_vars) {
    for (std::uint32_t k = p.col_begin[c]; k < p.col_begin[c + 1]; ++k)
      v[p.col_row[k]] += p.col_val[k];
  } else {
    v[p.aux_row[c - p.num_vars]] += p.aux_val[c - p.num_vars];
  }
}

/// u . a_c over the sparse standard-form column @p c: one row of B^-1 A (or
/// any other row-vector product) without forming the column.
double column_dot(const PreparedProblem& p, std::size_t c,
                  const std::vector<double>& u) {
  if (c >= p.num_vars)
    return u[p.aux_row[c - p.num_vars]] * p.aux_val[c - p.num_vars];
  double acc = 0.0;
  for (std::uint32_t k = p.col_begin[c]; k < p.col_begin[c + 1]; ++k)
    acc += u[p.col_row[k]] * p.col_val[k];
  return acc;
}

enum class PhaseResult { kOptimal, kUnbounded, kIterationLimit };

}  // namespace

bool PreparedProblem::layout_matches(const PreparedProblem& other) const {
  // term_var/row_begin pin the CSR pattern, which determines the CSC pattern
  // as well, so the column arrays need no separate comparison.
  return num_vars == other.num_vars && num_rows == other.num_rows &&
         relation == other.relation && flipped == other.flipped &&
         term_var == other.term_var && row_begin == other.row_begin &&
         ub_var == other.ub_var;
}

void prepare(const Problem& problem, PreparedProblem& out) {
  const std::size_t n = problem.num_vars();
  const auto& lo = problem.lower_bounds();
  const auto& hi = problem.upper_bounds();
  for (std::size_t j = 0; j < n; ++j)
    SHAREGRID_EXPECTS(std::isfinite(lo[j]));

  out.num_vars = n;
  out.relation.clear();
  out.flipped.clear();
  out.effective.clear();
  out.term_var.clear();
  out.coeffs.clear();
  out.row_begin.clear();
  out.ub_var.clear();
  out.rhs.clear();
  out.row_begin.push_back(0);

  // Work in shifted variables y_j = x_j - lo_j >= 0; rows with negative
  // shifted RHS are negated so every RHS is >= 0 (the flip is part of the
  // layout signature: a sign change forces a cold solve).
  const auto& cons = problem.constraints();
  for (const Constraint& c : cons) {
    double shift = 0.0;
    const std::size_t first = out.coeffs.size();
    for (const auto& [var, coeff] : c.terms) {
      out.term_var.push_back(static_cast<std::uint32_t>(var));
      out.coeffs.push_back(coeff);
      shift += coeff * lo[var];
    }
    out.row_begin.push_back(static_cast<std::uint32_t>(out.term_var.size()));
    double rhs = c.rhs - shift;
    Relation effective = c.relation;
    const bool flip = rhs < 0.0;
    if (flip) {
      rhs = -rhs;
      for (std::size_t k = first; k < out.coeffs.size(); ++k)
        out.coeffs[k] = -out.coeffs[k];
      if (effective == Relation::kLessEq)
        effective = Relation::kGreaterEq;
      else if (effective == Relation::kGreaterEq)
        effective = Relation::kLessEq;
    }
    out.relation.push_back(c.relation);
    out.flipped.push_back(flip ? 1 : 0);
    out.effective.push_back(effective);
    out.rhs.push_back(rhs);
  }
  out.num_rows = out.rhs.size();

  // CSC image of the same terms, in row order within each column (counting
  // sort off the CSR walk; col_begin doubles as the fill cursor and is
  // shifted back afterwards). Rebuilt every prepare because the values carry
  // the flip adjustment; steady-state this only rewrites existing storage.
  out.col_begin.assign(n + 1, 0);
  for (const std::uint32_t var : out.term_var) ++out.col_begin[var + 1];
  for (std::size_t j = 0; j < n; ++j) out.col_begin[j + 1] += out.col_begin[j];
  out.col_row.resize(out.term_var.size());
  out.col_val.resize(out.term_var.size());
  for (std::size_t i = 0; i < out.num_rows; ++i) {
    for (std::uint32_t k = out.row_begin[i]; k < out.row_begin[i + 1]; ++k) {
      const std::uint32_t j = out.term_var[k];
      const std::uint32_t at = out.col_begin[j]++;
      out.col_row[at] = static_cast<std::uint32_t>(i);
      out.col_val[at] = out.coeffs[k];
    }
  }
  for (std::size_t j = n; j > 0; --j) out.col_begin[j] = out.col_begin[j - 1];
  out.col_begin[0] = 0;

  // Upper bounds stay implicit: the ratio test enforces y_j <= hi_j - lo_j
  // directly, so no rows are emitted. The finite/infinite pattern is layout
  // (a bound crossing to/from kInfinity must miss the warm cache); the
  // finite widths are data and free to drift between windows.
  out.upper.assign(n, kInfinity);
  for (std::size_t j = 0; j < n; ++j) {
    if (!std::isfinite(hi[j])) continue;
    out.ub_var.push_back(static_cast<std::uint32_t>(j));
    out.upper[j] = hi[j] - lo[j];
  }

  // Column layout: [structural | slack/surplus | artificial], assigned in
  // row order. Every auxiliary column is a singleton, recorded in
  // aux_row/aux_val so the revised kernels can treat it like a one-entry
  // sparse column.
  out.slack_col.clear();
  out.art_col.clear();
  out.unit_col.clear();
  out.slack_sign.clear();
  std::size_t num_slack = 0;
  std::size_t num_art = 0;
  for (std::size_t i = 0; i < out.num_rows; ++i) {
    if (out.effective[i] != Relation::kEqual) ++num_slack;
    if (out.effective[i] != Relation::kLessEq) ++num_art;
  }
  out.num_slack = num_slack;
  out.num_artificial = num_art;
  out.first_artificial = n + num_slack;
  out.cols = n + num_slack + num_art;
  out.aux_row.assign(num_slack + num_art, 0);
  out.aux_val.assign(num_slack + num_art, 0.0);
  std::uint32_t next_slack = static_cast<std::uint32_t>(n);
  std::uint32_t next_art = static_cast<std::uint32_t>(out.first_artificial);
  for (std::size_t i = 0; i < out.num_rows; ++i) {
    const Relation effective = out.effective[i];
    std::uint32_t slack = kNoColumn;
    std::uint32_t art = kNoColumn;
    double sign = 0.0;
    switch (effective) {
      case Relation::kLessEq:
        slack = next_slack++;
        sign = 1.0;
        break;
      case Relation::kGreaterEq:
        slack = next_slack++;
        sign = -1.0;
        art = next_art++;
        break;
      case Relation::kEqual:
        art = next_art++;
        break;
    }
    if (slack != kNoColumn) {
      out.aux_row[slack - n] = static_cast<std::uint32_t>(i);
      out.aux_val[slack - n] = sign;
    }
    if (art != kNoColumn) {
      out.aux_row[art - n] = static_cast<std::uint32_t>(i);
      out.aux_val[art - n] = 1.0;
    }
    out.slack_col.push_back(slack);
    out.art_col.push_back(art);
    out.slack_sign.push_back(sign);
    out.unit_col.push_back(effective == Relation::kLessEq ? slack : art);
  }

  const double sense_sign = problem.sense() == Sense::kMaximize ? 1.0 : -1.0;
  out.costs.assign(out.cols, 0.0);
  for (std::size_t j = 0; j < n; ++j)
    out.costs[j] = sense_sign * problem.objective()[j];
}

/// Why a warm attempt ended; SolveContext::Impl::run maps each outcome to
/// exactly one stats counter so no failure path can double-count.
enum class WarmOutcome {
  kWarm,            ///< warm solve completed (possibly iteration-limited)
  kTooManyRepairs,  ///< enough basic columns changed that cold is cheaper
  kRepairRejected,  ///< a changed basic column had no safe repair pivot
  kRhsRejected,     ///< new rhs primal infeasible, dual recovery failed
};

struct SolveContext::Impl {
  bool valid = false;        // cached basis/eta file reusable for warm start
  bool basis_clean = false;  // no artificial basic, no pinned rows
  std::size_t warm_streak = 0;
  PreparedProblem prep;      // structure the cached basis was built from
  PreparedProblem incoming;  // scratch: structure of the problem being solved
  SolveStats stats;

  // Basis state (replaces the dense tableau).
  std::vector<std::size_t> basis;       // column basic in each row
  std::vector<double> rhs;              // value of the basic var in each row
  std::vector<double> upper;            // per std-form column; kInfinity = none
  std::vector<std::uint8_t> at_upper;   // nonbasic column rests at its upper
  EtaFile etas;
  std::size_t pivots_since_refactor = 0;
  // Redundant rows discovered after phase 1 (a zero-level artificial with no
  // pivot column) are *pinned*: every FTRAN image is zeroed there, so the
  // row is inert in the ratio test, in future etas, and in the basic values
  // — the sparse equivalent of the dense engine's row clearing, which
  // stopped sub-threshold residue from leaking value into the basic
  // artificial during phase 2. A pinned basis is never warm-reused.
  std::vector<std::uint8_t> pinned_row;
  bool any_pinned = false;

  // Scratch hoisted out of the solve loops (never reallocated when the
  // problem shape is stable).
  std::vector<double> d;             // incrementally-maintained reduced costs
  std::vector<double> col;           // FTRAN image of the entering column
  std::vector<double> rho;           // BTRAN row vector (dual multipliers)
  std::vector<double> pr;            // pivot row values for dual recovery
  std::vector<double> phase1_costs;  // -1 on artificials
  std::vector<double> new_rhs;       // recomputed basic values
  std::vector<double> repaired;      // FTRAN image of a changed column
  std::vector<std::size_t> row_of;   // column -> basic row (kNone if nonbasic)
  std::vector<std::uint32_t> changed;      // changed structural columns
  std::vector<char> changed_mark;          // dedup for `changed`
  // Refactorization scratch: the replacement file is built aside and adopted
  // only on success, so a numerically singular rebuild cannot corrupt the
  // working factorization.
  EtaFile refac_etas;
  std::vector<std::size_t> refac_basis;
  std::vector<std::size_t> refac_order;
  std::vector<std::uint8_t> row_done;
  // Audit-only scratch (touched exclusively under SHAREGRID_AUDIT).
  std::vector<double> audit_col;
  std::vector<double> audit_ref;

  Solution run(const Problem& problem, const SolverOptions& opt);
  WarmOutcome try_warm(const Problem& problem, const SolverOptions& opt,
                       Solution& out);
  bool dual_recover(const SolverOptions& opt);
  void cold(const Problem& problem, const SolverOptions& opt, Solution& out);
  void extract(const Problem& problem, Solution& out);

  PhaseResult run_simplex(const std::vector<double>& costs,
                          std::size_t col_limit, const SolverOptions& opt);
  void ftran_column(std::size_t c, std::vector<double>& v);
  void compute_reduced_costs(const std::vector<double>& costs,
                             std::vector<double>& out_d);
  void price_update(double dq);
  void compute_basic_values(const PreparedProblem& src,
                            std::vector<double>& out_vals);
  void refactorize();
  double objective_value(const std::vector<double>& costs) const;
  void audit_basis_coherence(double tol);
  void audit_pricing_sync(const std::vector<double>& costs, double tol);
};

/// FTRAN of standard-form column @p c through the current eta file, with
/// pinned rows zeroed — the invariant every column image must satisfy so
/// pinned rows stay inert (future eta entries and ratio-test candidates
/// there are all zero, and rhs updates leave the pinned 0 untouched).
void SolveContext::Impl::ftran_column(std::size_t c, std::vector<double>& v) {
  scatter_column(prep, c, v);
  etas.ftran(v);
  if (any_pinned)
    for (std::size_t i = 0; i < v.size(); ++i)
      if (pinned_row[i]) v[i] = 0.0;
}

/// Reduced costs d_j = c_j - y . a_j with y = c_B B^-1 formed by one BTRAN,
/// then one sparse dot per column — O(m * |etas| + nnz(A)) against the dense
/// engine's O(m * cols) row accumulation.
void SolveContext::Impl::compute_reduced_costs(const std::vector<double>& costs,
                                               std::vector<double>& out_d) {
  const std::size_t m = prep.num_rows;
  out_d.assign(costs.begin(), costs.end());
  rho.assign(m, 0.0);
  bool any = false;
  for (std::size_t i = 0; i < m; ++i) {
    const double cb = costs[basis[i]];
    if (cb != 0.0) {
      rho[i] = cb;
      any = true;
    }
  }
  if (!any) return;
  etas.btran(rho);
  for (std::size_t j = 0; j < prep.num_vars; ++j) {
    double acc = 0.0;
    for (std::uint32_t k = prep.col_begin[j]; k < prep.col_begin[j + 1]; ++k)
      acc += rho[prep.col_row[k]] * prep.col_val[k];
    out_d[j] -= acc;
  }
  for (std::size_t j = prep.num_vars; j < prep.cols; ++j)
    out_d[j] -=
        rho[prep.aux_row[j - prep.num_vars]] * prep.aux_val[j - prep.num_vars];
}

/// Incremental pricing after a pivot: d'_j = d_j - d_enter * r_j with r the
/// post-pivot row of the leaving position — read via one BTRAN of its unit
/// vector through the file *including* the just-appended eta, then sparse
/// dots. An O(m * |etas| + nnz) eta update replacing the from-scratch
/// recompute per iteration; exactness is restored at every refactorization
/// (and checked every pivot in audit builds). Precondition: rho holds the
/// BTRAN'd unit vector of the pivot row.
void SolveContext::Impl::price_update(double dq) {
  for (std::size_t j = 0; j < prep.num_vars; ++j) {
    double acc = 0.0;
    for (std::uint32_t k = prep.col_begin[j]; k < prep.col_begin[j + 1]; ++k)
      acc += rho[prep.col_row[k]] * prep.col_val[k];
    d[j] -= dq * acc;
  }
  for (std::size_t j = prep.num_vars; j < prep.cols; ++j)
    d[j] -= dq * rho[prep.aux_row[j - prep.num_vars]] *
            prep.aux_val[j - prep.num_vars];
}

/// out_vals := B^-1 (b - sum over nonbasic-at-upper columns a_j u_j): the
/// basic variables' values given every nonbasic variable at its recorded
/// bound. The subtraction happens in original row space (sparse, before the
/// single FTRAN), so the whole recompute costs one pass over the at-upper
/// columns plus one FTRAN.
void SolveContext::Impl::compute_basic_values(const PreparedProblem& src,
                                              std::vector<double>& out_vals) {
  out_vals = src.rhs;
  for (const std::uint32_t j : src.ub_var) {
    if (!at_upper[j]) continue;
    const double u = upper[j];
    if (u == 0.0) continue;
    for (std::uint32_t k = src.col_begin[j]; k < src.col_begin[j + 1]; ++k)
      out_vals[src.col_row[k]] -= src.col_val[k] * u;
  }
  etas.ftran(out_vals);
  if (any_pinned)
    for (std::size_t i = 0; i < out_vals.size(); ++i)
      if (pinned_row[i]) out_vals[i] = 0.0;
}

double SolveContext::Impl::objective_value(
    const std::vector<double>& costs) const {
  double z = 0.0;
  for (std::size_t i = 0; i < prep.num_rows; ++i)
    z += costs[basis[i]] * rhs[i];
  // Nonbasic-at-upper variables contribute at their bound.
  for (std::size_t j = 0; j < prep.cols; ++j)
    if (at_upper[j] && costs[j] != 0.0) z += costs[j] * upper[j];
  return z;
}

/// Audit: the FTRAN image of every basic column must be its row's unit
/// vector — the revised-simplex statement of "basic columns are eliminated".
/// Pinned rows are exempt: their artificial column is represented only by
/// the pinning convention, not by the matrix.
void SolveContext::Impl::audit_basis_coherence(double tol) {
  for (std::size_t i = 0; i < prep.num_rows; ++i) {
    if (any_pinned && pinned_row[i]) continue;
    scatter_column(prep, basis[i], audit_col);
    etas.ftran(audit_col);
    if (any_pinned)
      for (std::size_t r = 0; r < audit_col.size(); ++r)
        if (pinned_row[r]) audit_col[r] = 0.0;
    audit::audit_unit_column(i, audit_col, tol);
  }
}

/// Audit: incrementally-maintained reduced costs against a from-scratch
/// BTRAN recompute.
void SolveContext::Impl::audit_pricing_sync(const std::vector<double>& costs,
                                            double tol) {
  compute_reduced_costs(costs, audit_ref);
  audit::audit_reduced_cost_sync(d, audit_ref, tol);
}

/// Rebuilds the eta file from the current basis columns and recomputes the
/// basic values from scratch, replacing pivot-accumulated state wholesale:
/// afterwards the file holds exactly one eta per basis column regardless of
/// how many pivots (including warm repairs and dual recovery) produced the
/// basis. Columns are factored singleton-auxiliaries first (their pivot
/// causes no fill), then structural columns by ascending index, each
/// pivoting on its largest remaining FTRAN entry — row assignment may
/// permute, which is fine because every tie-break in the solver compares
/// *column* ids, not row ids. The eta-updated basic values are cross-checked
/// against the fresh ones per basic variable in audit builds
/// (audit_eta_consistency). If a pivot comes up exactly zero (numerically
/// singular rebuild), the old file is kept — still correct, just longer —
/// and the next interval retries.
void SolveContext::Impl::refactorize() {
  const std::size_t m = prep.num_rows;
  pivots_since_refactor = 0;
  if (m == 0) return;

  refac_order.clear();
  for (std::size_t i = 0; i < m; ++i) refac_order.push_back(i);
  std::sort(refac_order.begin(), refac_order.end(),
            [&](std::size_t a, std::size_t b) {
              const bool aux_a = basis[a] >= prep.num_vars;
              const bool aux_b = basis[b] >= prep.num_vars;
              if (aux_a != aux_b) return aux_a;
              return basis[a] < basis[b];
            });
  refac_etas.clear();
  refac_basis.assign(m, kNone);
  row_done.assign(m, 0);
  for (const std::size_t i : refac_order) {
    const std::size_t c = basis[i];
    if (any_pinned && pinned_row[i]) {
      // A pinned row's zero-level artificial exists only by convention (its
      // row is zeroed out of every image), so re-factor it as an exact unit
      // on its own row. Pinned rows can never be chosen by other columns:
      // their FTRAN entries are zeroed below.
      col.assign(m, 0.0);
      col[i] = 1.0;
      refac_etas.push(i, col);
      row_done[i] = 1;
      refac_basis[i] = c;
      continue;
    }
    scatter_column(prep, c, col);
    refac_etas.ftran(col);
    if (any_pinned)
      for (std::size_t r = 0; r < m; ++r)
        if (pinned_row[r]) col[r] = 0.0;
    std::size_t prow = kNone;
    double best = 0.0;
    for (std::size_t r = 0; r < m; ++r) {
      if (row_done[r]) continue;
      const double mag = std::abs(col[r]);
      if (mag > best) {
        best = mag;
        prow = r;
      }
    }
    if (prow == kNone || !(best > 0.0)) return;  // singular: keep the old file
    refac_etas.push(prow, col);
    row_done[prow] = 1;
    refac_basis[prow] = c;
  }

  std::swap(etas, refac_etas);
  compute_basic_values(prep, new_rhs);
  // Rows may have permuted: align the eta-updated values (old rows, still in
  // rhs/basis) with the fresh ones per basic variable for the cross-check.
  row_of.assign(prep.cols, kNone);
  for (std::size_t r = 0; r < m; ++r) row_of[refac_basis[r]] = r;
  repaired.resize(m);
  for (std::size_t r = 0; r < m; ++r) repaired[r] = new_rhs[row_of[basis[r]]];
  SHAREGRID_AUDIT_HOOK(audit::audit_eta_consistency(rhs, repaired,
                                                    /*tol=*/1e-6));
  basis = refac_basis;
  rhs = new_rhs;
  ++stats.refactorizations;
}

/// Runs the bounded-variable primal simplex to optimality for the given cost
/// vector (maximize). Columns at or beyond @p col_limit never enter the
/// basis (used to lock out artificials in phase 2). Reduced costs are
/// maintained incrementally in the `d` member; the entering column is
/// re-derived per iteration by one sparse FTRAN.
PhaseResult SolveContext::Impl::run_simplex(const std::vector<double>& costs,
                                            std::size_t col_limit,
                                            const SolverOptions& opt) {
  const std::size_t m = prep.num_rows;
  compute_reduced_costs(costs, d);
  for (std::size_t iter = 0; iter < opt.max_iterations; ++iter) {
    const bool bland = iter >= kBlandAfter;

    // Entering column: a nonbasic variable improves the objective by rising
    // off its lower bound when d_j > 0, or by dropping off its upper bound
    // when d_j < 0. Dantzig (steepest gain) pricing, or Bland (lowest
    // improving index) once the iteration budget suggests degeneracy
    // cycling. Fixed variables (upper == 0) cannot move and never enter,
    // which also keeps zero-length bound flips out of the anti-cycling
    // argument: every admitted flip travels a strictly positive distance.
    std::size_t enter = kNone;
    double best = kTolerance;
    for (std::size_t j = 0; j < col_limit; ++j) {
      const double gain = at_upper[j] ? -d[j] : d[j];
      if (gain <= kTolerance || upper[j] == 0.0) continue;
      if (bland) {
        enter = j;
        break;
      }
      if (gain > best) {
        best = gain;
        enter = j;
      }
    }
    if (enter == kNone) return PhaseResult::kOptimal;
    // Movement direction of the entering variable in shifted space.
    const double dir = at_upper[enter] ? -1.0 : 1.0;

    // Bring the entering column into the current basis: one sparse FTRAN
    // replaces the dense engine's strided column gather.
    ftran_column(enter, col);
    double col_max = 0.0;
    for (std::size_t i = 0; i < m; ++i)
      col_max = std::max(col_max, std::abs(col[i]));

    // Ratio test over three candidate kinds: a basic variable driven down to
    // its lower bound, a basic variable driven up to a finite upper bound,
    // or the entering variable reaching its own opposite bound (a bound
    // flip — no basis change at all). Exact minimum ratio; exact row ties
    // broken by smallest basis index (the lexicographic safeguard that pairs
    // with Bland's rule), and a row tie against the flip distance keeps the
    // row. The comparisons are deliberately tolerance-free: pivoting on any
    // row whose ratio exceeds the true minimum drives the minimum row's
    // basic value out of its bounds by (difference * step). A pivot
    // candidate counts as zero only relative to the entering column's
    // largest magnitude — an absolute guard misclassifies genuinely tiny
    // data, while cancellation noise is always small relative to the column
    // that produced it.
    const double drop = kTolerance * col_max;
    std::size_t leave = kNone;
    bool leave_at_upper = false;
    double best_ratio = upper[enter];  // bound-flip distance (may be inf)
    for (std::size_t i = 0; i < m; ++i) {
      if (std::abs(col[i]) <= drop) continue;
      const double step = dir * col[i];  // basic value moves by -step per unit
      if (step > 0.0) {
        const double ratio = rhs[i] / step;
        if (ratio < best_ratio ||
            (ratio == best_ratio &&
             (leave == kNone || basis[i] < basis[leave]))) {
          best_ratio = ratio;
          leave = i;
          leave_at_upper = false;
        }
      } else {
        const double ub = upper[basis[i]];
        if (!std::isfinite(ub)) continue;
        const double ratio = (ub - rhs[i]) / (-step);
        if (ratio < best_ratio ||
            (ratio == best_ratio &&
             (leave == kNone || basis[i] < basis[leave]))) {
          best_ratio = ratio;
          leave = i;
          leave_at_upper = true;
        }
      }
    }
    if (leave == kNone && !std::isfinite(best_ratio))
      return PhaseResult::kUnbounded;

#if defined(SHAREGRID_AUDIT)
    const double objective_before = bland ? objective_value(costs) : 0.0;
#endif

    if (leave == kNone) {
      // Bound flip: the entering variable reaches its opposite bound before
      // any basic variable hits one. Move it there — O(m), no pivot, basis
      // and reduced costs unchanged.
      for (std::size_t i = 0; i < m; ++i) rhs[i] -= dir * col[i] * best_ratio;
      at_upper[enter] ^= 1;
      ++stats.bound_flips;
      SHAREGRID_AUDIT_HOOK(audit::audit_basic_values(rhs, basis, upper,
                                                     /*tol=*/1e-6));
      SHAREGRID_AUDIT_HOOK(if (bland) audit::audit_bland_progress(
                               objective_before, objective_value(costs),
                               /*tol=*/1e-6));
      continue;
    }

    // Basis change: move every basic value by its share of the step, file
    // the leaving variable at whichever bound it hit, then append the eta
    // for the pivot. Row `leave` afterwards represents the entering
    // variable at its post-step value.
    const std::size_t leaving = basis[leave];
    for (std::size_t i = 0; i < m; ++i) rhs[i] -= dir * col[i] * best_ratio;
    const double enter_value =
        (at_upper[enter] ? upper[enter] : 0.0) + dir * best_ratio;
    at_upper[leaving] = leave_at_upper ? 1 : 0;
    at_upper[enter] = 0;
    const double dq = d[enter];
    etas.push(leave, col);
    basis[leave] = enter;
    rhs[leave] = enter_value;
    ++stats.pivots;
    ++pivots_since_refactor;

    if (dq != 0.0) {
      // rho := e_leave B^-1 including the new eta — the normalized pivot row
      // of the dense elimination — feeds the price update.
      rho.assign(m, 0.0);
      rho[leave] = 1.0;
      etas.btran(rho);
      price_update(dq);
    }
    d[enter] = 0.0;

    if (opt.refactor_interval > 0 &&
        pivots_since_refactor >= opt.refactor_interval) {
      refactorize();
      compute_reduced_costs(costs, d);
    }

    // Basis coherence after every pivot, the incremental-pricing identity,
    // plus the Bland anti-cycling guarantee (objective never regresses once
    // Bland pricing is active).
    SHAREGRID_AUDIT_HOOK(audit_basis_coherence(/*tol=*/1e-6));
    SHAREGRID_AUDIT_HOOK(audit::audit_basic_values(rhs, basis, upper,
                                                   /*tol=*/1e-6));
    SHAREGRID_AUDIT_HOOK(audit_pricing_sync(costs, /*tol=*/1e-6));
    SHAREGRID_AUDIT_HOOK(if (bland) audit::audit_bland_progress(
                             objective_before, objective_value(costs),
                             /*tol=*/1e-6));
  }
  return PhaseResult::kIterationLimit;
}

/// Dual simplex: restores primal feasibility of the cached basis after an
/// RHS or bound change, preserving dual feasibility (reduced costs <= 0 on
/// at-lower columns, >= 0 on at-upper columns) so the follow-up primal
/// phase 2 terminates in few — typically zero — pivots. A basic variable may
/// now violate either bound: one below its lower bound leaves *at* the lower
/// bound, one above a finite upper leaves at the upper, and the entering
/// ratio test runs over the correspondingly signed row (one BTRAN per
/// iteration reads the row off the eta file). Returns false when the basis
/// is not dual feasible for the new costs (the objective moved), when a
/// violated row has no admissible entering column (the new program may be
/// genuinely infeasible — let the cold solve decide), or when the pivot
/// budget runs out; callers then fall back to the full two-phase method.
/// Precondition: prep, upper, and the basic values reflect the *new*
/// problem (rhs possibly out of bounds).
bool SolveContext::Impl::dual_recover(const SolverOptions& opt) {
  const std::size_t m = prep.num_rows;
  const std::size_t limit = prep.first_artificial;
  compute_reduced_costs(prep.costs, d);
  for (std::size_t j = 0; j < limit; ++j) {
    // Fixed variables (upper == 0) can never move off their bound, so their
    // reduced cost carries no dual-feasibility information — primal pricing
    // skips them for the same reason. The scheduler programs are full of
    // them (zero-width [0, 0] boxes for principal pairs with no agreement).
    if (upper[j] == 0.0) continue;
    if (at_upper[j] ? d[j] < -kTolerance : d[j] > kTolerance)
      return false;
  }

  const std::size_t budget = std::max<std::size_t>(32, 4 * m);
  for (std::size_t iter = 0; iter < budget; ++iter) {
    // Leaving row: largest bound violation (tolerance scaled to the data).
    double scale = 1.0;
    for (std::size_t i = 0; i < m; ++i)
      scale = std::max(scale, std::abs(rhs[i]));
    const double feas_tol = kTolerance * scale;
    std::size_t leave = kNone;
    bool above_upper = false;
    double worst = feas_tol;
    for (std::size_t i = 0; i < m; ++i) {
      if (-rhs[i] > worst) {
        worst = -rhs[i];
        leave = i;
        above_upper = false;
      }
      const double ub = upper[basis[i]];
      if (std::isfinite(ub) && rhs[i] - ub > worst) {
        worst = rhs[i] - ub;
        leave = i;
        above_upper = true;
      }
    }
    if (leave == kNone) return true;  // primal feasible again

    // Entering column: dual ratio test over the leaving row, read by one
    // BTRAN of its unit vector then a sparse dot per column. With the row
    // negated when the basic variable sits *above* its upper bound,
    // admissible columns are those whose movement off their own bound raises
    // (case below-lower) or lowers (case above-upper) the basic value, and
    // the minimized ratio d_j / alpha_j is >= 0 for both bound statuses —
    // the minimum keeps every reduced cost on its dual-feasible side after
    // the pivot. The pivot-size guard mirrors the primal ratio test:
    // candidates are measured against the row's largest magnitude so
    // cancellation noise cannot be chosen.
    const double row_sign = above_upper ? -1.0 : 1.0;
    rho.assign(m, 0.0);
    rho[leave] = 1.0;
    etas.btran(rho);
    pr.resize(limit);
    double row_max = 0.0;
    for (std::size_t j = 0; j < limit; ++j) {
      pr[j] = column_dot(prep, j, rho);
      row_max = std::max(row_max, std::abs(pr[j]));
    }
    const double drop = kTolerance * row_max;
    std::size_t enter = kNone;
    double best_ratio = std::numeric_limits<double>::infinity();
    for (std::size_t j = 0; j < limit; ++j) {
      if (j == basis[leave] || upper[j] == 0.0) continue;
      const double alpha = row_sign * pr[j];
      if (at_upper[j] ? alpha <= drop : alpha >= -drop) continue;
      const double ratio = d[j] / alpha;
      // Strict < keeps the lowest-index column on exact ties (Bland-style),
      // and the budget bounds any residual degenerate cycling.
      if (ratio < best_ratio) {
        best_ratio = ratio;
        enter = j;
      }
    }
    if (enter == kNone) return false;

    // The leaving variable lands exactly on the bound it violated; every
    // other basic value moves by its share of the entering step.
    const std::size_t leaving = basis[leave];
    const double target = above_upper ? upper[leaving] : 0.0;
    const double dir = at_upper[enter] ? -1.0 : 1.0;
    const double step = (rhs[leave] - target) / (pr[enter] * dir);
    ftran_column(enter, col);
    for (std::size_t i = 0; i < m; ++i) rhs[i] -= dir * col[i] * step;
    const double enter_value =
        (at_upper[enter] ? upper[enter] : 0.0) + dir * step;
    at_upper[leaving] = above_upper ? 1 : 0;
    at_upper[enter] = 0;
    const double dq = d[enter];
    etas.push(leave, col);
    basis[leave] = enter;
    rhs[leave] = enter_value;
    ++stats.pivots;
    ++pivots_since_refactor;
    if (dq != 0.0) {
      rho.assign(m, 0.0);
      rho[leave] = 1.0;
      etas.btran(rho);
      price_update(dq);
    }
    d[enter] = 0.0;
    if (opt.refactor_interval > 0 &&
        pivots_since_refactor >= opt.refactor_interval) {
      refactorize();
      compute_reduced_costs(prep.costs, d);
    }
    // The basis stays coherent throughout (eta file, maintained d); basic
    // values may sit outside their bounds until recovery completes, so the
    // full warm-entry audit runs only after this loop returns.
    SHAREGRID_AUDIT_HOOK(audit_pricing_sync(prep.costs, /*tol=*/1e-6));
  }
  return false;
}

WarmOutcome SolveContext::Impl::try_warm(const Problem& problem,
                                         const SolverOptions& opt,
                                         Solution& out) {
  const std::size_t m = prep.num_rows;
  const std::size_t n = prep.num_vars;

  // Changed structural columns (exact coefficient compare). For the
  // schedulers this is empty or just the theta column, whose coefficients
  // carry the demand.
  changed.clear();
  changed_mark.assign(n, 0);
  for (std::size_t k = 0; k < prep.coeffs.size(); ++k) {
    if (incoming.coeffs[k] == prep.coeffs[k]) continue;
    const std::uint32_t c = prep.term_var[k];
    if (changed_mark[c] == 0) {
      changed_mark[c] = 1;
      changed.push_back(c);
    }
  }

  row_of.assign(prep.cols, kNone);
  for (std::size_t r = 0; r < m; ++r) row_of[basis[r]] = r;
  std::size_t changed_basic = 0;
  for (const std::uint32_t c : changed)
    if (row_of[c] != kNone) ++changed_basic;
  if (changed_basic > max_repairs(m)) return WarmOutcome::kTooManyRepairs;

  // Repair changed basic columns sequentially: FTRAN the *new* column
  // through the current file (which already includes earlier repairs) and
  // re-pivot on its own basic row — one extra eta each, exactly the
  // basis-change rank-1 update. Changed *nonbasic* columns need no work at
  // all: nothing stores their basis image, so the next FTRAN re-derives it
  // from the new matrix. Basic values are recomputed wholesale below, so the
  // repairs are factorization-only.
  for (const std::uint32_t c : changed) {
    const std::size_t r = row_of[c];
    if (r == kNone) continue;
    scatter_column(incoming, c, repaired);
    etas.ftran(repaired);
    double col_scale = 0.0;
    for (const double v : repaired)
      col_scale = std::max(col_scale, std::abs(v));
    if (!(std::abs(repaired[r]) > kTolerance * col_scale) ||
        col_scale == 0.0) {
      // Unrepairable within the pivot-size guard; the eta file may already
      // carry earlier repairs, so the cache is dead either way.
      valid = false;
      return WarmOutcome::kRepairRejected;
    }
    etas.push(r, repaired);
    ++stats.pivots;
    ++pivots_since_refactor;
  }

  // Refresh the (possibly drifted) finite bound widths; the finite pattern
  // is layout-checked, so only values move here. A nonbasic-at-upper
  // variable simply tracks its new bound.
  for (std::size_t j = 0; j < n; ++j) upper[j] = incoming.upper[j];

  // New basic values from the new right-hand side and bounds: one sparse
  // pass plus one FTRAN (compute_basic_values), against the dense engine's
  // O(m^2) multiply by the stored B^-1 image.
  compute_basic_values(incoming, new_rhs);
  double scale = 0.0;
  for (std::size_t r = 0; r < m; ++r)
    scale = std::max(scale, std::abs(new_rhs[r]));
  const double feas_tol = kTolerance * (1.0 + scale);
  bool primal_infeasible = false;
  for (std::size_t r = 0; r < m; ++r) {
    if (new_rhs[r] < -feas_tol) primal_infeasible = true;
    const double ub = upper[basis[r]];
    if (std::isfinite(ub) && new_rhs[r] > ub + feas_tol)
      primal_infeasible = true;
  }
  rhs = new_rhs;

  // Commit: the cached factorization now reflects the incoming problem.
  std::swap(prep, incoming);

  if (primal_infeasible) {
    // The cached basis is primal infeasible for this window's right-hand
    // side or bounds. The previous optimum is still *dual* feasible whenever
    // the objective did not move (true for every scheduler stage: the costs
    // are structural), so a few dual simplex pivots usually restore primal
    // feasibility far cheaper than a cold phase 1+2. Only when that also
    // fails does the solve fall back to phase 1.
    if (!dual_recover(opt)) {
      valid = false;
      std::swap(prep, incoming);  // cold() expects the new data in incoming
      return WarmOutcome::kRhsRejected;
    }
    ++stats.dual_recoveries;
  }
  for (std::size_t r = 0; r < m; ++r) {
    rhs[r] = std::max(0.0, rhs[r]);
    const double ub = upper[basis[r]];
    if (std::isfinite(ub)) rhs[r] = std::min(rhs[r], ub);
  }
  SHAREGRID_AUDIT_HOOK(
      audit::audit_no_artificial_basic(basis, prep.first_artificial));
  SHAREGRID_AUDIT_HOOK(audit_basis_coherence(/*tol=*/1e-6));
  SHAREGRID_AUDIT_HOOK(audit::audit_basic_values(rhs, basis, upper,
                                                 /*tol=*/1e-6));

  ++warm_streak;
  const PhaseResult r = run_simplex(prep.costs, prep.first_artificial, opt);
  if (r == PhaseResult::kIterationLimit) {
    out.status = Status::kIterationLimit;
    valid = false;
    return WarmOutcome::kWarm;
  }
  if (r == PhaseResult::kUnbounded) {
    out.status = Status::kUnbounded;
    valid = false;
    return WarmOutcome::kWarm;
  }
  extract(problem, out);
  out.warm_started = true;
  return WarmOutcome::kWarm;
}

void SolveContext::Impl::cold(const Problem& problem, const SolverOptions& opt,
                              Solution& out) {
  std::swap(prep, incoming);
  valid = false;
  basis_clean = false;
  warm_streak = 0;

  const std::size_t n = prep.num_vars;
  const std::size_t m = prep.num_rows;
  rhs = prep.rhs;
  basis.assign(m, kNone);
  upper.assign(prep.cols, kInfinity);
  for (std::size_t j = 0; j < n; ++j) upper[j] = prep.upper[j];
  at_upper.assign(prep.cols, 0);
  // The initial basis is the per-row identity (slack or artificial), so the
  // eta file starts empty: B = I, FTRAN/BTRAN are no-ops.
  for (std::size_t i = 0; i < m; ++i) basis[i] = prep.unit_col[i];
  etas.clear();
  pivots_since_refactor = 0;
  pinned_row.assign(m, 0);
  any_pinned = false;
  SHAREGRID_AUDIT_HOOK(audit_basis_coherence(/*tol=*/1e-6));
  SHAREGRID_AUDIT_HOOK(audit::audit_basic_values(rhs, basis, upper,
                                                 /*tol=*/1e-6));

  // Phase 1: drive artificials to zero (maximize -sum of artificials).
  bool clean = true;
  if (prep.num_artificial > 0) {
    phase1_costs.assign(prep.cols, 0.0);
    for (std::size_t j = prep.first_artificial; j < prep.cols; ++j)
      phase1_costs[j] = -1.0;
    const PhaseResult r = run_simplex(phase1_costs, prep.cols, opt);
    if (r == PhaseResult::kIterationLimit) {
      out.status = Status::kIterationLimit;
      return;
    }
    if (objective_value(phase1_costs) < -1e-7) {
      out.status = Status::kInfeasible;
      return;
    }
    // Pivot zero-level artificials out of the basis where possible so they
    // cannot re-enter through rounding noise in phase 2. The row is read off
    // the eta file by one BTRAN; candidate columns are scanned by sparse dot
    // and the chosen one FTRANed for the pivot mechanics.
    for (std::size_t i = 0; i < m; ++i) {
      if (basis[i] < prep.first_artificial) continue;
      rho.assign(m, 0.0);
      rho[i] = 1.0;
      etas.btran(rho);
      bool pivoted = false;
      for (std::size_t j = 0; j < prep.first_artificial; ++j) {
        const double p = column_dot(prep, j, rho);
        if (std::abs(p) > 1e-7) {
          // Swap the zero-level artificial for column j: the artificial
          // leaves at 0, so the step length is the (tiny) residual level
          // over the pivot element, applied with the same bounded-pivot
          // mechanics as the ratio test — j may be nonbasic at either
          // bound, and enters at (its bound) + dir * step.
          ftran_column(j, col);
          if (col[i] == 0.0) continue;  // pinned-row/drift mismatch: skip
          const double dir = at_upper[j] ? -1.0 : 1.0;
          const double step = rhs[i] / (dir * col[i]);
          for (std::size_t rr = 0; rr < m; ++rr)
            rhs[rr] -= dir * col[rr] * step;
          const double enter_value =
              (at_upper[j] ? upper[j] : 0.0) + dir * step;
          at_upper[j] = 0;
          etas.push(i, col);
          basis[i] = j;
          rhs[i] = enter_value;
          ++stats.pivots;
          ++pivots_since_refactor;
          pivoted = true;
          break;
        }
      }
      if (!pivoted) {
        // No pivot column: every non-artificial entry is below threshold, so
        // the row reads 0*y ~= 0 — redundant within tolerance. The
        // artificial stays basic at level zero and is locked out of phase 2
        // pricing, but the sub-threshold residue must be neutralized:
        // phase-2 steps would multiply it by rhs-scale magnitudes and
        // silently leak value into the basic artificial, i.e. return
        // kOptimal for a point that violates the original constraint.
        // Pinning zeroes the row out of every future column image (and this
        // basis out of the warm cache, clean = false).
        pinned_row[i] = 1;
        any_pinned = true;
        rhs[i] = 0.0;
        clean = false;
      }
    }
  }

  // Phase 2: the real objective over structural columns only.
  const PhaseResult r = run_simplex(prep.costs, prep.first_artificial, opt);
  if (r == PhaseResult::kIterationLimit) {
    out.status = Status::kIterationLimit;
    return;
  }
  if (r == PhaseResult::kUnbounded) {
    out.status = Status::kUnbounded;
    return;
  }
  extract(problem, out);
  valid = true;
  basis_clean = clean;
}

void SolveContext::Impl::extract(const Problem& problem, Solution& out) {
  const std::size_t n = prep.num_vars;
  out.status = Status::kOptimal;
  out.values.assign(n, 0.0);
  for (std::size_t j = 0; j < n; ++j)
    if (at_upper[j]) out.values[j] = prep.upper[j];
  for (std::size_t i = 0; i < prep.num_rows; ++i) {
    const std::size_t b = basis[i];
    if (b >= n) continue;
    double v = std::max(0.0, rhs[i]);
    if (std::isfinite(prep.upper[b])) v = std::min(v, prep.upper[b]);
    out.values[b] = v;
  }
  const auto& lo = problem.lower_bounds();
  double objective = 0.0;
  for (std::size_t j = 0; j < n; ++j) {
    out.values[j] += lo[j];
    objective += problem.objective()[j] * out.values[j];
  }
  out.objective = objective;
  out.basis = basis;
  // The solution handed back must satisfy the *original* problem — warm or
  // cold — not just the internal shifted/standard-form representation.
  SHAREGRID_AUDIT_HOOK(audit::audit_lp_solution(problem, out,
                                                /*tol=*/1e-5));
}

Solution SolveContext::Impl::run(const Problem& problem,
                                 const SolverOptions& opt) {
  ++stats.solves;
  prepare(problem, incoming);
  Solution out;
  bool warm_done = false;
  // Every counter increments exactly here (one per solve at most), so a
  // failed warm attempt can never double-count across its internal exits.
  if (valid && basis_clean && opt.warm_refresh_interval > 0) {
    if (!prep.layout_matches(incoming)) {
      ++stats.structure_misses;
    } else if (warm_streak >= opt.warm_refresh_interval) {
      ++stats.refreshes;
    } else {
      switch (try_warm(problem, opt, out)) {
        case WarmOutcome::kWarm:
          ++stats.warm_solves;
          warm_done = true;
          break;
        case WarmOutcome::kTooManyRepairs:
          ++stats.structure_misses;
          break;
        case WarmOutcome::kRepairRejected:
          ++stats.repair_rejections;
          break;
        case WarmOutcome::kRhsRejected:
          ++stats.rhs_rejections;
          break;
      }
    }
  }
  if (!warm_done) {
    cold(problem, opt, out);
    ++stats.cold_solves;
  }
  SHAREGRID_AUDIT_HOOK(audit::audit_solve_stats(stats));
  return out;
}

SolveContext::SolveContext() : impl_(std::make_unique<Impl>()) {}
SolveContext::~SolveContext() = default;
SolveContext::SolveContext(SolveContext&&) noexcept = default;
SolveContext& SolveContext::operator=(SolveContext&&) noexcept = default;

Solution SolveContext::solve(const Problem& problem,
                             const SolverOptions& options) {
  return impl_->run(problem, options);
}

const SolveStats& SolveContext::stats() const { return impl_->stats; }

Solution solve(const Problem& problem, const SolverOptions& options) {
  SolveContext context;
  return context.solve(problem, options);
}

}  // namespace sharegrid::lp
