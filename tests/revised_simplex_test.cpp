// Equivalence suite for the sparse revised simplex (lp/solve_context.cpp).
//
// The production engine keeps B^-1 as a product-form eta file over CSC column
// storage; this file re-implements the *dense tableau* engine it replaced
// (explicit B^-1 * A maintained by full-row elimination) as a reference, and
// drives both over randomly generated bounded instances. Storing each eta as
// the FTRAN image of its entering column makes eta application replicate
// dense elimination float-for-float, so with refactorization disabled the two
// engines must walk the *same pivot sequence* — the suite asserts pivot
// counts, bound-flip counts, and final bases exactly, and plans to 1e-9.
// Refactorization intentionally reorders eliminations (partial pivoting, row
// permutation), so separate tests bound its drift by objective instead.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstddef>
#include <cstdint>
#include <limits>
#include <vector>

#include "audit/invariant_auditor.hpp"
#include "lp/solve_context.hpp"
#include "util/matrix.hpp"
#include "util/rng.hpp"

namespace sharegrid::lp {
namespace {

constexpr std::size_t kNone = static_cast<std::size_t>(-1);

// ---------------------------------------------------------------------------
// Dense reference engine: the pre-revised-simplex tableau solver, cold path
// only (warm equivalence is covered by solving each instance fresh). Pricing,
// ratio test, tie-breaks, bound flips, phase-1 artificial handling, and
// redundancy clearing are kept identical to the production engine so the two
// trajectories are comparable pivot-for-pivot.
// ---------------------------------------------------------------------------

struct DenseTableau {
  Matrix a;                        // m x cols, B^-1 * A_std
  std::vector<double> rhs;         // m, value of the basic var in each row
  std::vector<std::size_t> basis;  // m, column basic in each row
  std::vector<double> upper;       // per column; kInfinity when unbounded
  std::vector<std::uint8_t> at_upper;

  std::size_t rows() const { return rhs.size(); }
  std::size_t cols() const { return a.cols(); }
};

struct DenseResult {
  Status status = Status::kInfeasible;
  double objective = 0.0;
  std::vector<double> values;
  std::vector<std::size_t> basis;
  std::uint64_t pivots = 0;
  std::uint64_t bound_flips = 0;
};

void dense_pivot(DenseTableau& t, std::size_t row, std::size_t col) {
  const std::size_t cols = t.cols();
  double* pr = t.a.row(row);
  const double p = pr[col];
  const double inv = 1.0 / p;
  for (std::size_t j = 0; j < cols; ++j) pr[j] *= inv;
  pr[col] = 1.0;
  for (std::size_t i = 0; i < t.rows(); ++i) {
    if (i == row) continue;
    double* ri = t.a.row(i);
    const double factor = ri[col];
    if (factor == 0.0) continue;
    for (std::size_t j = 0; j < cols; ++j) ri[j] -= factor * pr[j];
    ri[col] = 0.0;
  }
  t.basis[row] = col;
}

void dense_reduced_costs(const DenseTableau& t, const std::vector<double>& c,
                         std::vector<double>& d) {
  d.assign(c.begin(), c.end());
  for (std::size_t i = 0; i < t.rows(); ++i) {
    const double cb = c[t.basis[i]];
    if (cb == 0.0) continue;
    const double* row = t.a.row(i);
    for (std::size_t j = 0; j < d.size(); ++j) d[j] -= cb * row[j];
  }
}

double dense_objective(const DenseTableau& t, const std::vector<double>& c) {
  double z = 0.0;
  for (std::size_t i = 0; i < t.rows(); ++i) z += c[t.basis[i]] * t.rhs[i];
  for (std::size_t j = 0; j < t.cols(); ++j)
    if (t.at_upper[j] && c[j] != 0.0) z += c[j] * t.upper[j];
  return z;
}

enum class DensePhase { kOptimal, kUnbounded, kIterationLimit };

// Bounded-variable primal simplex to optimality for @p costs (maximize),
// columns >= col_limit locked out. Incremental pricing with no periodic
// refresh: the production engine refreshes only at refactorization, so with
// refactorization disabled this matches its reduced-cost stream exactly.
DensePhase dense_simplex(DenseTableau& t, const std::vector<double>& costs,
                         std::size_t col_limit, const SolverOptions& opt,
                         std::vector<double>& d, std::vector<double>& col,
                         DenseResult& stats) {
  dense_reduced_costs(t, costs, d);
  col.resize(t.rows());
  for (std::size_t iter = 0; iter < opt.max_iterations; ++iter) {
    const bool bland = iter >= kBlandAfter;
    std::size_t enter = kNone;
    double best = kTolerance;
    for (std::size_t j = 0; j < col_limit; ++j) {
      const double gain = t.at_upper[j] ? -d[j] : d[j];
      if (gain <= kTolerance || t.upper[j] == 0.0) continue;
      if (bland) {
        enter = j;
        break;
      }
      if (gain > best) {
        best = gain;
        enter = j;
      }
    }
    if (enter == kNone) return DensePhase::kOptimal;
    const double dir = t.at_upper[enter] ? -1.0 : 1.0;

    double col_max = 0.0;
    for (std::size_t i = 0; i < t.rows(); ++i) {
      col[i] = t.a.row(i)[enter];
      col_max = std::max(col_max, std::abs(col[i]));
    }

    const double drop = kTolerance * col_max;
    std::size_t leave = kNone;
    bool leave_at_upper = false;
    double best_ratio = t.upper[enter];
    for (std::size_t i = 0; i < t.rows(); ++i) {
      if (std::abs(col[i]) <= drop) continue;
      const double step = dir * col[i];
      if (step > 0.0) {
        const double ratio = t.rhs[i] / step;
        if (ratio < best_ratio ||
            (ratio == best_ratio &&
             (leave == kNone || t.basis[i] < t.basis[leave]))) {
          best_ratio = ratio;
          leave = i;
          leave_at_upper = false;
        }
      } else {
        const double ub = t.upper[t.basis[i]];
        if (!std::isfinite(ub)) continue;
        const double ratio = (ub - t.rhs[i]) / (-step);
        if (ratio < best_ratio ||
            (ratio == best_ratio &&
             (leave == kNone || t.basis[i] < t.basis[leave]))) {
          best_ratio = ratio;
          leave = i;
          leave_at_upper = true;
        }
      }
    }
    if (leave == kNone && !std::isfinite(best_ratio))
      return DensePhase::kUnbounded;

    if (leave == kNone) {
      for (std::size_t i = 0; i < t.rows(); ++i)
        t.rhs[i] -= dir * col[i] * best_ratio;
      t.at_upper[enter] ^= 1;
      ++stats.bound_flips;
      continue;
    }

    const std::size_t leaving = t.basis[leave];
    for (std::size_t i = 0; i < t.rows(); ++i)
      t.rhs[i] -= dir * col[i] * best_ratio;
    const double enter_value =
        (t.at_upper[enter] ? t.upper[enter] : 0.0) + dir * best_ratio;
    t.at_upper[leaving] = leave_at_upper ? 1 : 0;
    t.at_upper[enter] = 0;
    dense_pivot(t, leave, enter);
    t.rhs[leave] = enter_value;
    ++stats.pivots;

    const double dq = d[enter];
    if (dq != 0.0) {
      const double* pr = t.a.row(leave);
      for (std::size_t j = 0; j < d.size(); ++j) d[j] -= dq * pr[j];
    }
    d[enter] = 0.0;
  }
  return DensePhase::kIterationLimit;
}

DenseResult dense_solve(const Problem& problem, const SolverOptions& opt) {
  DenseResult out;
  PreparedProblem prep;
  prepare(problem, prep);

  const std::size_t n = prep.num_vars;
  const std::size_t m = prep.num_rows;
  DenseTableau t;
  t.a.assign(m, prep.cols, 0.0);
  t.rhs = prep.rhs;
  t.basis.assign(m, kNone);
  t.upper.assign(prep.cols, kInfinity);
  for (std::size_t j = 0; j < n; ++j) t.upper[j] = prep.upper[j];
  t.at_upper.assign(prep.cols, 0);
  for (std::size_t i = 0; i < m; ++i) {
    double* row = t.a.row(i);
    for (std::uint32_t k = prep.row_begin[i]; k < prep.row_begin[i + 1]; ++k)
      row[prep.term_var[k]] += prep.coeffs[k];
    if (prep.slack_col[i] != kNoColumn)
      row[prep.slack_col[i]] = prep.slack_sign[i];
    if (prep.art_col[i] != kNoColumn) row[prep.art_col[i]] = 1.0;
    t.basis[i] = prep.unit_col[i];
  }

  std::vector<double> d;
  std::vector<double> col;
  std::vector<double> phase1_costs;
  if (prep.num_artificial > 0) {
    phase1_costs.assign(prep.cols, 0.0);
    for (std::size_t j = prep.first_artificial; j < prep.cols; ++j)
      phase1_costs[j] = -1.0;
    const DensePhase r =
        dense_simplex(t, phase1_costs, prep.cols, opt, d, col, out);
    if (r == DensePhase::kIterationLimit) {
      out.status = Status::kIterationLimit;
      return out;
    }
    if (dense_objective(t, phase1_costs) < -1e-7) {
      out.status = Status::kInfeasible;
      return out;
    }
    for (std::size_t i = 0; i < m; ++i) {
      if (t.basis[i] < prep.first_artificial) continue;
      bool pivoted = false;
      for (std::size_t j = 0; j < prep.first_artificial; ++j) {
        const double p = t.a.row(i)[j];
        if (std::abs(p) > 1e-7) {
          const double dir = t.at_upper[j] ? -1.0 : 1.0;
          const double step = t.rhs[i] / (dir * p);
          for (std::size_t rr = 0; rr < m; ++rr) col[rr] = t.a.row(rr)[j];
          for (std::size_t rr = 0; rr < m; ++rr)
            t.rhs[rr] -= dir * col[rr] * step;
          const double enter_value =
              (t.at_upper[j] ? t.upper[j] : 0.0) + dir * step;
          t.at_upper[j] = 0;
          dense_pivot(t, i, j);
          t.rhs[i] = enter_value;
          ++out.pivots;
          pivoted = true;
          break;
        }
      }
      if (!pivoted) {
        double* row = t.a.row(i);
        for (std::size_t j = 0; j < prep.first_artificial; ++j) row[j] = 0.0;
        t.rhs[i] = 0.0;
      }
    }
  }

  const DensePhase r =
      dense_simplex(t, prep.costs, prep.first_artificial, opt, d, col, out);
  if (r == DensePhase::kIterationLimit) {
    out.status = Status::kIterationLimit;
    return out;
  }
  if (r == DensePhase::kUnbounded) {
    out.status = Status::kUnbounded;
    return out;
  }

  out.status = Status::kOptimal;
  out.values.assign(n, 0.0);
  for (std::size_t j = 0; j < n; ++j)
    if (t.at_upper[j]) out.values[j] = prep.upper[j];
  for (std::size_t i = 0; i < m; ++i) {
    const std::size_t b = t.basis[i];
    if (b >= n) continue;
    double v = std::max(0.0, t.rhs[i]);
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
  out.basis = t.basis;
  return out;
}

// ---------------------------------------------------------------------------
// Random bounded instances. Deterministic (Rng per D4): the same seed always
// yields the same instance, so any divergence reproduces exactly.
// ---------------------------------------------------------------------------

// Rows are anchored to a hidden feasible point x*: each right-hand side is
// the row's value at x* plus (<=) or minus (>=) slack, or exactly it (==).
// Without the anchor the probability that m random rows are simultaneously
// satisfiable collapses as n grows and the sweep degenerates into a phase-1
// infeasibility test. A small fraction of instances (the `spoil` branch)
// still gets a detached right-hand side so both engines' infeasible and
// unbounded paths stay compared too.
Problem random_problem(Rng& rng, std::size_t n) {
  Problem p(n, Sense::kMaximize);
  std::vector<double> anchor(n, 0.0);
  for (std::size_t j = 0; j < n; ++j) {
    const double lo = rng.uniform() < 0.3 ? rng.uniform(0.0, 2.0) : 0.0;
    const double shape = rng.uniform();
    double hi;
    if (shape < 0.15) {
      hi = lo;  // fixed variable: zero-width box, must never enter
    } else if (shape < 0.6) {
      hi = lo + rng.uniform(0.5, 5.0);
    } else {
      hi = kInfinity;
    }
    p.set_bounds(j, lo, hi);
    p.set_objective(j, rng.uniform() < 0.2 ? rng.uniform(-2.0, 0.0)
                                           : rng.uniform(0.1, 3.0));
    const double reach = std::isfinite(hi) ? hi - lo : 3.0;
    anchor[j] = lo + rng.uniform(0.0, std::min(reach, 3.0));
  }

  const std::size_t m = n / 2 + 2;
  // Spoil at most one row in a minority of instances — per-row spoiling
  // would make nearly every large instance infeasible.
  const std::size_t spoil_row =
      rng.uniform() < 0.15 ? static_cast<std::size_t>(rng() % m) : m;
  std::vector<char> used(n, 0);
  for (std::size_t i = 0; i < m; ++i) {
    const std::size_t width = std::min<std::size_t>(6, n);
    std::size_t k =
        2 + static_cast<std::size_t>(rng.uniform() * double(width - 1));
    k = std::min(k, n);
    std::fill(used.begin(), used.end(), 0);
    std::vector<std::pair<std::size_t, double>> terms;
    double at_anchor = 0.0;
    while (terms.size() < k) {
      const std::size_t var = static_cast<std::size_t>(rng() % n);
      if (used[var]) continue;
      used[var] = 1;
      const double coeff = rng.uniform() < 0.2 ? rng.uniform(-3.0, -0.5)
                                               : rng.uniform(0.5, 3.0);
      at_anchor += coeff * anchor[var];
      terms.emplace_back(var, coeff);
    }
    const bool spoil = i == spoil_row;
    const double kind = rng.uniform();
    if (kind < 0.65) {
      const double rhs = spoil ? rng.uniform(-6.0, 0.0)
                               : at_anchor + rng.uniform(0.0, 3.0);
      p.add_constraint(std::move(terms), Relation::kLessEq, rhs);
    } else if (kind < 0.9) {
      const double rhs = spoil ? at_anchor + rng.uniform(4.0, 9.0)
                               : at_anchor - rng.uniform(0.0, 3.0);
      p.add_constraint(std::move(terms), Relation::kGreaterEq, rhs);
    } else {
      const double rhs =
          spoil ? at_anchor + rng.uniform(3.0, 7.0) : at_anchor;
      p.add_constraint(std::move(terms), Relation::kEqual, rhs);
    }
  }
  // Aggregate capacity row: keeps most instances bounded so the sweep spends
  // its pivots on optimality, not on detecting unboundedness.
  if (rng.uniform() < 0.9) {
    double total = 0.0;
    for (const double v : anchor) total += v;
    std::vector<std::pair<std::size_t, double>> all;
    for (std::size_t j = 0; j < n; ++j) all.emplace_back(j, 1.0);
    p.add_constraint(std::move(all), Relation::kLessEq,
                     total + rng.uniform(0.0, double(n) / 4.0));
  }
  return p;
}

// ---------------------------------------------------------------------------
// Property suite: dense and revised engines agree pivot-for-pivot when
// refactorization is disabled.
// ---------------------------------------------------------------------------

void expect_equivalent(std::size_t n, std::size_t instances,
                       std::uint64_t seed_base) {
  SolverOptions opt;
  opt.refactor_interval = 0;  // identity sweep: no elimination reordering
  std::size_t optimal_count = 0;
  for (std::size_t t = 0; t < instances; ++t) {
    Rng rng(seed_base + t);
    const Problem p = random_problem(rng, n);
    const DenseResult ref = dense_solve(p, opt);

    SolveContext ctx;
    const Solution got = ctx.solve(p, opt);
    ASSERT_EQ(got.status, ref.status) << "n=" << n << " instance=" << t;
    EXPECT_EQ(ctx.stats().pivots, ref.pivots) << "n=" << n << " inst=" << t;
    EXPECT_EQ(ctx.stats().bound_flips, ref.bound_flips)
        << "n=" << n << " inst=" << t;
    if (ref.status != Status::kOptimal) continue;
    ++optimal_count;
    ASSERT_EQ(got.basis, ref.basis) << "n=" << n << " instance=" << t;
    ASSERT_EQ(got.values.size(), ref.values.size());
    for (std::size_t j = 0; j < n; ++j)
      EXPECT_NEAR(got.values[j], ref.values[j], 1e-9)
          << "n=" << n << " instance=" << t << " var=" << j;
    EXPECT_NEAR(got.objective, ref.objective,
                1e-9 * (1.0 + std::abs(ref.objective)));
    EXPECT_NO_THROW(audit::audit_lp_solution(p, got, /*tol=*/1e-5));
  }
  // The sweep is only meaningful if it actually exercises optimal pivoting.
  EXPECT_GE(2 * optimal_count, instances) << "n=" << n;
}

TEST(RevisedSimplex, MatchesDenseReferenceN4) {
  expect_equivalent(4, 40, 0xA400);
}

TEST(RevisedSimplex, MatchesDenseReferenceN16) {
  expect_equivalent(16, 30, 0xB1600);
}

TEST(RevisedSimplex, MatchesDenseReferenceN64) {
  expect_equivalent(64, 12, 0xC6400);
}

// ---------------------------------------------------------------------------
// Refactorization drift: rebuilding the eta file reorders eliminations
// (partial pivoting may permute rows), so trajectories can differ in the last
// ulps — but the optimum must not move and the invariant cross-check
// (audit_eta_consistency in audit builds) must stay quiet.
// ---------------------------------------------------------------------------

TEST(RevisedSimplex, RefactorizationDoesNotMoveTheOptimum) {
  for (std::size_t interval = 1; interval <= 4; ++interval) {
    std::size_t refactored_solves = 0;
    for (std::size_t t = 0; t < 12; ++t) {
      Rng rng(0xD0000 + t);
      const Problem p = random_problem(rng, 24);

      SolverOptions base;
      base.refactor_interval = 0;
      SolveContext plain;
      const Solution ref = plain.solve(p, base);

      SolverOptions churn;
      churn.refactor_interval = interval;
      SolveContext ctx;
      const Solution got = ctx.solve(p, churn);

      ASSERT_EQ(got.status, ref.status) << "interval=" << interval
                                        << " instance=" << t;
      if (ctx.stats().refactorizations > 0) ++refactored_solves;
      if (ref.status != Status::kOptimal) continue;
      EXPECT_NEAR(got.objective, ref.objective,
                  1e-7 * (1.0 + std::abs(ref.objective)))
          << "interval=" << interval << " instance=" << t;
      EXPECT_NO_THROW(audit::audit_lp_solution(p, got, /*tol=*/1e-5));
    }
    EXPECT_GT(refactored_solves, 0u) << "interval=" << interval;
  }
}

// ---------------------------------------------------------------------------
// Warm re-entry across a refactorization boundary: the cached basis the warm
// path re-enters from was (partly) rebuilt by refactorize(), and the warm
// solve itself refactorizes again mid-stream. Counters and answers must both
// survive.
// ---------------------------------------------------------------------------

TEST(RevisedSimplex, WarmReentryAcrossRefactorizationBoundary) {
  // A layout-stable window family (all lower bounds zero, every right-hand
  // side positive, so the prepare() sign-flip pattern never changes between
  // windows): 16 pair-capacity rows, 4 coupling >= rows that force a real
  // phase 1, and a coefficient knob on x_0 to exercise column repair.
  constexpr std::size_t kVars = 32;
  auto build = [](double cap, double floor_rhs, double x0_coeff) {
    Problem p(kVars, Sense::kMaximize);
    for (std::size_t j = 0; j < kVars; ++j) {
      p.set_objective(j, 1.0 + static_cast<double>(j % 7) * 0.3);
      p.set_bounds(j, 0.0, (j % 2 == 0) ? 3.0 : kInfinity);
    }
    for (std::size_t i = 0; i < 16; ++i) {
      const double c0 = (i == 0) ? x0_coeff : 1.0;
      p.add_constraint({{2 * i, c0}, {2 * i + 1, 2.0}}, Relation::kLessEq,
                       cap);
    }
    for (std::size_t g = 0; g < 4; ++g) {
      std::vector<std::pair<std::size_t, double>> terms;
      for (std::size_t j = 8 * g; j < 8 * (g + 1); ++j)
        terms.emplace_back(j, 1.0);
      p.add_constraint(std::move(terms), Relation::kGreaterEq, floor_rhs);
    }
    return p;
  };

  SolverOptions opt;
  opt.refactor_interval = 4;  // force several rebuilds per solve
  SolveContext ctx;
  const Solution cold = ctx.solve(build(4.0, 1.0, 1.0), opt);
  ASSERT_EQ(cold.status, Status::kOptimal);
  ASSERT_GT(ctx.stats().refactorizations, 0u);
  const std::uint64_t refactors_after_cold = ctx.stats().refactorizations;

  // Next window: tighter capacities and floors, and a changed x_0 column —
  // the warm path must repair that column *through the refactored eta file*
  // and recover primal feasibility from the shrunken right-hand sides.
  const Problem second = build(3.7, 0.9, 1.25);
  const Solution warm = ctx.solve(second, opt);
  ASSERT_EQ(warm.status, Status::kOptimal);
  EXPECT_TRUE(warm.warm_started);
  EXPECT_EQ(ctx.stats().warm_solves, 1u);
  EXPECT_GE(ctx.stats().refactorizations, refactors_after_cold);

  // The warm answer must match a from-scratch dense solve of the new window.
  SolverOptions dense_opt;
  dense_opt.refactor_interval = 0;
  const DenseResult ref = dense_solve(second, dense_opt);
  ASSERT_EQ(ref.status, Status::kOptimal);
  EXPECT_NEAR(warm.objective, ref.objective,
              1e-7 * (1.0 + std::abs(ref.objective)));
  EXPECT_NO_THROW(audit::audit_lp_solution(second, warm, /*tol=*/1e-5));
}

// ---------------------------------------------------------------------------
// Bound flips in FTRAN: nonbasic-at-upper columns never materialize in the
// eta file, so the warm path's rhs recompute must subtract them in row space
// *before* the FTRAN. A problem whose optimum is reached through flips, then
// re-solved warm with a tighter capacity, exercises exactly that order.
// ---------------------------------------------------------------------------

TEST(RevisedSimplex, BoundFlipsSurviveWarmRhsRecompute) {
  // max 3x + 2y + z  st  x + y + z <= 2.5, 0 <= each <= 1.
  // Dantzig pricing flips x then y to their upper bounds (flip distance 1
  // beats the row ratio) and pivots z in at 0.5.
  auto build = [](double cap) {
    Problem p(3, Sense::kMaximize);
    p.set_objective(0, 3.0);
    p.set_objective(1, 2.0);
    p.set_objective(2, 1.0);
    for (std::size_t j = 0; j < 3; ++j) p.set_bounds(j, 0.0, 1.0);
    p.add_constraint({{0, 1.0}, {1, 1.0}, {2, 1.0}}, Relation::kLessEq, cap);
    return p;
  };

  SolveContext ctx;
  const Solution cold = ctx.solve(build(2.5));
  ASSERT_EQ(cold.status, Status::kOptimal);
  EXPECT_GE(ctx.stats().bound_flips, 2u);
  EXPECT_NEAR(cold.values[0], 1.0, 1e-9);
  EXPECT_NEAR(cold.values[1], 1.0, 1e-9);
  EXPECT_NEAR(cold.values[2], 0.5, 1e-9);

  // Warm re-solve with a tighter capacity: x and y are still nonbasic at
  // their upper bounds, so compute_basic_values must subtract both columns
  // from the new rhs before running it through the eta file; z's basic value
  // drops to 0.3 without any repair pivots.
  const Solution warm = ctx.solve(build(2.3));
  ASSERT_EQ(warm.status, Status::kOptimal);
  EXPECT_TRUE(warm.warm_started);
  EXPECT_EQ(ctx.stats().warm_solves, 1u);
  EXPECT_NEAR(warm.values[0], 1.0, 1e-9);
  EXPECT_NEAR(warm.values[1], 1.0, 1e-9);
  EXPECT_NEAR(warm.values[2], 0.3, 1e-9);
  EXPECT_NEAR(warm.objective, 5.3, 1e-9);

  // Cross-check against the dense reference on the tightened instance.
  SolverOptions opt;
  opt.refactor_interval = 0;
  const DenseResult ref = dense_solve(build(2.3), opt);
  ASSERT_EQ(ref.status, Status::kOptimal);
  EXPECT_NEAR(warm.objective, ref.objective, 1e-9);
}

}  // namespace
}  // namespace sharegrid::lp
