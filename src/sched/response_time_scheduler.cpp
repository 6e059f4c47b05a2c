#include "sched/response_time_scheduler.hpp"

#include <algorithm>
#include <utility>

#include "lp/solve_context.hpp"
#include "util/assert.hpp"

namespace sharegrid::sched {

using lp::Problem;
using lp::Relation;
using lp::Sense;

namespace {

/// The plan of a window that fails before any window succeeded: nothing
/// admitted, theta 0.
Plan empty_plan(std::size_t n) {
  Plan empty;
  empty.rate = Matrix(n, n, 0.0);
  empty.theta = 0.0;
  return empty;
}

}  // namespace

ResponseTimeScheduler::ResponseTimeScheduler(const core::AgreementGraph& graph,
                                             core::AccessLevels levels,
                                             ResponseTimeOptions options)
    : levels_(std::move(levels)),
      options_(std::move(options)),
      lp_(empty_plan(graph.size()), options_.locality_caps.empty() ? 1 : 2) {
  SHAREGRID_EXPECTS(levels_.size() == graph.size());
  SHAREGRID_EXPECTS(options_.locality_caps.empty() ||
                    options_.locality_caps.size() == graph.size());
  capacities_.reserve(graph.size());
  for (core::PrincipalId k = 0; k < graph.size(); ++k)
    capacities_.push_back(graph.capacity(k));
}

void ResponseTimeScheduler::set_solver_options(
    const lp::SolverOptions& options) {
  const util::MutexLock lock(mutex_);
  lp_.set_options(options);
}

lp::SolveStats ResponseTimeScheduler::solver_stats() const {
  const util::MutexLock lock(mutex_);
  return lp_.stats();
}

Plan ResponseTimeScheduler::plan(const std::vector<double>& raw_demand) const {
  const std::size_t n = capacities_.size();
  SHAREGRID_EXPECTS(raw_demand.size() == n);
  const util::MutexLock lock(mutex_);

  // Clamp demands to 100x the total capacity: far above anything real
  // backlogs reach (so demand *ratios*, which drive the max-min split,
  // survive), yet small enough that theta-row coefficients times the solver
  // tolerance stay orders of magnitude below one request — a raw 1e9
  // "saturated" demand would otherwise leave request-sized noise in the
  // solution, admitting traffic to servers whose true allocation is zero.
  double total_capacity = 0.0;
  for (double v : capacities_) total_capacity += v;
  const double demand_cap = 100.0 * total_capacity + 1.0;
  std::vector<double> demand = raw_demand;
  for (double& d : demand) {
    SHAREGRID_EXPECTS(d >= 0.0);
    d = std::min(d, demand_cap);
  }

  // Variable layout: x_ik at i*n + k, theta at n*n.
  const std::size_t theta_var = n * n;
  auto var = [n](std::size_t i, std::size_t k) { return i * n + k; };

  auto build = [&](bool with_floors) {
    Problem p(n * n + 1, Sense::kMaximize);
    // Per-pair entitlement ceilings: x_ik <= EM(i,k) + EO(i,k). The
    // mandatory guarantee is enforced on each principal's *total* admitted
    // rate below, not per pair: a per-pair floor (the paper's literal
    // constraint) can force requests onto a remote server even when the
    // principal's own server could absorb them, needlessly displacing other
    // principals (see DESIGN.md D1).
    // These n² boxes never become tableau rows: the bounded-variable ratio
    // test handles them implicitly (DESIGN.md D9), and the many zero-width
    // boxes — pairs with no entitlement — are fixed variables the solver
    // skips outright. Entitlement drift between windows is a data-only
    // rewrite, so it stays on the warm path.
    for (std::size_t i = 0; i < n; ++i) {
      for (std::size_t k = 0; k < n; ++k) {
        const double em = levels_.mandatory_entitlement(i, k);
        const double eo = levels_.optional_entitlement(i, k);
        p.set_bounds(var(i, k), 0.0, em + eo);
      }
    }
    p.set_bounds(theta_var, 0.0, 1.0);
    // Mandatory floors: sum_k x_ik >= min(MC_i, n_i) — the agreement lower
    // bound, clipped to available demand (the paper's "drop the lower bound
    // if the queue is not large enough").
    if (with_floors) {
      for (std::size_t i = 0; i < n; ++i) {
        const double floor = std::min(levels_.mandatory_capacity[i], demand[i]);
        if (floor <= 0.0) continue;
        std::vector<std::pair<std::size_t, double>> terms;
        for (std::size_t k = 0; k < n; ++k) terms.emplace_back(var(i, k), 1.0);
        p.add_constraint(std::move(terms), Relation::kGreaterEq,
                         floor * (1.0 - 1e-9));
      }
    }

    // Server capacity: sum_i x_ik <= V_k.
    for (std::size_t k = 0; k < n; ++k) {
      std::vector<std::pair<std::size_t, double>> terms;
      for (std::size_t i = 0; i < n; ++i) terms.emplace_back(var(i, k), 1.0);
      p.add_constraint(std::move(terms), Relation::kLessEq, capacities_[k]);
    }
    // Queue limits: sum_k x_ik <= n_i.
    for (std::size_t i = 0; i < n; ++i) {
      std::vector<std::pair<std::size_t, double>> terms;
      for (std::size_t k = 0; k < n; ++k) terms.emplace_back(var(i, k), 1.0);
      p.add_constraint(std::move(terms), Relation::kLessEq, demand[i]);
    }
    // Locality caps: sum_i x_ik <= c_k.
    if (!options_.locality_caps.empty()) {
      for (std::size_t k = 0; k < n; ++k) {
        std::vector<std::pair<std::size_t, double>> terms;
        for (std::size_t i = 0; i < n; ++i)
          terms.emplace_back(var(i, k), 1.0);
        p.add_constraint(std::move(terms), Relation::kLessEq,
                         options_.locality_caps[k]);
      }
    }
    // Theta definition: sum_k x_ik >= theta * n_i for demanding principals.
    for (std::size_t i = 0; i < n; ++i) {
      if (demand[i] <= 0.0) continue;
      std::vector<std::pair<std::size_t, double>> terms;
      for (std::size_t k = 0; k < n; ++k) terms.emplace_back(var(i, k), 1.0);
      terms.emplace_back(theta_var, -demand[i]);
      p.add_constraint(std::move(terms), Relation::kGreaterEq, 0.0);
    }
    return p;
  };

  // Stage 1: maximize theta. Mandatory floors can conflict with locality
  // caps; when the floored program reaches no optimum, a second attempt
  // drops them (best effort). Each program solves through its own
  // warm-start context: successive windows share the program layout, so the
  // previous optimal basis usually re-enters phase 2 directly.
  auto stage1 = [&](std::size_t attempt) {
    Problem p1 = build(attempt == 0);
    p1.set_objective(theta_var, 1.0);
    return p1;
  };

  // Stage 2: at fixed theta, maximize the total admitted rate so spare
  // capacity flows to whoever can still use it. The tiny bonus on local
  // placement (x_ii) breaks ties among the many total-rate-equal routings:
  // without it the chosen vertex depends on the pivot path, so a
  // warm-started solve can land on a different alternate optimum than a
  // cold one and closed-loop simulations stop being reproducible. 1e-6 is
  // far above the solver tolerance and costs at most 1e-6 of a request of
  // total admitted rate.
  auto stage2 = [&](std::size_t attempt, const lp::Solution& s1) {
    Problem p2 = build(attempt == 0);
    for (std::size_t i = 0; i < n; ++i)
      for (std::size_t k = 0; k < n; ++k)
        p2.set_objective(var(i, k), k == i ? 1.0 + 1e-6 : 1.0);
    // Tiny slack below theta guards against round-off infeasibility.
    p2.set_bounds(theta_var, std::max(0.0, s1.values[theta_var] - 1e-9),
                  1.0);
    return p2;
  };

  auto fill = [&](const lp::Solution& s1, const std::vector<double>& values,
                  Plan& out) {
    out.theta = s1.values[theta_var];
    out.rate = Matrix(n, n, 0.0);
    for (std::size_t i = 0; i < n; ++i)
      for (std::size_t k = 0; k < n; ++k)
        out.rate(i, k) = std::max(0.0, values[var(i, k)]);
  };
  return lp_.solve(demand, stage1, stage2, fill);
}

}  // namespace sharegrid::sched
