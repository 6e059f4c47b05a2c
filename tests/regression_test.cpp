// Regression tests for bugs found by the property suites and scaling
// sweeps. Each test pins the exact failure mode so it cannot quietly
// return.
#include <gtest/gtest.h>

#include <utility>
#include <vector>

#include "audit/invariant_auditor.hpp"
#include "core/flow.hpp"
#include "experiments/scenario.hpp"
#include "lp/problem.hpp"
#include "lp/solve_context.hpp"
#include "sched/response_time_scheduler.hpp"
#include "sched/window_scheduler.hpp"
#include "util/rng.hpp"

namespace sharegrid {
namespace {

// Bug 1: the conservative no-snapshot mode used a raw 1e9 demand; theta-row
// coefficients of that size times the solver tolerance left request-sized
// noise in LP solutions, and the window scheduler then "admitted" requests
// to principals with zero capacity and no servers (ServerPool::pick
// returned null => crash). Fixed by clamping demands inside the scheduler
// and raising the quota-noise threshold.
TEST(Regression, ConservativeModeNeverRoutesToZeroCapacityOwners) {
  core::AgreementGraph g;
  g.add_principal("P0", 0.0);     // pure consumer: no servers
  g.add_principal("P1", 234.89);  // the only resource owner
  const sched::ResponseTimeScheduler scheduler(
      g, core::compute_access_levels(g));

  sched::WindowScheduler ws(&scheduler, 100 * kMillisecond,
                            /*redirector_count=*/2);
  const sched::GlobalDemand none;  // no snapshot: conservative mode
  for (int window = 0; window < 50; ++window) {
    ws.begin_window({400.0, 400.0}, none);
    for (core::PrincipalId p = 0; p < 2; ++p) {
      while (const auto owner = ws.try_admit(p)) {
        // Whatever is admitted must be backed by real capacity.
        EXPECT_GT(g.capacity(*owner), 0.0);
      }
    }
  }
}

// Bug 2: the per-redirector share of a principal's global queue used
// max(global, local) as the denominator, which biases the slice sum below
// one whenever any node's local estimate runs ahead of the snapshot — a
// principal whose clients span redirectors was silently under-served
// (~455 of its 480 req/s entitlement) with the gap leaking to its peer.
// Bug 3: requests parked in a server's FIFO by transient over-admission
// were invisible to demand estimates; the closed loop then locked in at
// whatever split the transient left. Both fixed in WindowScheduler /
// L4Redirector demand accounting; this end-to-end check pins the result.
TEST(Regression, SplitClientsStillReceiveFullMandatoryShares) {
  core::AgreementGraph g;
  g.add_principal("A", 0.0);
  g.add_principal("B", 0.0);
  g.set_agreement(1, 0, 0.5, 0.5);

  experiments::ScenarioConfig c;
  c.graph = g;
  c.layer = experiments::Layer::kL4;
  c.redirector_count = 2;  // A's and B's clients both span the fleet
  c.servers = {{"A", 320.0}, {"B", 320.0}};
  for (int k = 0; k < 4; ++k)
    c.clients.push_back({"A" + std::to_string(k), "A",
                         static_cast<std::size_t>(k) % 2, 200.0,
                         {{0.0, 40.0}}});
  for (int k = 0; k < 2; ++k)
    c.clients.push_back({"B" + std::to_string(k), "B",
                         static_cast<std::size_t>(k) % 2, 200.0,
                         {{0.0, 40.0}}});
  c.phases = {{"steady", 20.0, 38.0}};
  c.duration_sec = 40.0;

  const auto result = experiments::run_scenario(c);
  // Pre-fix this settled around A=455/B=185; the contract says 480/160.
  EXPECT_NEAR(result.phase_served(0, 0), 480.0, 12.0);
  EXPECT_NEAR(result.phase_served(0, 1), 160.0, 12.0);
}

// Bug 4 (found while bringing up Figure 6): rejected requests all retried
// after exactly the retry delay, re-synchronizing into bursts that alternately
// overflowed and starved the per-window quota; served rates sagged well
// below the plan. Fixed with retry jitter; this checks the served rate
// stays near the planned allocation under sustained rejection.
TEST(Regression, RetryStormsDoNotStarveQuota) {
  core::AgreementGraph g;
  g.add_principal("S", 0.0);
  g.add_principal("A", 0.0);
  g.set_agreement(0, 1, 1.0, 1.0);

  experiments::ScenarioConfig c;
  c.graph = g;
  c.layer = experiments::Layer::kL7;
  c.servers = {{"S", 100.0}};  // far below offered load
  c.clients = {{"C1", "A", 0, 135.0, {{0.0, 30.0}}},
               {"C2", "A", 0, 135.0, {{0.0, 30.0}}}};
  c.phases = {{"steady", 10.0, 28.0}};
  c.duration_sec = 30.0;

  const auto result = experiments::run_scenario(c);
  // The server's 100 req/s must be consumed nearly fully despite ~170
  // req/s of perpetual retries.
  EXPECT_GE(result.phase_served(0, 1), 92.0);
}

// Bug 5 (found by the SHAREGRID_AUDIT build of the integration suite): the
// simplex ratio test accepted "ties" within an absolute tolerance window and
// let the accepted ratio ratchet upward across rows. Pivoting on a row whose
// ratio exceeds the true minimum drives the minimum row's rhs negative by
// (difference * pivot-column entry) — with scheduler-sized coefficients that
// is request-sized infeasibility, and the returned "optimal" point overshot
// the binding constraint. Fixed by making the minimum-ratio comparison exact
// (degenerate ties that matter for Bland's rule are exactly 0).
TEST(Regression, RatioTestTieWindowDoesNotOvershootBindingConstraint) {
  // Two near-tied rows, large coefficients, the larger-ratio row first. The
  // old tie window (|delta ratio| < 1e-9 * 1e6-scale) picked row 0 by basis
  // order and left rhs[1] at -0.05; the reported x0 then violated row 1.
  lp::Problem p(1, lp::Sense::kMaximize);
  p.set_objective(0, 1.0);
  p.add_constraint({{0, 1e6}}, lp::Relation::kLessEq, 1000000.0005);
  p.add_constraint({{0, 1e6}}, lp::Relation::kLessEq, 1000000.0);
  const lp::Solution s = lp::solve(p);
  ASSERT_TRUE(s.optimal());
  EXPECT_LE(s.values[0], 1.0 + 1e-12);
  EXPECT_NO_THROW(audit::audit_lp_solution(p, s, 1e-10));
}

// Bug 6 (found by the SHAREGRID_AUDIT build of the robustness suite): after
// phase 1, an artificial variable that cannot be pivoted out stays basic in
// a redundant row — but the row kept sub-threshold (< 1e-7) residue in its
// structural columns. Phase-2 pivots multiplied that residue by
// saturated-demand-scale rhs values and leaked ~1e6 into the basic
// artificial, so solve() returned kOptimal for a point violating an original
// constraint by six orders of magnitude beyond tolerance. Fixed by zeroing
// the residue of rows whose artificial stays basic. The pinned check: every
// kOptimal result of the degenerate-coefficient sweep must satisfy the
// original problem (audit_lp_solution throws if not).
TEST(Regression, DegenerateCoefficientOptimaSatisfyOriginalProblem) {
  Rng rng(77);  // same seed as Robustness.SimplexSurvivesDegenerateCoefficients
  for (int trial = 0; trial < 50; ++trial) {
    lp::Problem p(3, lp::Sense::kMaximize);
    for (std::size_t j = 0; j < 3; ++j) {
      p.set_objective(j, rng.uniform(-1.0, 1.0));
      p.set_bounds(j, 0.0, rng.chance(0.5) ? lp::kInfinity : 1e9);
    }
    for (int c = 0; c < 4; ++c) {
      std::vector<std::pair<std::size_t, double>> terms;
      for (std::size_t j = 0; j < 3; ++j) {
        const double magnitude =
            rng.chance(0.3) ? 0.0
                            : (rng.chance(0.5) ? 1e-8 : rng.uniform(0.0, 1e6));
        terms.emplace_back(j, magnitude);
      }
      p.add_constraint(std::move(terms),
                       rng.chance(0.5) ? lp::Relation::kLessEq
                                       : lp::Relation::kGreaterEq,
                       rng.uniform(0.0, 1e6));
    }
    const lp::Solution s = lp::solve(p);
    if (!s.optimal()) continue;
    EXPECT_NO_THROW(audit::audit_lp_solution(p, s, 1e-5)) << "trial " << trial;
  }
}

}  // namespace
}  // namespace sharegrid
