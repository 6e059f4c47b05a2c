// Tests for the runtime invariant auditor: each check must (a) pass on
// honestly-computed state and (b) fire with an actionable message when that
// state is deliberately corrupted. The corruption tests are what make
// SHAREGRID_AUDIT builds trustworthy — a check that can never fire verifies
// nothing.
#include <gtest/gtest.h>

#include <cstddef>
#include <cstdint>
#include <limits>
#include <optional>
#include <string>
#include <utility>
#include <vector>

#include "audit/invariant_auditor.hpp"
#include "core/agreement_graph.hpp"
#include "core/entitlement.hpp"
#include "core/flow.hpp"
#include "experiments/paper_figures.hpp"
#include "l4/connection_table.hpp"
#include "lp/problem.hpp"
#include "lp/solve_context.hpp"
#include "util/assert.hpp"

namespace sharegrid {
namespace {

/// Runs @p fn, which must throw ContractViolation, and returns its message.
template <class Fn>
std::string violation_message(Fn&& fn) {
  try {
    fn();
  } catch (const ContractViolation& e) {
    return e.what();
  }
  ADD_FAILURE() << "expected a ContractViolation, but no audit check fired";
  return {};
}

core::AgreementGraph two_principal_graph() {
  core::AgreementGraph g;
  g.add_principal("A", 100.0);
  g.add_principal("B", 200.0);
  g.set_agreement(/*owner=*/1, /*user=*/0, 0.2, 0.5);  // B shares with A
  return g;
}

// ---------------------------------------------------------------------------
// core/flow + core/entitlement
// ---------------------------------------------------------------------------

TEST(AuditFlow, HonestAccessLevelsPass) {
  const core::AgreementGraph g = two_principal_graph();
  const core::AccessLevels levels = core::compute_access_levels(g);
  EXPECT_FALSE(core::has_agreement_cycle(g));
  EXPECT_NO_THROW(audit::audit_access_levels(g, levels,
                                             /*expect_exact_partition=*/true));
}

TEST(AuditFlow, AllPaperFigureGraphsPass) {
  for (const auto& figure : experiments::all_figures()) {
    const core::AgreementGraph& g = figure.config.graph;
    const core::AccessLevels levels = core::compute_access_levels(g);
    EXPECT_NO_THROW(audit::audit_access_levels(
        g, levels, !core::has_agreement_cycle(g)))
        << "figure " << figure.id;
  }
}

TEST(AuditFlow, CorruptedDiagonalFires) {
  const core::AgreementGraph g = two_principal_graph();
  core::AccessLevels levels = core::compute_access_levels(g);
  levels.mandatory_transfer(0, 0) = 0.9;  // a principal must own itself fully
  const std::string msg = violation_message(
      [&] { audit::audit_access_levels(g, levels, true); });
  EXPECT_NE(msg.find("[audit] flow.transfer-diagonal"), std::string::npos);
  EXPECT_NE(msg.find("A"), std::string::npos) << "names the principal: " << msg;
}

TEST(AuditFlow, NegativeTransferFires) {
  const core::AgreementGraph g = two_principal_graph();
  core::AccessLevels levels = core::compute_access_levels(g);
  levels.optional_transfer(1, 0) = -0.25;
  const std::string msg = violation_message(
      [&] { audit::audit_access_levels(g, levels, true); });
  EXPECT_NE(msg.find("flow.transfer-negative"), std::string::npos);
}

TEST(AuditFlow, MandatoryTransferAboveOneFires) {
  const core::AgreementGraph g = two_principal_graph();
  core::AccessLevels levels = core::compute_access_levels(g);
  levels.mandatory_transfer(1, 0) = 1.5;  // no lb path measure can exceed 1
  const std::string msg = violation_message(
      [&] { audit::audit_access_levels(g, levels, true); });
  EXPECT_NE(msg.find("flow.mandatory-transfer-bound"), std::string::npos);
  EXPECT_NE(msg.find("Formula 1"), std::string::npos);
}

TEST(AuditFlow, StaleValueVectorFires) {
  const core::AgreementGraph g = two_principal_graph();
  core::AccessLevels levels = core::compute_access_levels(g);
  levels.mandatory_value[0] += 7.0;  // as if capacities changed underneath
  const std::string msg = violation_message(
      [&] { audit::audit_access_levels(g, levels, true); });
  EXPECT_NE(msg.find("flow.mandatory-value-conservation"), std::string::npos);
  EXPECT_NE(msg.find("recomputed"), std::string::npos)
      << "hints at the likely cause: " << msg;
}

TEST(AuditFlow, BrokenAccessLevelSplitFires) {
  const core::AgreementGraph g = two_principal_graph();
  core::AccessLevels levels = core::compute_access_levels(g);
  levels.mandatory_capacity[1] += 3.0;  // MC no longer M (1 - L)
  const std::string msg = violation_message(
      [&] { audit::audit_access_levels(g, levels, true); });
  EXPECT_NE(msg.find("flow.access-level-split"), std::string::npos);
}

TEST(AuditFlow, EntitlementRowDriftFires) {
  const core::AgreementGraph g = two_principal_graph();
  core::AccessLevels levels = core::compute_access_levels(g);
  levels.mandatory_entitlement(0, 1) += 2.0;  // row sum != MC_0
  const std::string msg = violation_message(
      [&] { audit::audit_access_levels(g, levels, true); });
  EXPECT_NE(msg.find("flow.entitlement-row-sum"), std::string::npos);
  EXPECT_NE(msg.find("DESIGN.md D1"), std::string::npos);
}

TEST(AuditFlow, BrokenCapacityPartitionFires) {
  const core::AgreementGraph g = two_principal_graph();
  core::AccessLevels levels = core::compute_access_levels(g);
  // Shift entitlement between servers within a row: row sums (and therefore
  // MC) stay intact, but server B's column no longer partitions V_B.
  levels.mandatory_entitlement(0, 0) += 5.0;
  levels.mandatory_entitlement(0, 1) -= 5.0;
  const std::string msg = violation_message(
      [&] { audit::audit_access_levels(g, levels, true); });
  EXPECT_NE(msg.find("flow.entitlement-partition"), std::string::npos);
  EXPECT_NE(msg.find("capacity"), std::string::npos);
}

TEST(AuditFlow, CyclicGraphSkipsPartitionCheckOnly) {
  core::AgreementGraph g;
  g.add_principal("A", 100.0);
  g.add_principal("B", 100.0);
  g.set_agreement(0, 1, 0.3, 0.6);
  g.set_agreement(1, 0, 0.3, 0.6);  // A <-> B: a cycle
  EXPECT_TRUE(core::has_agreement_cycle(g));
  const core::AccessLevels levels = core::compute_access_levels(g);
  EXPECT_NO_THROW(audit::audit_access_levels(
      g, levels, /*expect_exact_partition=*/false));
}

TEST(AuditFlow, CycleDetectionOnChainsAndBranches) {
  core::AgreementGraph chain;
  chain.add_principal("A", 1.0);
  chain.add_principal("B", 1.0);
  chain.add_principal("C", 1.0);
  chain.set_agreement(0, 1, 0.1, 0.5);
  chain.set_agreement(1, 2, 0.1, 0.5);
  EXPECT_FALSE(core::has_agreement_cycle(chain));
  chain.set_agreement(2, 0, 0.1, 0.5);  // close the loop
  EXPECT_TRUE(core::has_agreement_cycle(chain));
}

// ---------------------------------------------------------------------------
// lp/simplex
// ---------------------------------------------------------------------------

lp::Problem small_lp() {
  lp::Problem p(2, lp::Sense::kMaximize);
  p.set_objective(0, 1.0);
  p.set_objective(1, 1.0);
  p.add_constraint({{0, 1.0}, {1, 1.0}}, lp::Relation::kLessEq, 5.0);
  p.add_constraint({{0, 1.0}}, lp::Relation::kGreaterEq, 1.0);
  return p;
}

TEST(AuditLp, HonestSolutionPasses) {
  const lp::Problem p = small_lp();
  const lp::Solution s = lp::solve(p);
  ASSERT_TRUE(s.optimal());
  EXPECT_NO_THROW(audit::audit_lp_solution(p, s, 1e-6));
}

TEST(AuditLp, InfeasiblePointReportedOptimalFires) {
  const lp::Problem p = small_lp();
  lp::Solution s = lp::solve(p);
  ASSERT_TRUE(s.optimal());
  s.values[1] += 10.0;  // blows through the <= 5 row
  const std::string msg =
      violation_message([&] { audit::audit_lp_solution(p, s, 1e-6); });
  EXPECT_NE(msg.find("[audit] lp.primal-feasibility"), std::string::npos);
  EXPECT_NE(msg.find("constraint #0"), std::string::npos);
}

TEST(AuditLp, BoundViolationFires) {
  const lp::Problem p = small_lp();
  lp::Solution s = lp::solve(p);
  ASSERT_TRUE(s.optimal());
  s.values[1] = -2.0;
  const std::string msg =
      violation_message([&] { audit::audit_lp_solution(p, s, 1e-6); });
  EXPECT_NE(msg.find("lp.variable-bounds"), std::string::npos);
}

TEST(AuditLp, ObjectiveBookkeepingDriftFires) {
  const lp::Problem p = small_lp();
  lp::Solution s = lp::solve(p);
  ASSERT_TRUE(s.optimal());
  s.objective += 1.0;
  const std::string msg =
      violation_message([&] { audit::audit_lp_solution(p, s, 1e-6); });
  EXPECT_NE(msg.find("lp.objective-consistency"), std::string::npos);
}

TEST(AuditLp, NonOptimalSolutionsAreNotAudited) {
  lp::Problem p(1, lp::Sense::kMaximize);
  p.set_objective(0, 1.0);  // unbounded above
  const lp::Solution s = lp::solve(p);
  ASSERT_EQ(s.status, lp::Status::kUnbounded);
  EXPECT_NO_THROW(audit::audit_lp_solution(p, s, 1e-6));
}

TEST(AuditSimplex, ConsistentSolveStatsPass) {
  lp::SolveStats s;
  s.solves = 10;
  s.warm_solves = 7;
  s.cold_solves = 3;
  s.structure_misses = 1;
  s.refreshes = 1;
  s.rhs_rejections = 1;
  EXPECT_NO_THROW(audit::audit_solve_stats(s));
}

TEST(AuditSimplex, SolveSplitMismatchFires) {
  lp::SolveStats s;
  s.solves = 10;
  s.warm_solves = 7;
  s.cold_solves = 2;  // one solve vanished
  const std::string msg =
      violation_message([&] { audit::audit_solve_stats(s); });
  EXPECT_NE(msg.find("lp.stats-solve-split"), std::string::npos);
}

TEST(AuditSimplex, DoubleCountedColdCauseFires) {
  lp::SolveStats s;
  s.solves = 10;
  s.warm_solves = 8;
  s.cold_solves = 2;
  // One failed warm attempt booked under two causes: 3 causes, 2 colds.
  s.structure_misses = 2;
  s.rhs_rejections = 1;
  const std::string msg =
      violation_message([&] { audit::audit_solve_stats(s); });
  EXPECT_NE(msg.find("lp.stats-cold-causes"), std::string::npos);
  EXPECT_NE(msg.find("two causes"), std::string::npos);
}

TEST(AuditSimplex, BlandRegressionFires) {
  EXPECT_NO_THROW(audit::audit_bland_progress(10.0, 10.0, 1e-9));
  EXPECT_NO_THROW(audit::audit_bland_progress(10.0, 10.5, 1e-9));
  const std::string msg =
      violation_message([&] { audit::audit_bland_progress(10.0, 9.0, 1e-9); });
  EXPECT_NE(msg.find("simplex.bland-regress"), std::string::npos);
  EXPECT_NE(msg.find("termination"), std::string::npos);
}

TEST(AuditSimplex, BasicValuesFeasiblePasses) {
  const std::vector<double> rhs = {3.0, 1.0};
  const std::vector<std::size_t> basis = {0, 1};
  const std::vector<double> upper = {
      std::numeric_limits<double>::infinity(),
      std::numeric_limits<double>::infinity()};
  EXPECT_NO_THROW(audit::audit_basic_values(rhs, basis, upper, 1e-9));
}

TEST(AuditSimplex, NegativeBasicValueFires) {
  const std::vector<double> rhs = {3.0, -1.0};
  const std::vector<std::size_t> basis = {0, 1};
  const std::vector<double> upper = {
      std::numeric_limits<double>::infinity(),
      std::numeric_limits<double>::infinity()};
  const std::string msg = violation_message(
      [&] { audit::audit_basic_values(rhs, basis, upper, 1e-9); });
  EXPECT_NE(msg.find("simplex.primal-infeasible-rhs"), std::string::npos);
}

TEST(AuditSimplex, BasicValueAboveUpperFires) {
  const std::vector<double> rhs = {3.0, 1.0};
  const std::vector<std::size_t> basis = {0, 1};
  const std::vector<double> upper = {2.0, 2.0};
  const std::string msg = violation_message(
      [&] { audit::audit_basic_values(rhs, basis, upper, 1e-9); });
  EXPECT_NE(msg.find("simplex.primal-above-upper"), std::string::npos);
}

TEST(AuditSimplex, UnitColumnPasses) {
  EXPECT_NO_THROW(audit::audit_unit_column(1, {0.0, 1.0, 0.0}, 1e-9));
}

TEST(AuditSimplex, NonUnitColumnFires) {
  const std::string msg = violation_message(
      [&] { audit::audit_unit_column(1, {0.5, 1.0, 0.0}, 1e-9); });
  EXPECT_NE(msg.find("simplex.basis-not-unit"), std::string::npos);
}

TEST(AuditSimplex, ReducedCostSyncPasses) {
  const std::vector<double> incremental = {1.0, -2.0, 0.0};
  const std::vector<double> reference = {1.0, -2.0, 1e-15};
  EXPECT_NO_THROW(
      audit::audit_reduced_cost_sync(incremental, reference, 1e-9));
}

TEST(AuditSimplex, ReducedCostDriftFires) {
  const std::vector<double> incremental = {1.0, -2.0, 0.0};
  const std::vector<double> reference = {1.0, -2.5, 0.0};
  const std::string msg = violation_message(
      [&] { audit::audit_reduced_cost_sync(incremental, reference, 1e-9); });
  EXPECT_NE(msg.find("simplex.reduced-cost-drift"), std::string::npos);
}

TEST(AuditSimplex, ReducedCostShapeFires) {
  const std::vector<double> incremental = {1.0, -2.0};
  const std::vector<double> reference = {1.0, -2.0, 0.0};
  const std::string msg = violation_message(
      [&] { audit::audit_reduced_cost_sync(incremental, reference, 1e-9); });
  EXPECT_NE(msg.find("simplex.reduced-cost-shape"), std::string::npos);
}

TEST(AuditSimplex, NoArtificialBasicPasses) {
  const std::vector<std::size_t> basis = {0, 3, 4};
  EXPECT_NO_THROW(audit::audit_no_artificial_basic(basis, 5));
}

TEST(AuditSimplex, ArtificialBasicFires) {
  const std::vector<std::size_t> basis = {0, 6, 4};
  const std::string msg = violation_message(
      [&] { audit::audit_no_artificial_basic(basis, 5); });
  EXPECT_NE(msg.find("simplex.warm-artificial-basic"), std::string::npos);
}

TEST(AuditSimplex, EtaConsistencyPasses) {
  const std::vector<double> eta_values = {4.0, 2.0, 0.5};
  const std::vector<double> fresh_values = {4.0, 2.0, 0.5 + 1e-12};
  EXPECT_NO_THROW(
      audit::audit_eta_consistency(eta_values, fresh_values, 1e-6));
}

TEST(AuditSimplex, EtaDriftFires) {
  const std::vector<double> eta_values = {4.0, 2.0, 0.5};
  const std::vector<double> fresh_values = {4.0, 2.1, 0.5};
  const std::string msg = violation_message(
      [&] { audit::audit_eta_consistency(eta_values, fresh_values, 1e-6); });
  EXPECT_NE(msg.find("simplex.eta-rhs-drift"), std::string::npos);
}

TEST(AuditSimplex, EtaShapeFires) {
  const std::vector<double> eta_values = {4.0, 2.0};
  const std::vector<double> fresh_values = {4.0, 2.0, 0.5};
  const std::string msg = violation_message(
      [&] { audit::audit_eta_consistency(eta_values, fresh_values, 1e-6); });
  EXPECT_NE(msg.find("simplex.eta-rhs-shape"), std::string::npos);
}

// ---------------------------------------------------------------------------
// sched/window_scheduler
// ---------------------------------------------------------------------------

TEST(AuditWindow, ConservedStatePasses) {
  const Matrix quota(1, 1, 2.0);
  const Matrix consumed(1, 1, 1.0);
  const Matrix debt(1, 1, 0.0);
  const Matrix slices(1, 1, 3.0);
  EXPECT_NO_THROW(
      audit::audit_window_conservation(quota, consumed, debt, slices, 1e-9));
}

TEST(AuditWindow, LeakedQuotaFires) {
  const Matrix quota(1, 1, 2.5);  // 2.5 + 1.0 != 3.0 + 0.0
  const Matrix consumed(1, 1, 1.0);
  const Matrix debt(1, 1, 0.0);
  const Matrix slices(1, 1, 3.0);
  const std::string msg = violation_message([&] {
    audit::audit_window_conservation(quota, consumed, debt, slices, 1e-9);
  });
  EXPECT_NE(msg.find("window.quota-conservation"), std::string::npos);
  EXPECT_NE(msg.find("DESIGN.md D5"), std::string::npos);
}

TEST(AuditWindow, NegativeConsumptionFires) {
  const Matrix quota(1, 1, 3.5);
  const Matrix consumed(1, 1, -0.5);
  const Matrix debt(1, 1, 0.0);
  const Matrix slices(1, 1, 3.0);
  const std::string msg = violation_message([&] {
    audit::audit_window_conservation(quota, consumed, debt, slices, 1e-9);
  });
  EXPECT_NE(msg.find("window.negative-consumption"), std::string::npos);
}

TEST(AuditWindow, PositiveDebtCarryFires) {
  const Matrix quota(1, 1, 3.5);
  const Matrix consumed(1, 1, 0.0);
  const Matrix debt(1, 1, 0.5);  // stacking unused quota across windows
  const Matrix slices(1, 1, 3.0);
  const std::string msg = violation_message([&] {
    audit::audit_window_conservation(quota, consumed, debt, slices, 1e-9);
  });
  EXPECT_NE(msg.find("window.positive-debt"), std::string::npos);
}

// ---------------------------------------------------------------------------
// l4/connection_table
// ---------------------------------------------------------------------------

using Table = l4::ConnectionTable;

/// Opens client host:port -> vip on @p server.
Table::FlowId open_flow(Table& table, std::uint32_t host, std::uint16_t port,
                        std::size_t vip, std::size_t server) {
  return table.open({host, port}, vip,
                    [server](std::optional<std::size_t>) { return server; });
}

/// Two open flows and one closed one (a hint) over 2 vips and 3 servers.
Table sample_table() {
  Table table;
  open_flow(table, 1, 4000, 0, 2);
  open_flow(table, 1, 4001, 1, 0);
  table.close(open_flow(table, 2, 4000, 0, 1));
  return table;
}

TEST(AuditL4, ConsistentTablePasses) {
  EXPECT_NO_THROW(audit::audit_connection_table(sample_table().state(), 2, 3));
}

// A closed flow is the affinity hint: it keeps its server index and does
// not count as an active connection.
TEST(AuditL4, DanglingHintWithoutFlowIsAllowed) {
  Table table;
  table.close(open_flow(table, 1, 4000, 0, 2));
  EXPECT_EQ(table.active_connections(), 0u);
  EXPECT_NO_THROW(audit::audit_connection_table(table.state(), 1, 3));
}

TEST(AuditL4, OpenFlowCountMismatchFires) {
  // A close() that cleared the open bit but not the counter.
  Table::State state = sample_table().state();
  ++state.open_flows;
  const std::string msg = violation_message(
      [&] { audit::audit_connection_table(state, 2, 3); });
  EXPECT_NE(msg.find("l4.open-flow-count"), std::string::npos);
  EXPECT_NE(msg.find("close()"), std::string::npos);
}

TEST(AuditL4, VipIndexOutOfRangeFires) {
  Table table = sample_table();
  open_flow(table, 3, 4000, 2, 0);  // the vip list has two entries
  const std::string msg = violation_message(
      [&] { audit::audit_connection_table(table.state(), 2, 3); });
  EXPECT_NE(msg.find("l4.vip-index-range"), std::string::npos);
  EXPECT_NE(msg.find("flow #3"), std::string::npos);
}

TEST(AuditL4, ServerIndexOutOfRangeFires) {
  Table table = sample_table();
  open_flow(table, 3, 4000, 1, 3);  // three servers: 0..2
  const std::string msg = violation_message(
      [&] { audit::audit_connection_table(table.state(), 2, 3); });
  EXPECT_NE(msg.find("l4.server-index-range"), std::string::npos);
  EXPECT_NE(msg.find("flow #3"), std::string::npos);
}

// Clearing the index word that holds a flow cuts its key's probe short: the
// next open() of that key would miss it and file a second entry.
TEST(AuditL4, FlowTheIndexCannotReachFires) {
  Table::State state = sample_table().state();
  constexpr std::uint32_t kFirstFlow = 0 + 1;  // a word stores id + 1
  std::size_t cleared = 0;
  for (std::uint32_t& word : state.index) {
    if ((word & Table::State::kIdBits) != kFirstFlow) continue;
    word = 0;
    ++cleared;
  }
  ASSERT_EQ(cleared, 1u);
  const std::string msg = violation_message(
      [&] { audit::audit_connection_table(state, 2, 3); });
  EXPECT_NE(msg.find("l4.index-reach"), std::string::npos);
  EXPECT_NE(msg.find("flow #0's key"), std::string::npos);
}

// open_new() leaves its entries pending, outside the index, until the next
// open(). The audit accepts them while each key is new, and fires on a
// pending key that a filed entry or another pending one already holds.
TEST(AuditL4, PendingEntriesMustHoldNewKeys) {
  Table table = sample_table();
  table.open_new({3, 4000}, 1, 2);
  table.close(table.open_new({1, 4000}, 1, 0));  // vip 1 is a new key
  ASSERT_EQ(table.state().indexed, 3u);
  EXPECT_NO_THROW(audit::audit_connection_table(table.state(), 2, 3));

  Table indexed_twice = table;
  indexed_twice.open_new({1, 4001}, 1, 2);  // sample_table() opened it
  std::string msg = violation_message(
      [&] { audit::audit_connection_table(indexed_twice.state(), 2, 3); });
  EXPECT_NE(msg.find("l4.pending-key-new"), std::string::npos);
  EXPECT_NE(msg.find("pending flow #5 repeats the key of filed flow #1"),
            std::string::npos);

  Table pending_twice = table;
  pending_twice.open_new({3, 4000}, 1, 0);
  msg = violation_message(
      [&] { audit::audit_connection_table(pending_twice.state(), 2, 3); });
  EXPECT_NE(msg.find("l4.pending-key-new"), std::string::npos);
  EXPECT_NE(msg.find("pending flows #3 and #5"), std::string::npos);
}

}  // namespace
}  // namespace sharegrid
