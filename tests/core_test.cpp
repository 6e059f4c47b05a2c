// Unit tests for the agreement graph, ticket ledger, and flow analysis.
// The central fixture is the paper's Figure 3 worked example, whose final
// currency values the paper states explicitly.
#include <gtest/gtest.h>

#include <cmath>

#include "core/agreement_graph.hpp"
#include "core/flow.hpp"
#include "core/ticket.hpp"
#include "util/assert.hpp"
#include "util/rng.hpp"

namespace sharegrid::core {
namespace {

/// Figure 3: A owns 1000 u/s, B owns 1500 u/s, C owns nothing;
/// A->B [0.4, 0.6], B->C [0.6, 1.0].
AgreementGraph figure3_graph() {
  AgreementGraph g;
  const auto a = g.add_principal("A", 1000.0);
  const auto b = g.add_principal("B", 1500.0);
  g.add_principal("C", 0.0);
  g.set_agreement(a, b, 0.4, 0.6);
  g.set_agreement(b, g.find("C"), 0.6, 1.0);
  return g;
}

TEST(AgreementGraph, StoresPrincipalsAndAgreements) {
  AgreementGraph g = figure3_graph();
  EXPECT_EQ(g.size(), 3u);
  EXPECT_EQ(g.name(0), "A");
  EXPECT_DOUBLE_EQ(g.capacity(1), 1500.0);
  EXPECT_DOUBLE_EQ(g.lower_bound(0, 1), 0.4);
  EXPECT_DOUBLE_EQ(g.upper_bound(1, 2), 1.0);
  EXPECT_DOUBLE_EQ(g.lower_bound(1, 0), 0.0);
  EXPECT_EQ(g.agreements().size(), 2u);
}

TEST(AgreementGraph, FindByName) {
  AgreementGraph g = figure3_graph();
  EXPECT_EQ(g.find("B"), 1u);
  EXPECT_EQ(g.find("nobody"), kNoPrincipal);
}

TEST(AgreementGraph, RejectsInvalidAgreements) {
  AgreementGraph g;
  const auto a = g.add_principal("A", 100.0);
  const auto b = g.add_principal("B", 100.0);
  EXPECT_THROW(g.set_agreement(a, a, 0.1, 0.2), ContractViolation);
  EXPECT_THROW(g.set_agreement(a, b, 0.5, 0.4), ContractViolation);
  EXPECT_THROW(g.set_agreement(a, b, -0.1, 0.4), ContractViolation);
  EXPECT_THROW(g.set_agreement(a, b, 0.4, 1.1), ContractViolation);
}

TEST(AgreementGraph, RejectsOverIssuedLowerBounds) {
  AgreementGraph g;
  const auto a = g.add_principal("A", 100.0);
  const auto b = g.add_principal("B", 100.0);
  const auto c = g.add_principal("C", 100.0);
  g.set_agreement(a, b, 0.7, 0.8);
  EXPECT_THROW(g.set_agreement(a, c, 0.4, 0.5), ContractViolation);
  g.set_agreement(a, c, 0.3, 0.5);  // exactly 1.0 total is allowed
}

TEST(AgreementGraph, ReplacingAnAgreementReleasesItsLowerBound) {
  AgreementGraph g;
  const auto a = g.add_principal("A", 100.0);
  const auto b = g.add_principal("B", 100.0);
  g.set_agreement(a, b, 0.9, 1.0);
  g.set_agreement(a, b, 0.2, 0.3);  // replace, not accumulate
  EXPECT_DOUBLE_EQ(g.issued_lower_bound(a), 0.2);
}

TEST(AgreementGraph, RejectsDuplicateNames) {
  AgreementGraph g;
  g.add_principal("A", 1.0);
  EXPECT_THROW(g.add_principal("A", 2.0), ContractViolation);
}

// --- Flow analysis: the paper's Figure 3 numbers -------------------------

TEST(FlowAnalysis, Figure3CurrencyValues) {
  const AgreementGraph g = figure3_graph();
  const AccessLevels levels = compute_access_levels(g);

  // Mandatory currency values before outflow: A 1000, B 1900, C 1140.
  EXPECT_NEAR(levels.mandatory_value[0], 1000.0, 1e-9);
  EXPECT_NEAR(levels.mandatory_value[1], 1900.0, 1e-9);
  EXPECT_NEAR(levels.mandatory_value[2], 1140.0, 1e-9);

  // Final (mandatory, optional) values: A (600,400), B (760,1340),
  // C (1140,960) — stated verbatim in §2.3.
  EXPECT_NEAR(levels.mandatory_capacity[0], 600.0, 1e-9);
  EXPECT_NEAR(levels.optional_capacity[0], 400.0, 1e-9);
  EXPECT_NEAR(levels.mandatory_capacity[1], 760.0, 1e-9);
  EXPECT_NEAR(levels.optional_capacity[1], 1340.0, 1e-9);
  EXPECT_NEAR(levels.mandatory_capacity[2], 1140.0, 1e-9);
  EXPECT_NEAR(levels.optional_capacity[2], 960.0, 1e-9);
}

TEST(FlowAnalysis, Figure3RawFlows) {
  const AgreementGraph g = figure3_graph();
  const AccessLevels levels = compute_access_levels(g);

  // MI(A,B) = 1000 * 0.4; MI(A,C) = 1000 * 0.4 * 0.6 (two-ticket path).
  EXPECT_NEAR(levels.mandatory_flow(0, 1, g), 400.0, 1e-9);
  EXPECT_NEAR(levels.mandatory_flow(0, 2, g), 240.0, 1e-9);
  EXPECT_NEAR(levels.mandatory_flow(1, 2, g), 900.0, 1e-9);
  // O-Ticket2's real value: A passes 200 optional units to B.
  EXPECT_NEAR(levels.optional_flow(0, 1, g), 200.0, 1e-9);
  // OI(A,C): switch at hop1 (0.2 * 1.0) or hop2 (0.4 * 0.4) => 0.36.
  EXPECT_NEAR(levels.optional_flow(0, 2, g), 360.0, 1e-9);
}

TEST(FlowAnalysis, EntitlementsPartitionEachServer) {
  const AgreementGraph g = figure3_graph();
  const AccessLevels levels = compute_access_levels(g);

  for (PrincipalId k = 0; k < g.size(); ++k) {
    double column = 0.0;
    for (PrincipalId i = 0; i < g.size(); ++i)
      column += levels.mandatory_entitlement(i, k);
    EXPECT_NEAR(column, g.capacity(k), 1e-9) << "server " << g.name(k);
  }
  // Row sums recover the per-principal access levels.
  for (PrincipalId i = 0; i < g.size(); ++i) {
    double em = 0.0;
    double eo = 0.0;
    for (PrincipalId k = 0; k < g.size(); ++k) {
      em += levels.mandatory_entitlement(i, k);
      eo += levels.optional_entitlement(i, k);
    }
    EXPECT_NEAR(em, levels.mandatory_capacity[i], 1e-9);
    EXPECT_NEAR(eo, levels.optional_capacity[i], 1e-9);
  }
}

TEST(FlowAnalysis, NoAgreementsMeansIsolation) {
  AgreementGraph g;
  g.add_principal("A", 100.0);
  g.add_principal("B", 50.0);
  const AccessLevels levels = compute_access_levels(g);
  EXPECT_NEAR(levels.mandatory_capacity[0], 100.0, 1e-12);
  EXPECT_NEAR(levels.mandatory_capacity[1], 50.0, 1e-12);
  EXPECT_NEAR(levels.optional_capacity[0], 0.0, 1e-12);
  EXPECT_NEAR(levels.mandatory_transfer(0, 1), 0.0, 1e-12);
}

TEST(FlowAnalysis, CyclicAgreementsUseSimplePaths) {
  // A <-> B mutual [0.5, 0.5]: paths may not revisit nodes, so A's inflow
  // from B is exactly 0.5 * V_B (no infinite ping-pong).
  AgreementGraph g;
  const auto a = g.add_principal("A", 100.0);
  const auto b = g.add_principal("B", 200.0);
  g.set_agreement(a, b, 0.5, 0.5);
  g.set_agreement(b, a, 0.5, 0.5);
  const AccessLevels levels = compute_access_levels(g);

  EXPECT_NEAR(levels.mandatory_flow(1, 0, g), 100.0, 1e-9);
  EXPECT_NEAR(levels.mandatory_flow(0, 1, g), 50.0, 1e-9);
  // M_A = 100 + 100 = 200, MC_A = 200 * 0.5 = 100.
  // M_B = 200 + 50 = 250, MC_B = 250 * 0.5 = 125.
  EXPECT_NEAR(levels.mandatory_capacity[0], 100.0, 1e-9);
  EXPECT_NEAR(levels.mandatory_capacity[1], 125.0, 1e-9);
}

TEST(FlowAnalysis, MaxPathLengthTruncatesTransitiveChains) {
  // A -> B -> C chain; with max_path_length = 1 C sees nothing from A.
  AgreementGraph g = figure3_graph();
  FlowOptions opt;
  opt.max_path_length = 1;
  const AccessLevels levels = compute_access_levels(g, opt);
  EXPECT_NEAR(levels.mandatory_transfer(0, 2), 0.0, 1e-12);
  EXPECT_NEAR(levels.mandatory_transfer(0, 1), 0.4, 1e-12);
}

TEST(FlowAnalysis, TransitiveChainsIncreaseAvailability) {
  // The paper's motivation for transitive flows: C gains resources from A
  // purely through B.
  AgreementGraph g = figure3_graph();
  FlowOptions truncated;
  truncated.max_path_length = 1;
  const AccessLevels direct = compute_access_levels(g, truncated);
  const AccessLevels full = compute_access_levels(g);
  EXPECT_GT(full.mandatory_capacity[2], direct.mandatory_capacity[2]);
}

TEST(FlowAnalysis, CapacityChangeFlowsThroughAgreements) {
  // §2.2: agreements are interpreted dynamically — doubling A's capacity
  // doubles what flows to B and C through existing agreements.
  AgreementGraph g = figure3_graph();
  const AccessLevels before = compute_access_levels(g);
  const double flow_before = before.mandatory_flow(0, 1, g);
  g.set_capacity(0, 2000.0);
  const AccessLevels after = compute_access_levels(g);
  EXPECT_NEAR(after.mandatory_flow(0, 1, g), 2.0 * flow_before, 1e-9);
  EXPECT_GT(after.mandatory_capacity[2], before.mandatory_capacity[2]);
}

// --- Tickets & currencies -------------------------------------------------

TEST(TicketLedger, RoundTripsWithAgreementGraph) {
  const AgreementGraph g = figure3_graph();
  const TicketLedger ledger = TicketLedger::from_agreements(g);

  // A->B [0.4,0.6] becomes M-Ticket (face 40) + O-Ticket (face 20) against
  // a face-100 currency — Figure 3's literal ticket faces.
  ASSERT_EQ(ledger.tickets().size(), 4u);
  EXPECT_DOUBLE_EQ(ledger.tickets()[0].face_value, 40.0);
  EXPECT_EQ(ledger.tickets()[0].kind, TicketKind::kMandatory);
  EXPECT_DOUBLE_EQ(ledger.tickets()[1].face_value, 20.0);
  EXPECT_EQ(ledger.tickets()[1].kind, TicketKind::kOptional);

  std::vector<Principal> principals{{"A", 1000.0}, {"B", 1500.0}, {"C", 0.0}};
  const AgreementGraph back = ledger.to_agreements(principals);
  for (PrincipalId i = 0; i < g.size(); ++i) {
    for (PrincipalId j = 0; j < g.size(); ++j) {
      EXPECT_NEAR(back.lower_bound(i, j), g.lower_bound(i, j), 1e-12);
      EXPECT_NEAR(back.upper_bound(i, j), g.upper_bound(i, j), 1e-12);
    }
  }
}

TEST(TicketLedger, CurrencyInflationRescalesAgreements) {
  // Doubling the face value of A's currency halves the fraction each
  // outstanding ticket conveys (§2.3's inflation lever).
  const AgreementGraph g = figure3_graph();
  TicketLedger ledger = TicketLedger::from_agreements(g);
  ledger.reissue_currency(0, 200.0);

  std::vector<Principal> principals{{"A", 1000.0}, {"B", 1500.0}, {"C", 0.0}};
  const AgreementGraph back = ledger.to_agreements(principals);
  EXPECT_NEAR(back.lower_bound(0, 1), 0.2, 1e-12);
  EXPECT_NEAR(back.upper_bound(0, 1), 0.3, 1e-12);
  // B's agreements are untouched.
  EXPECT_NEAR(back.lower_bound(1, 2), 0.6, 1e-12);
}

TEST(TicketLedger, RejectsOverIssuedMandatoryTickets) {
  TicketLedger ledger;
  ledger.set_currency(0, 100.0);
  ledger.issue(TicketKind::kMandatory, 0, 1, 70.0);
  EXPECT_THROW(ledger.issue(TicketKind::kMandatory, 0, 2, 40.0),
               ContractViolation);
  // Optional tickets are not limited by the mandatory budget.
  ledger.issue(TicketKind::kOptional, 0, 2, 40.0);
}

TEST(TicketLedger, FractionUsesIssuerFaceValue) {
  TicketLedger ledger;
  ledger.set_currency(0, 400.0);
  ledger.issue(TicketKind::kMandatory, 0, 1, 100.0);
  EXPECT_DOUBLE_EQ(ledger.fraction(ledger.tickets()[0]), 0.25);
}

// --- Property sweep over random acyclic graphs ---------------------------

class FlowPropertyTest : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(FlowPropertyTest, ConservationAndBounds) {
  Rng rng(GetParam());
  const std::size_t n = 2 + rng.bounded(5);  // 2..6 principals
  AgreementGraph g;
  for (std::size_t i = 0; i < n; ++i)
    g.add_principal("P" + std::to_string(i), rng.uniform(10.0, 1000.0));
  // Random DAG: edges only i -> j with i < j, respecting the lb budget.
  for (PrincipalId i = 0; i < n; ++i) {
    double budget = 1.0;
    for (PrincipalId j = i + 1; j < n; ++j) {
      if (!rng.chance(0.5)) continue;
      const double lb = rng.uniform(0.0, budget * 0.8);
      const double ub = rng.uniform(lb, 1.0);
      if (ub <= 0.0) continue;
      g.set_agreement(i, j, lb, ub);
      budget -= lb;
    }
  }

  const AccessLevels levels = compute_access_levels(g);

  // Mandatory capacity is conserved: sum MC_i == total physical capacity.
  double mc_total = 0.0;
  for (PrincipalId i = 0; i < n; ++i) mc_total += levels.mandatory_capacity[i];
  double capacity_total = 0.0;
  for (PrincipalId i = 0; i < n; ++i) capacity_total += g.capacity(i);
  EXPECT_NEAR(mc_total, capacity_total, 1e-6);

  // Every entitlement column partitions its server.
  for (PrincipalId k = 0; k < n; ++k) {
    double col = 0.0;
    for (PrincipalId i = 0; i < n; ++i)
      col += levels.mandatory_entitlement(i, k);
    EXPECT_NEAR(col, g.capacity(k), 1e-6);
  }

  // Nothing is negative, and transfers never exceed 1.
  for (PrincipalId i = 0; i < n; ++i) {
    EXPECT_GE(levels.mandatory_capacity[i], -1e-9);
    EXPECT_GE(levels.optional_capacity[i], -1e-9);
    for (PrincipalId j = 0; j < n; ++j) {
      EXPECT_GE(levels.mandatory_transfer(i, j), -1e-12);
      EXPECT_LE(levels.mandatory_transfer(i, j), 1.0 + 1e-9);
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, FlowPropertyTest,
                         ::testing::Range<std::uint64_t>(1, 41));

}  // namespace
}  // namespace sharegrid::core
