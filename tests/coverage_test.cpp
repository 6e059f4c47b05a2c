// Additional end-to-end and property coverage for paths the module tests
// exercise only lightly: explicit-queue L7 with coordination, and ticket
// round-trip sweeps.
#include <gtest/gtest.h>

#include <algorithm>
#include <sstream>

#include "core/flow.hpp"
#include "core/ticket.hpp"
#include "experiments/paper_figures.hpp"
#include "experiments/scenario.hpp"
#include "util/rng.hpp"

namespace sharegrid {
namespace {

TEST(ExplicitQueueL7, CoordinatesAcrossRedirectorsLikeCreditMode) {
  // The ablation compares throughput; this checks *correctness*: the
  // explicit-queue implementation still honours agreements when two
  // redirectors coordinate through the tree.
  experiments::FigureExperiment figure = experiments::figure6();
  figure.config.l7_mode = nodes::L7Redirector::Mode::kExplicitQueue;
  figure.config.duration_sec = 120.0;
  figure.config.phases = {{"phase1", 20.0, 115.0}};
  const auto result = experiments::run_scenario(figure.config);
  // B (one client, under its mandatory) must still be fully served; A
  // takes most of the remainder, modulo the bunching losses the paper
  // describes (which is why they abandoned this design).
  EXPECT_NEAR(result.phase_served(0, 2), 135.0, 14.0);
  EXPECT_GT(result.phase_served(0, 1), 100.0);
  EXPECT_LE(result.phase_served(0, 1), 190.0);
}

class TicketRoundTripTest : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(TicketRoundTripTest, LedgerAgreementEquivalence) {
  // Property: graph -> ledger -> graph is the identity (within fp), for
  // arbitrary valid agreement structures and arbitrary currency faces.
  Rng rng(GetParam());
  core::AgreementGraph g;
  const std::size_t n = 2 + rng.bounded(5);
  std::vector<core::Principal> principals;
  for (std::size_t i = 0; i < n; ++i) {
    const double cap = rng.uniform(0.0, 500.0);
    g.add_principal("P" + std::to_string(i), cap);
    principals.push_back({"P" + std::to_string(i), cap});
  }
  for (core::PrincipalId i = 0; i < n; ++i) {
    double budget = 1.0;
    for (core::PrincipalId j = 0; j < n; ++j) {
      if (i == j || !rng.chance(0.5)) continue;
      const double lb = rng.uniform(0.0, budget * 0.5);
      const double ub = rng.uniform(lb, 1.0);
      if (ub <= 0.0) continue;
      g.set_agreement(i, j, lb, ub);
      budget -= lb;
    }
  }

  const double face = rng.uniform(1.0, 1000.0);
  const auto ledger = core::TicketLedger::from_agreements(g, face);
  const core::AgreementGraph back = ledger.to_agreements(principals);
  for (core::PrincipalId i = 0; i < n; ++i) {
    for (core::PrincipalId j = 0; j < n; ++j) {
      EXPECT_NEAR(back.lower_bound(i, j), g.lower_bound(i, j), 1e-9);
      EXPECT_NEAR(back.upper_bound(i, j), g.upper_bound(i, j), 1e-9);
    }
  }

  // The flow analysis is invariant under the representation round trip.
  const auto direct = core::compute_access_levels(g);
  const auto via_tickets = core::compute_access_levels(back);
  for (core::PrincipalId i = 0; i < n; ++i) {
    EXPECT_NEAR(direct.mandatory_capacity[i],
                via_tickets.mandatory_capacity[i], 1e-6);
    EXPECT_NEAR(direct.optional_capacity[i],
                via_tickets.optional_capacity[i], 1e-6);
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, TicketRoundTripTest,
                         ::testing::Range<std::uint64_t>(1, 13));

TEST(ScenarioResultTables, SeriesAndCsvShapes) {
  experiments::FigureExperiment figure = experiments::figure9();
  figure.config.duration_sec = 12.0;
  figure.config.phases = {{"p", 2.0, 10.0}};
  const auto result = experiments::run_scenario(figure.config);

  const TextTable series = result.series_table();
  EXPECT_GE(series.row_count(), 11u);
  std::ostringstream csv;
  series.print_csv(csv);
  const std::string text = csv.str();
  // Header + one line per row, comma-separated.
  EXPECT_EQ(static_cast<std::size_t>(std::count(text.begin(), text.end(), '\n')),
            series.row_count() + 1);
  EXPECT_NE(text.find("time_s,A_req_s,B_req_s"), std::string::npos);
}

}  // namespace
}  // namespace sharegrid
