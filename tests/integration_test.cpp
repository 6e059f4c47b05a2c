// Integration tests: full simulated experiments, including every paper
// figure, distributed-vs-centralized equivalence, and determinism.
#include <gtest/gtest.h>

#include <memory>
#include <optional>
#include <vector>

#include "experiments/paper_figures.hpp"
#include "experiments/scenario.hpp"
#include "experiments/scenario_assembly.hpp"
#include "test_helpers.hpp"

namespace sharegrid::experiments {
namespace {

// Every figure in the paper's evaluation must reproduce its shape. These are
// the same checks the bench binaries enforce, wired into ctest.
class PaperFigureTest : public ::testing::TestWithParam<std::size_t> {};

TEST_P(PaperFigureTest, ShapeMatchesPaper) {
  const FigureExperiment figure = all_figures()[GetParam()];
  const ScenarioResult result = run_scenario(figure.config);
  std::vector<std::string> failures;
  EXPECT_TRUE(check_figure(figure, result, &failures));
  for (const auto& f : failures) ADD_FAILURE() << f;
}

INSTANTIATE_TEST_SUITE_P(AllFigures, PaperFigureTest,
                         ::testing::Range<std::size_t>(0, 5),
                         [](const auto& param_info) {
                           return all_figures()[param_info.param].id;
                         });

TEST(Integration, DeterministicAcrossRuns) {
  const FigureExperiment figure = figure9();
  const ScenarioResult a = run_scenario(figure.config);
  const ScenarioResult b = run_scenario(figure.config);
  for (std::size_t p = 0; p < a.principal_names.size(); ++p) {
    ASSERT_EQ(a.metrics.served(p).bin_count(), b.metrics.served(p).bin_count());
    for (std::size_t bin = 0; bin < a.metrics.served(p).bin_count(); ++bin)
      EXPECT_EQ(a.metrics.served(p).events_in_bin(bin),
                b.metrics.served(p).events_in_bin(bin));
  }
}

TEST(Integration, SeedChangesNoiseNotShape) {
  FigureExperiment figure = figure9();
  figure.config.seed = 987654321;
  const ScenarioResult result = run_scenario(figure.config);
  std::vector<std::string> failures;
  EXPECT_TRUE(check_figure(figure, result, &failures));
  for (const auto& f : failures) ADD_FAILURE() << f;
}

TEST(Integration, DistributedMatchesCentralized) {
  // The paper's §3.2 claim: redirectors acting on global aggregates make the
  // same decisions a single all-seeing redirector would. Split figure 6's
  // clients across 1 vs 2 redirectors (zero tree delay) and compare phases.
  FigureExperiment centralized = figure6();
  centralized.config.redirector_count = 1;
  for (auto& client : centralized.config.clients) client.redirector = 0;

  const ScenarioResult one = run_scenario(centralized.config);
  const ScenarioResult two = run_scenario(figure6().config);

  for (std::size_t phase = 0; phase < one.phase_reports.size(); ++phase) {
    for (std::size_t p = 0; p < one.principal_names.size(); ++p) {
      const double a = one.phase_served(phase, p);
      const double b = two.phase_served(phase, p);
      EXPECT_NEAR(a, b, std::max(8.0, 0.08 * std::max(a, b)))
          << "phase " << phase << " principal " << one.principal_names[p];
    }
  }
}

TEST(Integration, ScenarioValidatesItsInputs) {
  ScenarioConfig config;  // empty: no servers/clients
  EXPECT_THROW(run_scenario(config), ContractViolation);

  FigureExperiment figure = figure9();
  figure.config.clients[0].principal = "does-not-exist";
  EXPECT_THROW(run_scenario(figure.config), ContractViolation);

  FigureExperiment f2 = figure9();
  f2.config.clients[0].redirector = 99;
  EXPECT_THROW(run_scenario(f2.config), ContractViolation);
}

TEST(Integration, ReportsCoordinationTraffic) {
  const ScenarioResult result = run_scenario(figure6().config);
  // Two leaves under a virtual root: 4 messages per round, one round per
  // 100 ms window over 360 s.
  EXPECT_NEAR(static_cast<double>(result.coordination_messages),
              4.0 * 3600.0, 40.0);
}

TEST(Integration, SeriesAndPhaseTablesAreWellFormed) {
  const ScenarioResult result = run_scenario(figure7().config);
  const TextTable series = result.series_table();
  EXPECT_GE(series.row_count(), 149u);
  const TextTable phases = result.phase_table();
  EXPECT_EQ(phases.row_count(), 1u);
}

// collect_result is the one place a run's LP plan fallbacks are counted: it
// adds every member's window-scheduler count, from every domain.
TEST(Integration, ResultCountsEveryMembersPlanFallbacks) {
  ScenarioConfig config;
  config.graph.add_principal("A", 0.0);
  config.servers = {{"A", 100.0}};
  config.redirector_count = 2;
  const core::AgreementGraph graph = planning_graph(config, 1);
  sim::Simulator sim;
  auto fallback = [] {
    return std::make_unique<test::FallbackScheduler>(std::vector<double>{50.0});
  };
  Domain first(config, graph, &sim, fallback(), std::nullopt);
  Domain second(config, graph, &sim, fallback(), std::nullopt);
  first.start_windows();
  second.start_windows();
  sim.run_until(seconds(1.0));
  // Ten windows (0.1 s to 1 s) for each of the four members.
  const ScenarioResult result =
      collect_result(config, graph, {&first, &second}, 0);
  EXPECT_EQ(result.metrics.plan_fallbacks(), 40u);
}

}  // namespace
}  // namespace sharegrid::experiments
