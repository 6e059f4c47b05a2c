// Tests for the per-window decision trace.
#include <gtest/gtest.h>

#include "experiments/paper_figures.hpp"
#include "experiments/scenario.hpp"
#include "nodes/window_trace.hpp"

namespace sharegrid::nodes {
namespace {

TEST(WindowTrace, RecordsAndCaps) {
  WindowTrace trace(/*max_rows=*/3);
  for (int i = 0; i < 5; ++i) {
    WindowTrace::Row row;
    row.window_start = seconds(i);
    row.redirector = "r0";
    trace.record(std::move(row));
  }
  EXPECT_EQ(trace.rows().size(), 3u);
  EXPECT_EQ(trace.dropped(), 2u);
}

TEST(WindowTrace, ScenarioPopulatesTrace) {
  experiments::FigureExperiment figure = experiments::figure9();
  figure.config.duration_sec = 10.0;
  figure.config.phases.clear();
  figure.config.trace_windows = true;
  const auto result = experiments::run_scenario(figure.config);

  // One redirector, 100 ms windows over 10 s: ~100 rows.
  EXPECT_NEAR(static_cast<double>(result.window_trace.rows().size()), 100.0,
              3.0);
  const auto& row = result.window_trace.rows().back();
  EXPECT_EQ(row.local_demand.size(), 2u);
  EXPECT_EQ(row.planned_rate.size(), 2u);
  // Under phase-1 load the plan grants A its 480 and B its 160.
  EXPECT_NEAR(row.planned_rate[0], 480.0, 48.0);
  EXPECT_NEAR(row.planned_rate[1], 160.0, 20.0);
}

TEST(WindowTrace, DisabledByDefault) {
  experiments::FigureExperiment figure = experiments::figure9();
  figure.config.duration_sec = 5.0;
  figure.config.phases.clear();
  const auto result = experiments::run_scenario(figure.config);
  EXPECT_TRUE(result.window_trace.rows().empty());
}

}  // namespace
}  // namespace sharegrid::nodes
