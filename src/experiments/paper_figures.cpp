#include "experiments/paper_figures.hpp"

#include <cmath>
#include <sstream>

#include "util/assert.hpp"

namespace sharegrid::experiments {
namespace {

/// L7 per-client generation limit (WebBench + redirect proxy, §5 footnote).
constexpr double kL7ClientRate = 135.0;
/// L4 per-client generation limit (raw WebBench).
constexpr double kL4ClientRate = 400.0;

core::AgreementGraph provider_graph(double lb_a, double ub_a, double lb_b,
                                    double ub_b) {
  core::AgreementGraph g;
  const auto s = g.add_principal("S", 0.0);
  const auto a = g.add_principal("A", 0.0);
  const auto b = g.add_principal("B", 0.0);
  g.set_agreement(s, a, lb_a, ub_a);
  g.set_agreement(s, b, lb_b, ub_b);
  return g;
}

}  // namespace

FigureExperiment figure6() {
  FigureExperiment fig;
  fig.id = "fig6";
  fig.title =
      "L7: sharing agreements respected (A [0.2,1] x2 clients, B [0.8,1] x1, "
      "V=320)";
  ScenarioConfig& c = fig.config;
  c.graph = provider_graph(0.2, 1.0, 0.8, 1.0);
  c.layer = Layer::kL7;
  c.scheduler = SchedulerKind::kResponseTime;
  c.redirector_count = 2;
  c.servers = {{"S", 320.0}};
  c.clients = {
      {"C1", "A", 0, kL7ClientRate, {{0.0, 360.0}}},
      {"C2", "A", 0, kL7ClientRate, {{0.0, 360.0}}},
      {"C3", "B", 1, kL7ClientRate, {{0.0, 120.0}, {240.0, 360.0}}},
  };
  c.phases = {{"phase1 (A+B)", 20.0, 115.0},
              {"phase2 (A only)", 145.0, 235.0},
              {"phase3 (A+B)", 265.0, 355.0}};
  c.duration_sec = 360.0;
  // Paper: phase1 B (one client, below its 256 mandatory) is fully served at
  // ~135; A absorbs the remainder (~185). Phase2: A alone, limited to ~270
  // by its two clients. Phase3 repeats phase1.
  fig.expectations = {
      {0, "A", 185.0, 0.12}, {0, "B", 135.0, 0.10},
      {1, "A", 270.0, 0.10}, {1, "B", 0.0, 0.0},
      {2, "A", 185.0, 0.12}, {2, "B", 135.0, 0.10},
  };
  return fig;
}

FigureExperiment figure7() {
  FigureExperiment fig;
  fig.id = "fig7";
  fig.title =
      "L7: minimize global response time (both [0.2,1], V=250; optional "
      "capacity splits in proportion to demand)";
  ScenarioConfig& c = fig.config;
  c.graph = provider_graph(0.2, 1.0, 0.2, 1.0);
  c.layer = Layer::kL7;
  c.scheduler = SchedulerKind::kResponseTime;
  c.redirector_count = 2;
  c.servers = {{"S", 250.0}};
  c.clients = {
      {"C1", "A", 0, kL7ClientRate, {{0.0, 150.0}}},
      {"C2", "A", 0, kL7ClientRate, {{0.0, 150.0}}},
      {"C3", "B", 1, kL7ClientRate, {{0.0, 150.0}}},
  };
  c.phases = {{"steady", 20.0, 145.0}};
  c.duration_sec = 150.0;
  // A has twice B's client population, so the max-min plan processes A's
  // requests at twice B's rate: 250 split 2:1.
  fig.expectations = {{0, "A", 166.7, 0.10}, {0, "B", 83.3, 0.10}};
  return fig;
}

FigureExperiment figure8() {
  FigureExperiment fig;
  fig.id = "fig8";
  fig.title =
      "L7 + 10 s combining-tree lag (A [0.8,1], B [0.2,1], V=320): "
      "conservative start, graceful adaptation";
  ScenarioConfig& c = fig.config;
  c.graph = provider_graph(0.8, 1.0, 0.2, 1.0);
  c.layer = Layer::kL7;
  c.scheduler = SchedulerKind::kResponseTime;
  c.redirector_count = 2;
  c.servers = {{"S", 320.0}};
  c.clients = {
      {"C1", "A", 0, kL7ClientRate, {{60.0, 160.0}}},
      {"C2", "A", 0, kL7ClientRate, {{60.0, 160.0}}},
      {"C3", "B", 1, kL7ClientRate, {{0.0, 250.0}}},
  };
  // Redirectors are leaves under a virtual root with 5 s links, so each
  // receives aggregates lagging 10 s (the paper's deliberate delay).
  c.tree_link_delay = 5 * kSecond;
  c.phases = {{"phase1 (no info: half mandatory)", 2.0, 9.0},
              {"phase2 (B alone, full server)", 15.0, 58.0},
              {"phase3 (contention during lag)", 61.0, 69.0},
              {"phase4 (agreements enforced)", 75.0, 158.0},
              {"phase5 (lag after A stops)", 161.0, 169.0},
              {"phase6 (B alone again)", 175.0, 248.0}};
  c.duration_sec = 250.0;
  // Phase1: B admits half its 64 req/s mandatory = ~32 until the first
  // aggregate lands (~10 s). Phase2: B limited only by its single client.
  // Phase4: A 80% of 320 = ~256, B ~64. Phase6: back to ~135.
  fig.expectations = {
      {0, "B", 32.0, 0.20},  {1, "B", 135.0, 0.10}, {3, "A", 256.0, 0.12},
      {3, "B", 64.0, 0.25},  {5, "B", 135.0, 0.10}, {5, "A", 0.0, 0.0},
  };
  return fig;
}

FigureExperiment figure9() {
  FigureExperiment fig;
  fig.id = "fig9";
  fig.title =
      "L4: community sharing (A and B own 320 each; B shares [0.5,0.5] "
      "with A; A runs 2/0/1/0 clients)";
  ScenarioConfig& c = fig.config;
  core::AgreementGraph g;
  const auto a = g.add_principal("A", 0.0);
  const auto b = g.add_principal("B", 0.0);
  g.set_agreement(b, a, 0.5, 0.5);
  c.graph = g;
  c.layer = Layer::kL4;
  c.scheduler = SchedulerKind::kResponseTime;
  c.redirector_count = 1;
  c.servers = {{"A", 320.0}, {"B", 320.0}};
  c.clients = {
      {"C1", "A", 0, kL4ClientRate, {{0.0, 125.0}, {250.0, 375.0}}},
      {"C2", "A", 0, kL4ClientRate, {{0.0, 125.0}}},
      {"C3", "B", 0, kL4ClientRate, {{0.0, 500.0}}},
  };
  c.phases = {{"phase1 (A x2)", 15.0, 120.0},
              {"phase2 (A off)", 140.0, 245.0},
              {"phase3 (A x1)", 265.0, 370.0},
              {"phase4 (A off)", 390.0, 495.0}};
  c.duration_sec = 500.0;
  // Phase1: A = own 320 + half of B's = 480; B = 160. Phase2: B = 320.
  // Phase3: A limited to ~400 by one client; B = 240 (its server only needs
  // to carry 80 of A's requests). Phase4: B = 320.
  fig.expectations = {
      {0, "A", 480.0, 0.10}, {0, "B", 160.0, 0.10}, {1, "B", 320.0, 0.10},
      {1, "A", 0.0, 0.0},    {2, "A", 400.0, 0.10}, {2, "B", 240.0, 0.10},
      {3, "B", 320.0, 0.10},
  };
  return fig;
}

FigureExperiment figure10() {
  FigureExperiment fig;
  fig.id = "fig10";
  fig.title =
      "L4: maximize provider income (two 320 servers; A [0.8,1] pays more "
      "than B [0.2,1])";
  ScenarioConfig& c = fig.config;
  c.graph = provider_graph(0.8, 1.0, 0.2, 1.0);
  c.layer = Layer::kL4;
  c.scheduler = SchedulerKind::kIncome;
  c.prices = {0.0, 2.0, 1.0};  // S, A, B — A pays more per extra request
  c.redirector_count = 1;
  c.servers = {{"S", 320.0}, {"S", 320.0}};
  c.clients = {
      {"C1", "A", 0, kL4ClientRate, {{0.0, 125.0}, {250.0, 375.0}}},
      {"C2", "A", 0, kL4ClientRate, {{0.0, 125.0}}},
      {"C3", "B", 0, kL4ClientRate, {{0.0, 500.0}}},
  };
  c.phases = {{"phase1 (A x2)", 15.0, 120.0},
              {"phase2 (A off)", 140.0, 245.0},
              {"phase3 (A x1)", 265.0, 370.0},
              {"phase4 (A off)", 390.0, 495.0}};
  c.duration_sec = 500.0;
  // Phase1: B held to its 20% mandatory (128); A takes the rest (512).
  // Phase2: B alone, limited to ~400 by one client. Phase3: A's 400 get
  // first preference; B absorbs the remaining 240. Phase4 repeats phase2.
  fig.expectations = {
      {0, "A", 512.0, 0.10}, {0, "B", 128.0, 0.10}, {1, "B", 400.0, 0.10},
      {2, "A", 400.0, 0.10}, {2, "B", 240.0, 0.10}, {3, "B", 400.0, 0.10},
  };
  return fig;
}

std::vector<FigureExperiment> all_figures() {
  return {figure6(), figure7(), figure8(), figure9(), figure10()};
}

bool check_figure(const FigureExperiment& figure, const ScenarioResult& result,
                  std::vector<std::string>* failures) {
  bool ok = true;
  for (const PhaseExpectation& e : figure.expectations) {
    std::size_t principal = result.principal_names.size();
    for (std::size_t p = 0; p < result.principal_names.size(); ++p)
      if (result.principal_names[p] == e.principal) principal = p;
    SHAREGRID_EXPECTS(principal < result.principal_names.size());

    const double measured = result.phase_served(e.phase, principal);
    // Zero expectations use a small absolute band instead of a relative one.
    const double allowed = e.expected_rate == 0.0
                               ? 5.0
                               : e.expected_rate * e.rel_tolerance;
    if (std::abs(measured - e.expected_rate) > allowed) {
      ok = false;
      if (failures != nullptr) {
        std::ostringstream os;
        os << figure.id << " " << figure.config.phases[e.phase].name << " "
           << e.principal << ": expected " << e.expected_rate << " +/- "
           << allowed << ", measured " << measured;
        failures->push_back(os.str());
      }
    }
  }
  return ok;
}

}  // namespace sharegrid::experiments
