// Service-provider example: one provider, two customers with different
// prices, income-maximizing admission (the paper's §3.1.2 second metric).
// Shows both the window-level planning API and a full simulated run.
//
//   $ ./provider_income
#include <iostream>

#include "core/flow.hpp"
#include "experiments/scenario.hpp"
#include "sched/income_scheduler.hpp"
#include "util/table.hpp"

int main() {
  using namespace sharegrid;
  using namespace sharegrid::experiments;

  // Provider with 640 req/s; gold pays 2.0 per extra request, bronze 1.0.
  core::AgreementGraph graph;
  const auto provider = graph.add_principal("provider", 640.0);
  const auto gold = graph.add_principal("gold", 0.0);
  const auto bronze = graph.add_principal("bronze", 0.0);
  graph.set_agreement(provider, gold, 0.5, 1.0);
  graph.set_agreement(provider, bronze, 0.2, 0.8);

  // --- Window-level planning --------------------------------------------
  const core::AccessLevels levels = core::compute_access_levels(graph);
  const sched::IncomeScheduler scheduler(graph, levels, {0.0, 2.0, 1.0});

  std::cout << "Single-window plans (provider capacity 640):\n";
  TextTable table({"demand gold/bronze", "gold", "bronze", "income"});
  for (const auto& [dg, db] : std::vector<std::pair<double, double>>{
           {100.0, 100.0}, {600.0, 600.0}, {50.0, 600.0}}) {
    std::vector<double> demand{0.0, dg, db};
    const sched::Plan plan = scheduler.plan(demand);
    table.add_row({TextTable::num(dg, 0) + "/" + TextTable::num(db, 0),
                   TextTable::num(plan.admitted(gold)),
                   TextTable::num(plan.admitted(bronze)),
                   TextTable::num(scheduler.income(plan))});
  }
  table.print(std::cout);
  std::cout << "\nUnder overload the gold customer gets every request beyond "
               "the mandatory floors;\nbronze is held at its guarantee — "
               "exactly the paper's income-maximizing policy.\n\n";

  // --- Full simulated run -------------------------------------------------
  ScenarioConfig config;
  config.graph = graph;
  config.layer = Layer::kL4;
  config.scheduler = SchedulerKind::kIncome;
  config.prices = {0.0, 2.0, 1.0};
  config.servers = {{"provider", 320.0}, {"provider", 320.0}};
  config.clients = {
      {"gold-1", "gold", 0, 400.0, {{0.0, 60.0}}},
      {"gold-2", "gold", 0, 400.0, {{0.0, 60.0}}},
      {"bronze-1", "bronze", 0, 400.0, {{0.0, 120.0}}},
  };
  config.phases = {{"both loaded", 10.0, 55.0}, {"gold idle", 70.0, 115.0}};
  config.duration_sec = 120.0;

  const ScenarioResult result = run_scenario(config);
  std::cout << "Simulated run:\n";
  result.phase_table().print(std::cout);
  std::cout << "\nWhile gold is loaded, bronze is held near its 128 req/s "
               "floor; once gold idles,\nbronze expands into the freed "
               "capacity (bounded by its 0.8 upper bound).\n";
  return 0;
}
