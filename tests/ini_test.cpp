// Unit tests for the INI reader and the scenario-file loader.
#include <gtest/gtest.h>

#include <algorithm>
#include <filesystem>
#include <string>
#include <vector>

#include "experiments/scenario_ini.hpp"
#include "util/assert.hpp"
#include "util/ini.hpp"

namespace sharegrid {
namespace {

TEST(Ini, ParsesGlobalAndSections) {
  const IniDocument doc = parse_ini(
      "speed = 3.5\n"
      "# a comment\n"
      "[alpha]\n"
      "name = first ; trailing comment\n"
      "[beta]\n"
      "flag = true\n");
  EXPECT_DOUBLE_EQ(*doc.global.get_double("speed"), 3.5);
  ASSERT_EQ(doc.sections.size(), 2u);
  EXPECT_EQ(*doc.sections[0].get_string("name"), "first");
  EXPECT_EQ(*doc.sections[1].get_string("flag"), "true");
}

TEST(Ini, RepeatedSectionsKeepOrder) {
  const IniDocument doc = parse_ini(
      "[client]\nname = a\n[client]\nname = b\n[other]\nx = 1\n");
  const auto clients = doc.all("client");
  ASSERT_EQ(clients.size(), 2u);
  EXPECT_EQ(*clients[0]->get_string("name"), "a");
  EXPECT_EQ(*clients[1]->get_string("name"), "b");
  EXPECT_EQ(doc.all("other").size(), 1u);
  EXPECT_TRUE(doc.all("missing").empty());
}

TEST(Ini, MissingKeysAreNullopt) {
  const IniDocument doc = parse_ini("a = 1\n");
  EXPECT_FALSE(doc.global.get_double("b").has_value());
  EXPECT_FALSE(doc.global.get_string("b").has_value());
}

TEST(Ini, MalformedInputsThrowWithLineNumbers) {
  EXPECT_THROW(parse_ini("[unterminated\n"), ContractViolation);
  EXPECT_THROW(parse_ini("[]\n"), ContractViolation);
  EXPECT_THROW(parse_ini("no equals sign\n"), ContractViolation);
  EXPECT_THROW(parse_ini("= value-without-key\n"), ContractViolation);
  EXPECT_THROW(parse_ini("a = 1\na = 2\n"), ContractViolation);
  try {
    parse_ini("ok = 1\nbroken line\n");
    FAIL() << "expected throw";
  } catch (const ContractViolation& e) {
    EXPECT_NE(std::string(e.what()).find("line 2"), std::string::npos);
  }
}

TEST(Ini, TypedGettersRejectGarbage) {
  const IniDocument doc = parse_ini("n = abc\n");
  EXPECT_THROW(doc.global.get_double("n"), ContractViolation);
}

TEST(Ini, RequireVariantsNameTheMissingKey) {
  const IniDocument doc = parse_ini("[server]\ncapacity = 320\n");
  try {
    doc.sections[0].require_string("owner");
    FAIL() << "expected throw";
  } catch (const ContractViolation& e) {
    EXPECT_NE(std::string(e.what()).find("owner"), std::string::npos);
  }
  EXPECT_DOUBLE_EQ(doc.sections[0].require_double("capacity"), 320.0);
}

// --- Scenario loading --------------------------------------------------------

constexpr const char* kMinimalScenario = R"ini(
layer = l4
scheduler = response_time
duration = 30
[principal]
name = A
[principal]
name = B
[agreement]
owner = B
user = A
lower = 0.5
upper = 0.5
[server]
owner = A
capacity = 320
[server]
owner = B
capacity = 320
[client]
name = C1
principal = A
redirector = 0
rate = 400
active = 0-10, 20-30
[phase]
name = p1
start = 1
end = 9
)ini";

TEST(ScenarioIni, BuildsFullConfig) {
  using namespace experiments;
  const ScenarioConfig config = scenario_from_ini(parse_ini(kMinimalScenario));
  EXPECT_EQ(config.layer, Layer::kL4);
  EXPECT_EQ(config.scheduler, SchedulerKind::kResponseTime);
  EXPECT_DOUBLE_EQ(config.duration_sec, 30.0);
  EXPECT_EQ(config.graph.size(), 2u);
  EXPECT_DOUBLE_EQ(config.graph.lower_bound(1, 0), 0.5);
  ASSERT_EQ(config.servers.size(), 2u);
  ASSERT_EQ(config.clients.size(), 1u);
  ASSERT_EQ(config.clients[0].active_sec.size(), 2u);
  EXPECT_DOUBLE_EQ(config.clients[0].active_sec[1].first, 20.0);
  ASSERT_EQ(config.phases.size(), 1u);
}

TEST(ScenarioIni, LoadedScenarioActuallyRuns) {
  using namespace experiments;
  const ScenarioConfig config = scenario_from_ini(parse_ini(kMinimalScenario));
  const ScenarioResult result = run_scenario(config);
  // A alone: its own 320 plus half of B's = 400-capped by the one client.
  EXPECT_NEAR(result.phase_served(0, 0), 400.0, 40.0);
}

TEST(ScenarioIni, IncomeServesACustomerOnItsOwnServer) {
  using namespace experiments;
  // A owns a server beside S's and is entitled to half of S's: MC_A = 150.
  // Income plans every server owner's pool, so A's 300 req/s get both.
  const ScenarioConfig config = scenario_from_ini(parse_ini(R"ini(
layer = l4
scheduler = income
duration = 20
[principal]
name = S
[principal]
name = A
price = 1
[agreement]
owner = S
user = A
lower = 0.5
upper = 0.5
[server]
owner = S
capacity = 100
[server]
owner = A
capacity = 100
[client]
name = A0
principal = A
rate = 300
active = 0-20
[phase]
name = steady
start = 5
end = 20
)ini"));
  const ScenarioResult result = run_scenario(config);
  EXPECT_NEAR(result.phase_served(0, 1), 150.0, 0.02 * 150.0);
}

TEST(ScenarioIni, RejectsUnknownEnumValues) {
  using namespace experiments;
  EXPECT_THROW(scenario_from_ini(parse_ini("layer = l5\n")),
               ContractViolation);
  EXPECT_THROW(scenario_from_ini(parse_ini("scheduler = fastest\n")),
               ContractViolation);
  EXPECT_THROW(scenario_from_ini(parse_ini("stale_policy = hopeful\n")),
               ContractViolation);
}

TEST(ScenarioIni, RejectsDanglingReferences) {
  using namespace experiments;
  const std::string bad_owner = std::string(kMinimalScenario) +
                                "[server]\nowner = nobody\ncapacity = 1\n";
  EXPECT_THROW(scenario_from_ini(parse_ini(bad_owner)), ContractViolation);

  const std::string bad_range =
      std::string(kMinimalScenario) +
      "[client]\nname = X\nprincipal = A\nrate = 1\nactive = 9-3\n";
  EXPECT_THROW(scenario_from_ini(parse_ini(bad_range)), ContractViolation);
}

TEST(ScenarioIni, RequiresCoreSections) {
  using namespace experiments;
  EXPECT_THROW(scenario_from_ini(parse_ini("duration = 5\n")),
               ContractViolation);
  // An income scenario needs no provider list: every server owner is one.
  std::string income = kMinimalScenario;
  income.replace(income.find("response_time"), 13, "income");
  EXPECT_NO_THROW(scenario_from_ini(parse_ini(income)));
}

TEST(ScenarioIni, ControlPlaneSectionSetsCoordinationKnobs) {
  using namespace experiments;
  const std::string text = std::string(kMinimalScenario) +
                           "[control_plane]\n"
                           "tree_fanout = 2\n"
                           "snapshot_period_ms = 200\n";
  const ScenarioConfig config = scenario_from_ini(parse_ini(text));
  EXPECT_EQ(config.tree_fanout, 2u);
  EXPECT_EQ(config.tree_period, 200 * kMillisecond);

  // Omitting the section keeps the defaults.
  const ScenarioConfig bare = scenario_from_ini(parse_ini(kMinimalScenario));
  EXPECT_EQ(bare.tree_fanout, 0u);
  EXPECT_EQ(bare.tree_period, 0);
}

TEST(ScenarioIni, ControlPlaneSectionValidatesRanges) {
  using namespace experiments;
  const auto with_section = [](const std::string& body) {
    return std::string(kMinimalScenario) + "[control_plane]\n" + body;
  };
  // A fanout of 1 would be a degenerate chain, not a combining tree.
  EXPECT_THROW(scenario_from_ini(parse_ini(with_section("tree_fanout = 1\n"))),
               ContractViolation);
  EXPECT_THROW(
      scenario_from_ini(parse_ini(with_section("snapshot_period_ms = 0\n"))),
      ContractViolation);
  EXPECT_THROW(
      scenario_from_ini(parse_ini(with_section("snapshot_period_ms = -5\n"))),
      ContractViolation);
  const std::string duplicated = with_section("tree_fanout = 2\n") +
                                 "[control_plane]\ntree_fanout = 4\n";
  EXPECT_THROW(scenario_from_ini(parse_ini(duplicated)), ContractViolation);
}

TEST(ScenarioIni, RejectsNumbersTheirIntegersCannotHold) {
  using namespace experiments;
  // Every number that feeds an integer: counts, indices and the seed, and
  // the durations and times that become integer microseconds.
  struct Key {
    const char* section;  // "" = global
    const char* key;
    bool whole;  // counts, indices and the seed
  };
  const Key keys[] = {
      {"", "redirectors", true},
      {"", "clusters", true},
      {"", "sim_shards", true},
      {"", "client_scale", true},
      {"", "max_outstanding", true},
      {"", "seed", true},
      {"client", "redirector", true},
      {"capacity_event", "server", true},
      {"control_plane", "tree_fanout", true},
      {"", "duration", false},
      {"", "window_ms", false},
      {"", "tree_link_delay", false},
      {"control_plane", "snapshot_period_ms", false},
      {"phase", "start", false},
      {"phase", "end", false},
      {"capacity_event", "time", false},
  };
  const std::string text =
      std::string(kMinimalScenario) +
      "[control_plane]\n"
      "[capacity_event]\ntime = 1\nserver = 0\ncapacity = 100\n";
  ASSERT_NO_THROW(scenario_from_ini(parse_ini(text)));
  const auto expect_rejected = [](const IniDocument& doc,
                                  const std::string& key,
                                  const std::string& value) {
    try {
      scenario_from_ini(doc);
      ADD_FAILURE() << key << " = " << value << " was accepted";
    } catch (const ContractViolation& e) {
      EXPECT_NE(std::string(e.what()).find(key), std::string::npos)
          << e.what();
    }
  };
  for (const Key& k : keys) {
    std::vector<std::string> values = {"-1", "nan", "1e30"};
    if (k.whole) values.push_back("2.5");
    for (const std::string& value : values) {
      IniDocument doc = parse_ini(text);
      IniSection* section = &doc.global;
      for (IniSection& s : doc.sections)
        if (s.name == k.section) section = &s;
      section->values[k.key] = {value};
      expect_rejected(doc, k.key, value);
    }
  }
  for (const char* range : {"nan-5", "0-nan", "0-1e30"}) {
    IniDocument doc = parse_ini(text);
    for (IniSection& s : doc.sections)
      if (s.name == "client") s.values["active"] = {range};
    expect_rejected(doc, "active", range);
  }
}

TEST(ScenarioIni, RejectsUnknownKeysAndSections) {
  using namespace experiments;
  ASSERT_NO_THROW(scenario_from_ini(parse_ini(kMinimalScenario)));
  // A key or section the loader never reads would otherwise leave its
  // setting at the default in silence; the error names it and, inside a
  // section, the section's line.
  const auto expect_rejected = [](const std::string& text,
                                  const std::string& named) {
    try {
      scenario_from_ini(parse_ini(text));
      ADD_FAILURE() << "accepted: " << named;
    } catch (const ContractViolation& e) {
      EXPECT_NE(std::string(e.what()).find(named), std::string::npos)
          << e.what();
    }
  };
  const std::string minimal = kMinimalScenario;
  expect_rejected("tree_link_dealy = 5\n" + minimal, "tree_link_dealy");
  expect_rejected("plan_solver_threads = 2\n" + minimal,
                  "plan_solver_threads");
  expect_rejected("weighted_admission = true\n" + minimal,
                  "weighted_admission");
  expect_rejected("provider = S\n" + minimal, "unknown key provider");
  // Income plans every server owner's pool, so nothing names providers.
  expect_rejected("providers = A\n" + minimal, "unknown key providers");
  // The socket membership timings are the multi-process demo's constants.
  for (const char* key : {"lease_ttl_ms", "heartbeat_ms", "reconnect_base_ms",
                          "reconnect_max_ms", "election_enabled",
                          "allow_nonlocal"})
    expect_rejected(minimal + "[control_plane]\n" + key + " = 1\n",
                    std::string("unknown key control_plane.") + key);
  // A third [server] block, opening on the line after the minimal text.
  const std::string server_line =
      std::to_string(std::count(minimal.begin(), minimal.end(), '\n') + 1);
  expect_rejected(minimal + "[server]\nowner = A\ncapacity = 320\n"
                            "capactiy = 20\n",
                  "server.capactiy (line " + server_line + ")");
  expect_rejected(minimal + "[controlplane]\ntree_fanout = 2\n",
                  "[controlplane]");
}

TEST(ScenarioIni, EveryExampleScenarioLoads) {
  using namespace experiments;
  // Loads, and runs none of, every examples/scenarios/*.ini, so a key the
  // loader stops reading fails here, not only in a full run of the file.
  std::vector<std::string> names;
  for (const auto& entry :
       std::filesystem::directory_iterator(SHAREGRID_EXAMPLE_SCENARIOS)) {
    if (entry.path().extension() != ".ini") continue;
    names.push_back(entry.path().filename().string());
    EXPECT_NO_THROW(load_scenario_file(entry.path().string())) << names.back();
  }
  // No other ctest loads million_clients.ini, and only the forking demo
  // loads multi_process.ini.
  for (const char* name : {"million_clients.ini", "multi_process.ini"})
    EXPECT_NE(std::find(names.begin(), names.end(), name), names.end())
        << name;
}

TEST(ScenarioIni, MissingFileThrows) {
  EXPECT_THROW(parse_ini_file("/nonexistent/path.ini"), ContractViolation);
}

}  // namespace
}  // namespace sharegrid
