#include "experiments/scenario_ini.hpp"

#include <algorithm>
#include <array>
#include <cmath>
#include <cstdint>
#include <sstream>
#include <string_view>

#include "util/assert.hpp"

namespace sharegrid::experiments {
namespace {

[[noreturn]] void fail(const std::string& message) {
  throw ContractViolation("scenario: " + message);
}

/// How errors name a key: "seed", "control_plane.tree_fanout (line 7)".
std::string named(const IniSection& section, const std::string& key) {
  if (section.name.empty()) return key;
  return section.name + "." + key + " (line " + std::to_string(section.line) +
         ")";
}

/// The one check every INI number that feeds an integer passes. Casting a
/// NaN, negative or out-of-range double to an integer is undefined, and a
/// fractional count would be truncated silently, so this fails, naming the
/// key, unless @p value is finite, in [min, limit) and, when @p whole, a
/// whole number.
double checked(double value, const std::string& key, double min, double limit,
               bool whole) {
  if (std::isfinite(value) && value >= min && value < limit &&
      (!whole || value == std::trunc(value)))
    return value;
  std::ostringstream message;
  message << key << " must be a finite " << (whole ? "whole " : "")
          << "number in [" << min << ", " << limit << "), got " << value;
  fail(message.str());
}

/// A count, index or seed: a whole number in [min, 2^64).
std::uint64_t whole_number(double value, const std::string& key,
                           double min = 0.0) {
  return static_cast<std::uint64_t>(checked(value, key, min, 0x1p64, true));
}

/// A duration or time given in units of @p unit microseconds: >= 0 (> 0
/// when @p positive) and below 2^62 us, so seconds() and milliseconds()
/// convert it without overflow.
double duration(double value, const std::string& key, SimDuration unit,
                bool positive = false) {
  checked(value, key, 0.0, 0x1p62 / static_cast<double>(unit), false);
  if (positive && value == 0.0) fail(key + " must be > 0");
  return value;
}

/// Parses "0-125, 250-375" into second-ranges.
std::vector<std::pair<double, double>> parse_ranges(const std::string& text,
                                                    const std::string& key) {
  std::vector<std::pair<double, double>> out;
  std::stringstream ss(text);
  std::string token;
  while (std::getline(ss, token, ',')) {
    const std::size_t dash = token.find('-');
    if (dash == std::string::npos)
      fail("active range '" + token + "' must look like 'start-end'");
    double start = 0.0;
    double end = 0.0;
    try {
      start = std::stod(token.substr(0, dash));
      end = std::stod(token.substr(dash + 1));
    } catch (const std::exception&) {
      fail("active range '" + token + "' has non-numeric bounds");
    }
    duration(start, key, kSecond);
    duration(end, key, kSecond);
    if (end <= start) fail("active range '" + token + "' is empty");
    out.emplace_back(start, end);
  }
  if (out.empty()) fail("active range list is empty");
  return out;
}

}  // namespace

ScenarioConfig scenario_from_ini(const IniDocument& doc) {
  ScenarioConfig config;
  const IniSection& g = doc.global;

  // --- Global settings -----------------------------------------------------
  if (const auto layer = g.get_string("layer")) {
    if (*layer == "l4")
      config.layer = Layer::kL4;
    else if (*layer == "l7")
      config.layer = Layer::kL7;
    else
      fail("layer must be 'l4' or 'l7', got '" + *layer + "'");
  }
  if (const auto sched_kind = g.get_string("scheduler")) {
    if (*sched_kind == "response_time")
      config.scheduler = SchedulerKind::kResponseTime;
    else if (*sched_kind == "income")
      config.scheduler = SchedulerKind::kIncome;
    else
      fail("scheduler must be 'response_time' or 'income'");
  }
  if (const auto length = g.get_double("duration"))
    config.duration_sec = duration(*length, "duration", kSecond);
  if (const auto window_ms = g.get_double("window_ms"))
    config.window =
        milliseconds(duration(*window_ms, "window_ms", kMillisecond, true));
  if (const auto redirectors = g.get_double("redirectors"))
    config.redirector_count = whole_number(*redirectors, "redirectors", 1.0);
  if (const auto delay = g.get_double("tree_link_delay"))
    config.tree_link_delay =
        seconds(duration(*delay, "tree_link_delay", kSecond));
  // Cluster-partitioned mode: replicate the declared site `clusters` times,
  // one simulation domain each, run on `sim_shards` worker lanes;
  // `client_scale` multiplies every declared client machine (both modes).
  if (const auto clusters = g.get_double("clusters"))
    config.clusters = whole_number(*clusters, "clusters");
  if (const auto shards = g.get_double("sim_shards"))
    config.sim_shards = whole_number(*shards, "sim_shards", 1.0);
  if (const auto scale = g.get_double("client_scale"))
    config.client_scale = whole_number(*scale, "client_scale", 1.0);
  if (const auto policy = g.get_string("stale_policy")) {
    if (*policy == "conservative")
      config.stale_policy = sched::StalePolicy::kConservative;
    else if (*policy == "optimistic")
      config.stale_policy = sched::StalePolicy::kOptimistic;
    else
      fail("stale_policy must be 'conservative' or 'optimistic'");
  }
  if (const auto mode = g.get_string("l7_mode")) {
    if (*mode == "credit")
      config.l7_mode = nodes::L7Redirector::Mode::kCreditBased;
    else if (*mode == "explicit")
      config.l7_mode = nodes::L7Redirector::Mode::kExplicitQueue;
    else
      fail("l7_mode must be 'credit' or 'explicit'");
  }
  if (const auto seed = g.get_double("seed"))
    config.seed = whole_number(*seed, "seed");
  if (const auto cap = g.get_double("max_outstanding"))
    config.max_outstanding = whole_number(*cap, "max_outstanding", 1.0);

  // --- Control plane ---------------------------------------------------------
  // Optional [control_plane] section: coordination knobs for the unified
  // window loop (docs/control-plane.md).
  const auto cp_sections = doc.all("control_plane");
  if (cp_sections.size() > 1)
    fail("at most one [control_plane] section is allowed");
  if (!cp_sections.empty()) {
    const IniSection& cp = *cp_sections.front();
    if (const auto fanout = cp.get_double("tree_fanout")) {
      config.tree_fanout = whole_number(*fanout, named(cp, "tree_fanout"));
      if (config.tree_fanout == 1)
        fail("control_plane.tree_fanout must be 0 (star) or >= 2, got 1");
    }
    if (const auto period_ms = cp.get_double("snapshot_period_ms"))
      config.tree_period = milliseconds(duration(
          *period_ms, named(cp, "snapshot_period_ms"), kMillisecond, true));
    if (const auto transport = cp.get_string("transport")) {
      if (*transport == "sim_tree")
        config.transport = ScenarioConfig::TransportKind::kSimTree;
      else if (*transport == "socket")
        config.transport = ScenarioConfig::TransportKind::kSocket;
      else
        fail("control_plane.transport must be 'sim_tree' or 'socket', got '" +
             *transport + "'");
    }
    // Comma-separated host:port list, index-aligned with the redirector
    // processes; entry 0 is the aggregation root.
    if (const auto peers = cp.get_string("peers")) {
      std::stringstream ss(*peers);
      std::string token;
      while (std::getline(ss, token, ',')) {
        const std::size_t first = token.find_first_not_of(" \t");
        if (first == std::string::npos) continue;
        const std::size_t last = token.find_last_not_of(" \t");
        const std::string peer = token.substr(first, last - first + 1);
        if (peer.find(':') == std::string::npos)
          fail("control_plane.peers entry '" + peer +
               "' must look like 'host:port'");
        config.socket_peers.push_back(peer);
      }
      if (config.socket_peers.empty()) fail("control_plane.peers is empty");
    }
  }
  if (config.transport == ScenarioConfig::TransportKind::kSocket) {
    if (config.socket_peers.empty())
      fail("control_plane.transport = socket requires control_plane.peers");
    if (config.socket_peers.size() != config.redirector_count)
      fail("control_plane.peers lists " +
           std::to_string(config.socket_peers.size()) +
           " process(es) but redirectors = " +
           std::to_string(config.redirector_count) +
           "; the socket control plane runs one process per redirector");
  }

  // --- Principals + prices --------------------------------------------------
  const auto principals = doc.all("principal");
  if (principals.empty()) fail("at least one [principal] is required");
  bool any_locality = false;
  for (const IniSection* p : principals) {
    config.graph.add_principal(p->require_string("name"), 0.0);
    config.prices.push_back(p->get_double("price").value_or(0.0));
    const auto cap = p->get_double("locality_cap");
    config.locality_caps.push_back(cap.value_or(1e18));
    any_locality = any_locality || cap.has_value();
  }
  if (!any_locality) config.locality_caps.clear();

  auto principal_id = [&](const std::string& name,
                          const IniSection& where) -> core::PrincipalId {
    const core::PrincipalId id = config.graph.find(name);
    if (id == core::kNoPrincipal)
      fail("section [" + where.name + "] (line " +
           std::to_string(where.line) + ") references unknown principal '" +
           name + "'");
    return id;
  };

  // --- Agreements ------------------------------------------------------------
  for (const IniSection* a : doc.all("agreement")) {
    config.graph.set_agreement(principal_id(a->require_string("owner"), *a),
                               principal_id(a->require_string("user"), *a),
                               a->require_double("lower"),
                               a->require_double("upper"));
  }

  // --- Servers ---------------------------------------------------------------
  for (const IniSection* s : doc.all("server")) {
    const std::string owner = s->require_string("owner");
    principal_id(owner, *s);  // validate
    config.servers.push_back({owner, s->require_double("capacity")});
  }
  if (config.servers.empty()) fail("at least one [server] is required");

  // --- Clients ---------------------------------------------------------------
  for (const IniSection* c : doc.all("client")) {
    ClientSpec spec;
    spec.name = c->require_string("name");
    spec.principal = c->require_string("principal");
    principal_id(spec.principal, *c);
    if (const auto redirector = c->get_double("redirector"))
      spec.redirector = whole_number(*redirector, named(*c, "redirector"));
    spec.rate = c->require_double("rate");
    spec.active_sec =
        parse_ranges(c->require_string("active"), named(*c, "active"));
    config.clients.push_back(std::move(spec));
  }
  if (config.clients.empty()) fail("at least one [client] is required");

  // --- Phases ------------------------------------------------------------------
  for (const IniSection* p : doc.all("phase")) {
    config.phases.push_back(
        {p->require_string("name"),
         duration(p->require_double("start"), named(*p, "start"), kSecond),
         duration(p->require_double("end"), named(*p, "end"), kSecond)});
  }

  // --- Capacity events -----------------------------------------------------
  for (const IniSection* e : doc.all("capacity_event")) {
    CapacityEvent event;
    event.time_sec =
        duration(e->require_double("time"), named(*e, "time"), kSecond);
    event.server =
        whole_number(e->require_double("server"), named(*e, "server"));
    event.capacity = e->require_double("capacity");
    if (event.server >= config.servers.size())
      fail("capacity_event (line " + std::to_string(e->line) +
           ") references server index " + std::to_string(event.server) +
           " but only " + std::to_string(config.servers.size()) +
           " servers are declared");
    config.capacity_events.push_back(event);
  }

  // --- Unknown sections and keys ---------------------------------------------
  // Every getter above marks the key it returns, so a key left unread is one
  // this loader does not know; a typo would otherwise leave its setting at
  // the default in silence.
  constexpr std::array<std::string_view, 7> kSections = {
      "control_plane", "principal", "agreement",     "server",
      "client",        "phase",     "capacity_event"};
  for (const IniSection& s : doc.sections)
    if (std::find(kSections.begin(), kSections.end(), s.name) ==
        kSections.end())
      fail("unknown section [" + s.name + "] (line " + std::to_string(s.line) +
           ")");
  if (const auto key = g.unread_key()) fail("unknown key " + named(g, *key));
  for (const IniSection& s : doc.sections)
    if (const auto key = s.unread_key()) fail("unknown key " + named(s, *key));

  return config;
}

ScenarioConfig load_scenario_file(const std::string& path) {
  return scenario_from_ini(parse_ini_file(path));
}

}  // namespace sharegrid::experiments
