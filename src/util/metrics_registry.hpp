// Always-on lightweight metrics (the perf-counters idea): named counters and
// gauges that hot paths bump unconditionally, cheap enough to leave compiled
// into every build — scenario runs report event/plan/redirect totals without
// a bench build or an audit flag.
//
// Registration (counter()/gauge() lookup-or-create) takes a mutex and is
// expected once per call site; updates are lock-free relaxed atomics, so
// sharded simulator lanes may bump the same counter concurrently. Counters
// are NOT part of any deterministic output the audits pin — they are
// operator telemetry, reported in registration order.
#pragma once

#include <atomic>
#include <cstdint>
#include <deque>
#include <ostream>
#include <string>
#include <unordered_map>  // sharegrid-analyze: allow(no-unordered-iteration)

#include "util/table.hpp"
#include "util/thread_annotations.hpp"

namespace sharegrid::util {

/// Monotonically increasing event count. add() is a relaxed atomic add —
/// safe from any thread, never a synchronization point.
class MetricCounter {
 public:
  void add(std::uint64_t n = 1) {
    value_.fetch_add(n, std::memory_order_relaxed);
  }
  std::uint64_t value() const { return value_.load(std::memory_order_relaxed); }
  void reset() { value_.store(0, std::memory_order_relaxed); }

 private:
  std::atomic<std::uint64_t> value_{0};
};

/// Last-written level (queue depth, shard count, ...).
class MetricGauge {
 public:
  void set(std::int64_t v) { value_.store(v, std::memory_order_relaxed); }
  std::int64_t value() const { return value_.load(std::memory_order_relaxed); }
  void reset() { value_.store(0, std::memory_order_relaxed); }

 private:
  std::atomic<std::int64_t> value_{0};
};

/// Registry of named counters/gauges. Lookup-or-create by name; the returned
/// references stay valid for the registry's lifetime (deque storage), so call
/// sites cache them. Reporting renders a TextTable in registration order.
class MetricsRegistry {
 public:
  MetricsRegistry() = default;
  MetricsRegistry(const MetricsRegistry&) = delete;
  MetricsRegistry& operator=(const MetricsRegistry&) = delete;

  /// Returns the counter registered under @p name, creating it (with
  /// @p help) on first use. Subsequent calls ignore @p help.
  MetricCounter& counter(const std::string& name, const std::string& help = "")
      SHAREGRID_EXCLUDES(mutex_);

  /// Gauge analogue of counter(). A name registers as either a counter or a
  /// gauge, never both (contract violation otherwise).
  MetricGauge& gauge(const std::string& name, const std::string& help = "")
      SHAREGRID_EXCLUDES(mutex_);

  /// Zeroes every metric (names stay registered). Scenario runners call this
  /// between runs so totals are per-run.
  void reset() SHAREGRID_EXCLUDES(mutex_);

  /// Metrics in registration order as (metric, value, help) rows.
  TextTable to_table() const SHAREGRID_EXCLUDES(mutex_);

  /// Renders to_table() to @p os; prints nothing when empty.
  void report(std::ostream& os) const SHAREGRID_EXCLUDES(mutex_);

 private:
  enum class Kind { kCounter, kGauge };
  struct Entry {
    std::string name;
    std::string help;
    Kind kind = Kind::kCounter;
    MetricCounter counter;
    MetricGauge gauge;
  };

  Entry& lookup_or_create(const std::string& name, const std::string& help,
                          Kind kind) SHAREGRID_EXCLUDES(mutex_);

  mutable Mutex mutex_;
  // Deque keeps entry addresses stable across registration, so the
  // references handed out by counter()/gauge() outlive later inserts.
  std::deque<Entry> entries_ SHAREGRID_GUARDED_BY(mutex_);
  // Name -> entries_ index, for lookup only: reporting walks entries_ in
  // registration order and never iterates this map, so its hash order
  // reaches no output.
  std::unordered_map<std::string, std::size_t>  // sharegrid-analyze: allow(no-unordered-iteration)
      index_ SHAREGRID_GUARDED_BY(mutex_);
};

/// Process-wide registry the simulator/redirector/scheduler hot paths report
/// into. Totals are cumulative for the process; runners that want per-run
/// numbers call reset() up front (experiments::run_scenario does).
MetricsRegistry& global_metrics();

}  // namespace sharegrid::util
