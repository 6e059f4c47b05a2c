// Shared pieces of the benchmark program: the run options, the report every
// workload fills in, wall-clock helpers, percentiles, and the in-memory span
// tracer used by traced runs.
#pragma once

#include <chrono>
#include <cstdint>
#include <mutex>
#include <string>
#include <vector>

namespace perfbench {

struct Options {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  std::string trace_dir;  ///< where a traced run writes its spans
};

/// One named number. `samples` is the count a percentile was taken over
/// (0 when the value is not a percentile).
struct Metric {
  std::string name;
  double value = 0.0;
  std::string unit;
  std::size_t samples = 0;
};

/// What a workload hands back: its metrics, its output checks, and the
/// operations it attempted and failed.
struct Report {
  std::vector<Metric> metrics;
  std::vector<std::string> notes;  ///< free-form lines printed as-is
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  std::vector<std::pair<std::string, bool>> checks;

  void add(std::string name, double value, std::string unit,
           std::size_t samples = 0) {
    metrics.push_back({std::move(name), value, std::move(unit), samples});
  }
  void check(std::string name, bool ok) {
    checks.emplace_back(std::move(name), ok);
  }
};

using Clock = std::chrono::steady_clock;

inline std::int64_t now_ns() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             Clock::now().time_since_epoch())
      .count();
}

inline double seconds_since(Clock::time_point start) {
  return std::chrono::duration<double>(Clock::now() - start).count();
}

/// Nearest-rank percentile (q in [0, 1]) of @p values; 0 when empty.
double percentile(std::vector<double> values, double q);
double median(std::vector<double> values);

/// Peak resident set size of this process so far, in MB. Workloads read it
/// right after their measured phase, before post-processing allocates.
double peak_rss_mb();

/// Timed samples with their completion times, kept in a buffer allocated and
/// touched up front, so the benchmark's own bookkeeping does not grow the
/// process's memory while it measures. Samples beyond the capacity are
/// counted but not kept.
class Samples {
 public:
  explicit Samples(std::size_t capacity) : done_ns_(capacity), values_(capacity) {}

  void add(std::int64_t done_ns, double value) {
    if (size_ == values_.size()) {
      ++dropped_;
      return;
    }
    done_ns_[size_] = done_ns;
    values_[size_] = value;
    ++size_;
  }
  std::size_t size() const { return size_; }
  std::size_t dropped() const { return dropped_; }
  std::vector<double> values() const {
    return {values_.begin(), values_.begin() + static_cast<std::ptrdiff_t>(size_)};
  }
  std::vector<std::int64_t> done_ns() const {
    return {done_ns_.begin(), done_ns_.begin() + static_cast<std::ptrdiff_t>(size_)};
  }

 private:
  std::vector<std::int64_t> done_ns_;
  std::vector<double> values_;
  std::size_t size_ = 0;
  std::size_t dropped_ = 0;
};

/// In-memory spans around the benchmark's calls into the library. Each span
/// has a name, start and end, and the id of the span open on the same thread
/// when it began (0 = none). A disabled tracer records nothing.
class Tracer {
 public:
  struct Span {
    const char* name;
    std::int64_t start_ns;
    std::int64_t end_ns;
    std::uint32_t id;
    std::uint32_t parent;
  };

  class Scope {
   public:
    Scope(Tracer* tracer, const char* name);
    ~Scope();
    Scope(const Scope&) = delete;
    Scope& operator=(const Scope&) = delete;

   private:
    Tracer* tracer_;
    const char* name_;
    std::int64_t start_ns_ = 0;
    std::uint32_t id_ = 0;
    std::uint32_t parent_ = 0;
  };

  explicit Tracer(bool enabled) : enabled_(enabled) {}

  Scope span(const char* name) { return Scope(this, name); }

  /// Durations in microseconds of every span named @p name.
  std::vector<double> durations_us(const std::string& name) const;
  /// Spans not kept because the tracer was full.
  std::size_t dropped() const;
  /// Writes one line per span (id, parent, name, start, duration, self time)
  /// to @p path, after a comment line with the number of spans dropped once
  /// the tracer was full; returns false when the file cannot be written.
  bool write(const std::string& path) const;

 private:
  // Bounds the tracer's memory on long request-rate runs.
  static constexpr std::size_t kMaxSpans = std::size_t{1} << 20;

  bool enabled_;
  mutable std::mutex mutex_;
  std::vector<Span> spans_;
  std::size_t dropped_ = 0;
  std::uint32_t next_id_ = 1;
};

/// Writes @p tracer's spans to <trace_dir>/<workload>.spans.tsv, and notes in
/// @p report a failed write or the number of spans the full tracer dropped.
void write_trace(Report& report, const Tracer& tracer, const Options& options);

}  // namespace perfbench
