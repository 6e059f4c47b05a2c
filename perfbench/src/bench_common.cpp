#include "bench_common.hpp"

#include <sys/resource.h>

#include <algorithm>
#include <cmath>
#include <fstream>
#include <map>

namespace perfbench {
namespace {

// Innermost open span per thread, so a new span knows its parent.
thread_local std::uint32_t current_span = 0;

}  // namespace

double percentile(std::vector<double> values, double q) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const double rank = std::ceil(q * static_cast<double>(values.size()));
  const std::size_t index =
      rank < 1.0 ? 0 : static_cast<std::size_t>(rank) - 1;
  return values[std::min(index, values.size() - 1)];
}

double median(std::vector<double> values) { return percentile(std::move(values), 0.5); }

double peak_rss_mb() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // ru_maxrss is KiB
}

Tracer::Scope::Scope(Tracer* tracer, const char* name)
    : tracer_(tracer), name_(name) {
  if (!tracer_->enabled_) return;
  {
    const std::lock_guard<std::mutex> lock(tracer_->mutex_);
    id_ = tracer_->next_id_++;
  }
  parent_ = current_span;
  current_span = id_;
  start_ns_ = now_ns();
}

Tracer::Scope::~Scope() {
  if (!tracer_->enabled_) return;
  const std::int64_t end = now_ns();
  current_span = parent_;
  const std::lock_guard<std::mutex> lock(tracer_->mutex_);
  if (tracer_->spans_.size() == kMaxSpans) {
    ++tracer_->dropped_;
    return;
  }
  tracer_->spans_.push_back({name_, start_ns_, end, id_, parent_});
}

std::vector<double> Tracer::durations_us(const std::string& name) const {
  const std::lock_guard<std::mutex> lock(mutex_);
  std::vector<double> out;
  for (const Span& s : spans_)
    if (name == s.name)
      out.push_back(static_cast<double>(s.end_ns - s.start_ns) / 1e3);
  return out;
}

std::size_t Tracer::dropped() const {
  const std::lock_guard<std::mutex> lock(mutex_);
  return dropped_;
}

void write_trace(Report& report, const Tracer& tracer, const Options& options) {
  if (!tracer.write(options.trace_dir + "/" + options.workload + ".spans.tsv"))
    report.notes.push_back("could not write the span file");
  if (const std::size_t dropped = tracer.dropped())
    report.notes.push_back("tracer full: " + std::to_string(dropped) +
                           " spans missing from the span file");
}

bool Tracer::write(const std::string& path) const {
  const std::lock_guard<std::mutex> lock(mutex_);
  // Self time = duration minus the time covered by direct children. Children
  // of one span run on its thread and do not overlap, so a sum suffices.
  std::map<std::uint32_t, std::int64_t> child_ns;
  for (const Span& s : spans_)
    if (s.parent != 0) child_ns[s.parent] += s.end_ns - s.start_ns;
  std::ofstream out(path);
  if (!out) return false;
  std::int64_t origin = spans_.empty() ? 0 : spans_.front().start_ns;
  for (const Span& s : spans_) origin = std::min(origin, s.start_ns);
  out << "# spans dropped (tracer full): " << dropped_ << '\n';
  out << "id\tparent\tname\tstart_us\tdur_us\tself_us\n";
  for (const Span& s : spans_) {
    const std::int64_t dur = s.end_ns - s.start_ns;
    const auto child = child_ns.find(s.id);
    const std::int64_t self = dur - (child == child_ns.end() ? 0 : child->second);
    out << s.id << '\t' << s.parent << '\t' << s.name << '\t'
        << static_cast<double>(s.start_ns - origin) / 1e3 << '\t'
        << static_cast<double>(dur) / 1e3 << '\t'
        << static_cast<double>(self) / 1e3 << '\n';
  }
  return static_cast<bool>(out);
}

}  // namespace perfbench
