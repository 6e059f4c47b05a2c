#include "util/metrics_registry.hpp"

#include "util/assert.hpp"

namespace sharegrid::util {

MetricsRegistry::Entry& MetricsRegistry::lookup_or_create(
    const std::string& name, const std::string& help, Kind kind) {
  SHAREGRID_EXPECTS(!name.empty());
  MutexLock lock(mutex_);
  const auto it = index_.find(name);
  if (it != index_.end()) {
    Entry& entry = entries_[it->second];
    SHAREGRID_EXPECTS(entry.kind == kind);
    return entry;
  }
  index_.emplace(name, entries_.size());
  // Atomics are immovable, so construct in place and fill the metadata.
  Entry& entry = entries_.emplace_back();
  entry.name = name;
  entry.help = help;
  entry.kind = kind;
  return entry;
}

MetricCounter& MetricsRegistry::counter(const std::string& name,
                                        const std::string& help) {
  return lookup_or_create(name, help, Kind::kCounter).counter;
}

MetricGauge& MetricsRegistry::gauge(const std::string& name,
                                    const std::string& help) {
  return lookup_or_create(name, help, Kind::kGauge).gauge;
}

void MetricsRegistry::reset() {
  MutexLock lock(mutex_);
  for (Entry& entry : entries_) {
    entry.counter.reset();
    entry.gauge.reset();
  }
}

TextTable MetricsRegistry::to_table() const {
  TextTable table({"metric", "value", "help"});
  MutexLock lock(mutex_);
  for (const Entry& entry : entries_) {
    const std::string value = entry.kind == Kind::kCounter
                                  ? std::to_string(entry.counter.value())
                                  : std::to_string(entry.gauge.value());
    table.add_row({entry.name, value, entry.help});
  }
  return table;
}

void MetricsRegistry::report(std::ostream& os) const {
  const TextTable table = to_table();
  if (table.row_count() == 0) return;
  table.print(os);
}

MetricsRegistry& global_metrics() {
  static MetricsRegistry registry;
  return registry;
}

}  // namespace sharegrid::util
