#include "workload/trace.hpp"

#include <algorithm>

#include "util/assert.hpp"

namespace sharegrid::workload {

RequestTrace RequestTrace::synthesize(
    const ActivityPlan& plan,
    const std::vector<core::PrincipalId>& client_principals,
    const std::vector<double>& rates, const ReplySizeDistribution& sizes,
    std::uint64_t seed) {
  SHAREGRID_EXPECTS(client_principals.size() == plan.client_count());
  SHAREGRID_EXPECTS(rates.size() == plan.client_count());

  Rng master(seed);
  std::vector<TraceEntry> all;
  for (std::size_t c = 0; c < plan.client_count(); ++c) {
    SHAREGRID_EXPECTS(rates[c] > 0.0);
    Rng rng = master.split();
    const double mean_gap_sec = 1.0 / rates[c];
    for (const ActiveInterval& interval : plan.intervals(c)) {
      SimTime t = interval.start;
      while (true) {
        t += std::max<SimDuration>(1, seconds(rng.exponential(mean_gap_sec)));
        if (t >= interval.end) break;
        TraceEntry entry;
        entry.time = t;
        entry.principal = client_principals[c];
        entry.reply_bytes = sizes.sample(rng).reply_bytes;
        all.push_back(entry);
      }
    }
  }
  std::stable_sort(all.begin(), all.end(),
                   [](const TraceEntry& a, const TraceEntry& b) {
                     return a.time < b.time;
                   });
  RequestTrace trace;
  trace.entries_ = std::move(all);
  return trace;
}

void RequestTrace::append(TraceEntry entry) {
  SHAREGRID_EXPECTS(entry.time >= 0);
  SHAREGRID_EXPECTS(entries_.empty() || entries_.back().time <= entry.time);
  SHAREGRID_EXPECTS(entry.principal != core::kNoPrincipal);
  entries_.push_back(entry);
}

std::vector<std::size_t> RequestTrace::counts_by_principal() const {
  std::vector<std::size_t> counts;
  for (const TraceEntry& e : entries_) {
    if (e.principal >= counts.size()) counts.resize(e.principal + 1, 0);
    ++counts[e.principal];
  }
  return counts;
}

double RequestTrace::rate_of(core::PrincipalId principal,
                             SimTime horizon) const {
  SHAREGRID_EXPECTS(horizon > 0);
  std::size_t count = 0;
  for (const TraceEntry& e : entries_)
    if (e.principal == principal && e.time < horizon) ++count;
  return static_cast<double>(count) / to_seconds(horizon);
}

}  // namespace sharegrid::workload
