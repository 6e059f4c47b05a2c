// Request traces: precomputed open-loop arrival sequences.
//
// The WebBench-style ClientFleet is closed-loop: its offered rate reacts
// to service (slots, retries). That realism couples measurements to the
// scheduler under test. A RequestTrace fixes the workload instead — every
// arrival's time, principal, and size is determined up front — so two
// schedulers can be compared on byte-identical input, and an experiment can
// be replayed exactly from its recorded trace.
#pragma once

#include <cstdint>
#include <vector>

#include "core/principal.hpp"
#include "util/rng.hpp"
#include "util/time.hpp"
#include "workload/activity_plan.hpp"
#include "workload/reply_size.hpp"

namespace sharegrid::workload {

/// One request arrival in a trace.
struct TraceEntry {
  SimTime time = 0;
  core::PrincipalId principal = core::kNoPrincipal;
  double reply_bytes = 6144.0;
};

/// Time-ordered, immutable-after-build arrival sequence.
class RequestTrace {
 public:
  /// Synthesizes a Poisson open-loop trace: each client c of
  /// @p client_principals generates at @p rates[c] req/s while
  /// @p plan marks it active. Sizes come from @p sizes. Deterministic in
  /// @p seed.
  static RequestTrace synthesize(const ActivityPlan& plan,
                                 const std::vector<core::PrincipalId>& client_principals,
                                 const std::vector<double>& rates,
                                 const ReplySizeDistribution& sizes,
                                 std::uint64_t seed);

  /// Appends an entry; must not go backwards in time.
  void append(TraceEntry entry);

  const std::vector<TraceEntry>& entries() const { return entries_; }
  std::size_t size() const { return entries_.size(); }
  bool empty() const { return entries_.empty(); }

  /// Arrival count per principal (index = PrincipalId; grows as needed).
  std::vector<std::size_t> counts_by_principal() const;

  /// Average arrival rate of one principal over [0, horizon).
  double rate_of(core::PrincipalId principal, SimTime horizon) const;

 private:
  std::vector<TraceEntry> entries_;
};

}  // namespace sharegrid::workload
