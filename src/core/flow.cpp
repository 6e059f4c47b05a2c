#include "core/flow.hpp"

#include <vector>

#include "audit/invariant_auditor.hpp"
#include "core/entitlement.hpp"
#include "util/assert.hpp"

namespace sharegrid::core {
namespace {

/// Depth-first enumeration of simple paths from a fixed source, accumulating
/// mandatory/optional transfer into the (source, reached-node) cells.
class PathWalker {
 public:
  PathWalker(const AgreementGraph& graph, std::size_t max_len, Matrix& mt,
             Matrix& ot)
      : graph_(graph),
        max_len_(max_len),
        mt_(mt),
        ot_(ot),
        visited_(graph.size(), false) {}

  void walk_from(PrincipalId source) {
    source_ = source;
    visited_[source] = true;
    extend(source, /*mandatory=*/1.0, /*optional=*/0.0, /*depth=*/0);
    visited_[source] = false;
  }

 private:
  void extend(PrincipalId node, double mandatory, double optional,
              std::size_t depth) {
    if (depth >= max_len_) return;
    for (PrincipalId next = 0; next < graph_.size(); ++next) {
      if (visited_[next]) continue;
      const double ub = graph_.upper_bound(node, next);
      if (ub <= 0.0) continue;
      const double lb = graph_.lower_bound(node, next);

      // Crossing edge node->next: mandatory value continues along the lb
      // ticket; optional value is what already-optional value carries along
      // ub, plus mandatory value converting at this hop's optional ticket.
      const double next_mandatory = mandatory * lb;
      const double next_optional = optional * ub + mandatory * (ub - lb);
      if (next_mandatory <= 0.0 && next_optional <= 0.0) continue;

      mt_(source_, next) += next_mandatory;
      ot_(source_, next) += next_optional;

      visited_[next] = true;
      extend(next, next_mandatory, next_optional, depth + 1);
      visited_[next] = false;
    }
  }

  const AgreementGraph& graph_;
  std::size_t max_len_;
  Matrix& mt_;
  Matrix& ot_;
  std::vector<bool> visited_;
  PrincipalId source_ = kNoPrincipal;
};

}  // namespace

AccessLevels compute_access_levels(const AgreementGraph& graph,
                                   const FlowOptions& options) {
  const std::size_t n = graph.size();
  AccessLevels out;
  out.mandatory_transfer = Matrix(n, n, 0.0);
  out.optional_transfer = Matrix(n, n, 0.0);

  for (PrincipalId j = 0; j < n; ++j)
    out.mandatory_transfer(j, j) = 1.0;  // a principal's own capacity

  PathWalker walker(graph, options.max_path_length, out.mandatory_transfer,
                    out.optional_transfer);
  for (PrincipalId j = 0; j < n; ++j) walker.walk_from(j);

  compute_entitlements(graph, out);

  // Full-path bound tolerances: transfer entries are sums over up to n!
  // simple paths, so allow proportionally more accumulated rounding than the
  // auditor's default. The exact capacity partition additionally requires
  // every simple path to be enumerated: truncation (max_path_length < n-1)
  // legitimately drops long-path contributions from the EM columns.
  SHAREGRID_AUDIT_HOOK(audit::audit_access_levels(
      graph, out,
      /*expect_exact_partition=*/!has_agreement_cycle(graph) &&
          (n == 0 || options.max_path_length >= n - 1),
      audit::Tolerance{1e-6, 1e-6}));
  return out;
}

}  // namespace sharegrid::core
