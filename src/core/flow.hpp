// Transitive resource flow analysis (§3.1.1, Formulae 1-4 and Figure 5).
//
// Reduces an arbitrary agreement graph to per-principal access levels:
//
//   MT(j,i) = sum over simple paths j->...->i of  prod(lb along path)
//   OT(j,i) = sum over simple paths of sum over hops r of
//             prod(lb before r) * (ub_r - lb_r) * prod(ub after r)
//
// i.e. mandatory value travels along mandatory tickets; it converts to
// optional value at exactly one optional hop and then flows along agreement
// upper bounds (Formula 2). Paths never repeat nodes (the paper's summation
// constraints k_p != k_q, k != i, j).
//
// From the transfer matrices:
//   raw flows      MI(j,i) = V_j * MT(j,i),   OI(j,i) = V_j * OT(j,i)
//   currency value M_i = V_i + sum_j MI(j,i),  O_i = sum_j OI(j,i)
//   access levels  MC_i = M_i * (1 - L_i),     OC_i = O_i + M_i * L_i
// where L_i is the mandatory fraction i cedes (Figure 5(b): the mandatory
// value excludes resources flowing out; the optional value includes them,
// since i may reclaim shares its users leave idle).
//
// We additionally expose the per-server entitlement decomposition used by the
// LP schedulers (DESIGN.md D1):
//   EM(i,k) = V_k * MT(k,i) * (1 - L_i)   with MT(i,i) = 1
//   EO(i,k) = V_k * (OT(k,i) + MT(k,i) * L_i)
// EM exactly partitions each server's capacity on acyclic graphs
// (sum_i EM(i,k) = V_k), which keeps the schedulers' mandatory lower bounds
// simultaneously feasible; row sums recover MC_i and OC_i.
#pragma once

#include <cstddef>
#include <vector>

#include "core/agreement_graph.hpp"
#include "util/matrix.hpp"

namespace sharegrid::core {

/// Knob for the path enumeration.
struct FlowOptions {
  /// Maximum number of tickets (edges) on a transitive path; the default
  /// admits all simple paths. Lowering this reproduces the paper's
  /// bounded-length MI^(m)/OI^(m) prefixes.
  std::size_t max_path_length = static_cast<std::size_t>(-1);
};

/// Everything the schedulers need, precomputed from an agreement graph.
/// Quasi-static (§3.1.1): recompute only when agreements or capacities
/// change, not per scheduling window.
struct AccessLevels {
  /// Path-transfer matrices, indexed (from, to). Diagonal: MT = 1, OT = 0.
  Matrix mandatory_transfer;  // MT
  Matrix optional_transfer;   // OT

  /// Currency values before discounting outflow: M_i and O_i.
  std::vector<double> mandatory_value;
  std::vector<double> optional_value;

  /// Final per-principal access levels MC_i and OC_i (requests/sec).
  std::vector<double> mandatory_capacity;  // MC
  std::vector<double> optional_capacity;   // OC

  /// Per-server entitlements, indexed (principal i, server owner k).
  Matrix mandatory_entitlement;  // EM
  Matrix optional_entitlement;   // EO

  std::size_t size() const { return mandatory_value.size(); }

  /// Raw transitive flow MI(from,to) = V_from * MT(from,to) (Formula 1).
  double mandatory_flow(PrincipalId from, PrincipalId to,
                        const AgreementGraph& graph) const {
    return graph.capacity(from) * mandatory_transfer(from, to);
  }
  /// Raw transitive flow OI(from,to) = V_from * OT(from,to) (Formula 2).
  double optional_flow(PrincipalId from, PrincipalId to,
                       const AgreementGraph& graph) const {
    return graph.capacity(from) * optional_transfer(from, to);
  }
};

/// Computes access levels for @p graph. Cost is exponential in the number of
/// principals in the worst (dense) case because paths must be simple; the
/// paper notes principal counts are small, and FlowOptions::max_path_length
/// bounds the work for larger graphs.
AccessLevels compute_access_levels(const AgreementGraph& graph,
                                   const FlowOptions& options = {});

}  // namespace sharegrid::core
