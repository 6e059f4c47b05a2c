#include "audit/invariant_auditor.hpp"

#include <algorithm>
#include <cmath>
#include <sstream>

namespace sharegrid::audit {

void fail(const std::string& invariant, const std::string& detail) {
  throw ContractViolation("[audit] " + invariant + ": " + detail);
}

std::string num(double value) {
  std::ostringstream os;
  os.precision(9);
  os << value;
  return os.str();
}

void audit_bland_progress(double objective_before, double objective_after,
                          double tol) {
  require(objective_after >=
              objective_before - tol * (1.0 + std::abs(objective_before)),
          "simplex.bland-regress", [&] {
            return "objective fell from " + num(objective_before) + " to " +
                   num(objective_after) +
                   " under Bland's rule; anti-cycling pricing admitted a "
                   "negative-gain pivot, so termination is no longer "
                   "guaranteed";
          });
}

void audit_basic_values(const std::vector<double>& rhs,
                        const std::vector<std::size_t>& basis,
                        const std::vector<double>& upper, double tol) {
  require(basis.size() == rhs.size(), "simplex.basis-shape", [&] {
    return std::to_string(rhs.size()) + " basic values but " +
           std::to_string(basis.size()) + " basis entries";
  });
  double scale = 1.0;
  for (const double r : rhs) scale = std::max(scale, std::abs(r));
  for (std::size_t i = 0; i < rhs.size(); ++i) {
    const std::size_t col = basis[i];
    require(col < upper.size(), "simplex.basis-column-range", [&] {
      return "row " + std::to_string(i) + " claims basic column " +
             std::to_string(col) + " of " + std::to_string(upper.size());
    });
    require(rhs[i] >= -tol * scale, "simplex.primal-infeasible-rhs", [&] {
      return "rhs[" + std::to_string(i) + "] = " + num(rhs[i]) +
             " went negative mid-solve; the ratio test admitted a pivot "
             "that left the basic solution infeasible";
    });
    const double ub = upper[col];
    require(!std::isfinite(ub) || rhs[i] <= ub + tol * scale,
            "simplex.primal-above-upper", [&] {
              return "rhs[" + std::to_string(i) + "] = " + num(rhs[i]) +
                     " exceeds the basic variable's upper bound " + num(ub) +
                     "; the bounded ratio test missed the upper-bound "
                     "leaving candidate and the basic solution violates a "
                     "box constraint";
            });
  }
}

void audit_unit_column(std::size_t row, const std::vector<double>& ftran_image,
                       double tol) {
  for (std::size_t r = 0; r < ftran_image.size(); ++r) {
    const double expected = r == row ? 1.0 : 0.0;
    require(std::abs(ftran_image[r] - expected) <= tol,
            "simplex.basis-not-unit", [&] {
              return "basic column of row " + std::to_string(row) +
                     " FTRANs to " + num(ftran_image[r]) + " at row " +
                     std::to_string(r) + " (expected " + num(expected) +
                     "); the eta file no longer inverts the basis and the "
                     "basic solution read off the rhs is meaningless";
            });
  }
}

void audit_reduced_cost_sync(const std::vector<double>& incremental,
                             const std::vector<double>& reference, double tol) {
  require(incremental.size() == reference.size(),
          "simplex.reduced-cost-shape", [&] {
            return "maintained reduced costs have " +
                   std::to_string(incremental.size()) +
                   " entries but the recomputation has " +
                   std::to_string(reference.size());
          });
  // Scale per entry: income LPs price columns in currency units that can
  // dwarf the rate-scale tolerances, and degenerate-coefficient problems
  // produce reduced costs around 1e12 whose from-scratch recomputation
  // itself carries relative rounding error.
  for (std::size_t j = 0; j < incremental.size(); ++j) {
    const double scale =
        1.0 + std::max(std::abs(incremental[j]), std::abs(reference[j]));
    require(std::abs(incremental[j] - reference[j]) <= tol * scale,
            "simplex.reduced-cost-drift", [&] {
              return "column " + std::to_string(j) +
                     ": maintained reduced cost " + num(incremental[j]) +
                     " but recomputation gives " + num(reference[j]) +
                     "; the per-pivot eta update diverged from the "
                     "factorization and pricing decisions are no longer "
                     "trustworthy";
            });
  }
}

void audit_no_artificial_basic(const std::vector<std::size_t>& basis,
                               std::size_t first_artificial) {
  for (std::size_t i = 0; i < basis.size(); ++i) {
    require(basis[i] < first_artificial, "simplex.warm-artificial-basic", [&] {
      return "row " + std::to_string(i) + " enters a warm start with basic "
             "column " + std::to_string(basis[i]) + " >= first artificial " +
             std::to_string(first_artificial) +
             "; the cached basis was not clean and must not be reused";
    });
  }
}

void audit_eta_consistency(const std::vector<double>& eta_values,
                           const std::vector<double>& fresh_values,
                           double tol) {
  require(eta_values.size() == fresh_values.size(), "simplex.eta-rhs-shape",
          [&] {
            return std::to_string(eta_values.size()) +
                   " eta-updated basic values but " +
                   std::to_string(fresh_values.size()) + " recomputed ones";
          });
  double scale = 1.0;
  for (const double v : fresh_values) scale = std::max(scale, std::abs(v));
  for (std::size_t i = 0; i < eta_values.size(); ++i) {
    require(std::abs(eta_values[i] - fresh_values[i]) <= tol * scale,
            "simplex.eta-rhs-drift", [&] {
              return "basic value " + std::to_string(i) +
                     " carried across pivots as " + num(eta_values[i]) +
                     " but recomputing B^-1 b from scratch at the "
                     "refactorization gives " + num(fresh_values[i]) +
                     "; the product-form eta updates drifted from the basis "
                     "they claim to invert";
            });
  }
}

void audit_window_conservation(const Matrix& quota, const Matrix& consumed,
                               const Matrix& debt, const Matrix& slices,
                               double tol) {
  require(quota.rows() == consumed.rows() && quota.rows() == debt.rows() &&
              quota.rows() == slices.rows() &&
              quota.cols() == consumed.cols() && quota.cols() == debt.cols() &&
              quota.cols() == slices.cols(),
          "window.matrix-shape",
          [&] { return std::string("quota/consumed/debt/slice shapes disagree"); });
  for (std::size_t i = 0; i < quota.rows(); ++i) {
    for (std::size_t k = 0; k < quota.cols(); ++k) {
      require(consumed(i, k) >= -tol, "window.negative-consumption", [&] {
        return "cell (" + std::to_string(i) + ", " + std::to_string(k) +
               ") recorded consumed = " + num(consumed(i, k)) +
               "; admissions can only add to consumption";
      });
      require(debt(i, k) <= tol, "window.positive-debt", [&] {
        return "cell (" + std::to_string(i) + ", " + std::to_string(k) +
               ") carried debt = " + num(debt(i, k)) +
               " into the window; only borrow (<= 0) may carry over — "
               "positive carry would stack unused quota across windows";
      });
      const double lhs = quota(i, k) + consumed(i, k);
      const double rhs = slices(i, k) + debt(i, k);
      require(std::abs(lhs - rhs) <=
                  tol * (1.0 + std::max(std::abs(lhs), std::abs(rhs))),
              "window.quota-conservation", [&] {
                return "cell (" + std::to_string(i) + ", " +
                       std::to_string(k) + "): quota " + num(quota(i, k)) +
                       " + consumed " + num(consumed(i, k)) + " != slice " +
                       num(slices(i, k)) + " + debt " + num(debt(i, k)) +
                       "; admissions are being created or destroyed relative "
                       "to the LP plan (DESIGN.md D5)";
              });
    }
  }
}

void audit_sim_clock_monotone(std::int64_t now, std::int64_t next) {
  require(next >= now, "sim.clock-monotone", [&] {
    return "event due at t=" + std::to_string(next) +
           " would move the clock backwards from t=" + std::to_string(now) +
           "; a wheel cascade filed an event into an already-passed bucket";
  });
}

void audit_sim_event_conservation(std::uint64_t inserted, std::uint64_t popped,
                                  std::size_t size, std::uint64_t walked) {
  require(walked == size, "sim.event-size-counter", [&] {
    return "wheel size counter says " + std::to_string(size) +
           " pending events but walking the slots found " +
           std::to_string(walked) +
           "; a cascade dropped or duplicated a node";
  });
  require(inserted == popped + size, "sim.event-conservation", [&] {
    return std::to_string(inserted) + " events scheduled but " +
           std::to_string(popped) + " executed + " + std::to_string(size) +
           " pending; an event was lost or ran twice across a cascade";
  });
}

void audit_control_plane_snapshot(bool has_previous,
                                  std::uint64_t previous_round,
                                  std::uint64_t round) {
  if (!has_previous) return;
  require(round > previous_round, "coord.snapshot-monotone", [&] {
    return "snapshot round " + std::to_string(round) +
           " delivered after round " + std::to_string(previous_round) +
           "; the transport replayed or reordered an aggregate and the "
           "member would plan against data older than what it already used";
  });
}

void audit_round_tag_monotone(bool has_previous, std::uint64_t previous_round,
                              std::uint64_t round) {
  if (!has_previous) return;
  require(round > previous_round, "coord.round-tag-monotone", [&] {
    return "transport about to deliver round tag " + std::to_string(round) +
           " after already delivering " + std::to_string(previous_round) +
           "; the wire-side round filter let a replayed or reordered "
           "aggregate through";
  });
}

void audit_lease_monotone(bool has_previous, std::uint64_t previous_incarnation,
                          std::size_t previous_root,
                          std::uint64_t incarnation, std::size_t root) {
  if (!has_previous) return;
  require(incarnation >= previous_incarnation, "coord.lease-monotone", [&] {
    return "adopting lease incarnation " + std::to_string(incarnation) +
           " from process " + std::to_string(root) +
           " after already holding incarnation " +
           std::to_string(previous_incarnation) + " from process " +
           std::to_string(previous_root) +
           "; the stale-lease filter let a superseded root's lease through "
           "and a zombie's rounds would no longer be fenced";
  });
  require(incarnation > previous_incarnation || root == previous_root,
          "coord.lease-monotone", [&] {
            return "lease incarnation " + std::to_string(incarnation) +
                   " claimed by process " + std::to_string(root) +
                   " but the same incarnation was already held by process " +
                   std::to_string(previous_root) +
                   "; two roots share one incarnation — split brain, two "
                   "aggregation points could both open rounds";
          });
}

void audit_root_acquire(bool lease_known, std::int64_t now_usec,
                        std::int64_t lease_expiry_usec,
                        std::uint64_t new_incarnation,
                        std::uint64_t highest_seen) {
  require(!lease_known || now_usec >= lease_expiry_usec, "coord.single-root",
          [&] {
            return "acquiring the root lease at t=" +
                   std::to_string(now_usec) +
                   "usec while the observed lease is live until t=" +
                   std::to_string(lease_expiry_usec) +
                   "usec; a second root next to a live one is split brain";
          });
  require(new_incarnation > highest_seen, "coord.single-root", [&] {
    return "acquiring the root lease with incarnation " +
           std::to_string(new_incarnation) +
           " but incarnation " + std::to_string(highest_seen) +
           " has already been observed; a non-increasing incarnation cannot "
           "fence the previous root's in-flight rounds";
  });
}

void audit_control_plane_member_slices(const Matrix& slices,
                                       const Matrix& plan_rate,
                                       double share_cap, double window_sec,
                                       double tol) {
  require(slices.rows() == plan_rate.rows() &&
              slices.cols() == plan_rate.cols(),
          "coord.slice-shape",
          [&] { return std::string("slice/plan shapes disagree"); });
  for (std::size_t i = 0; i < slices.rows(); ++i) {
    for (std::size_t k = 0; k < slices.cols(); ++k) {
      const double cap = plan_rate(i, k) * share_cap * window_sec;
      require(slices(i, k) >= -tol &&
                  slices(i, k) <= cap + tol * (1.0 + std::abs(cap)),
              "coord.member-slice-cap", [&] {
                return "cell (" + std::to_string(i) + ", " +
                       std::to_string(k) + ") slice = " + num(slices(i, k)) +
                       " but plan " + num(plan_rate(i, k)) + " * share cap " +
                       num(share_cap) + " * window " + num(window_sec) +
                       " allows at most " + num(cap) +
                       "; a redirector is granting itself more than its "
                       "share of the plan";
              });
    }
  }
}

void audit_control_plane_slice_sum(const Matrix& slice_sum,
                                   const Matrix& plan_rate, double window_sec,
                                   double tol) {
  require(slice_sum.rows() == plan_rate.rows() &&
              slice_sum.cols() == plan_rate.cols(),
          "coord.slice-shape",
          [&] { return std::string("slice-sum/plan shapes disagree"); });
  for (std::size_t i = 0; i < slice_sum.rows(); ++i) {
    for (std::size_t k = 0; k < slice_sum.cols(); ++k) {
      const double cap = plan_rate(i, k) * window_sec;
      require(slice_sum(i, k) <= cap + tol * (1.0 + std::abs(cap)),
              "coord.slice-conservation", [&] {
                return "cell (" + std::to_string(i) + ", " +
                       std::to_string(k) +
                       "): redirector slices sum to " + num(slice_sum(i, k)) +
                       " but the full plan cell is only " + num(cap) +
                       "; the conservative 1/R split is over-admitting "
                       "across redirectors (§5.1 phase 1)";
              });
    }
  }
}

}  // namespace sharegrid::audit
