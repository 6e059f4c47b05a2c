#include "workload/reply_size.hpp"

#include <cmath>

#include "util/assert.hpp"

namespace sharegrid::workload {

double bounded_pareto_mean(double lo, double hi, double alpha) {
  SHAREGRID_EXPECTS(lo > 0.0 && hi > lo && alpha > 0.0);
  if (std::abs(alpha - 1.0) < 1e-12) {
    // alpha = 1 limit: E = lo*hi/(hi-lo) * ln(hi/lo).
    return lo * hi / (hi - lo) * std::log(hi / lo);
  }
  const double la = std::pow(lo, alpha);
  const double ha = std::pow(hi, alpha);
  return la / (1.0 - la / ha) * (alpha / (alpha - 1.0)) *
         (1.0 / std::pow(lo, alpha - 1.0) - 1.0 / std::pow(hi, alpha - 1.0));
}

double solve_pareto_alpha(double lo, double hi, double mean) {
  SHAREGRID_EXPECTS(lo < mean && mean < hi);
  // The bounded-Pareto mean decreases monotonically in alpha: alpha -> 0
  // pushes mass to the tail (mean -> geometric-ish high value), alpha -> inf
  // concentrates at lo. Bisect on that monotone map.
  double a_lo = 1e-3;
  double a_hi = 64.0;
  for (int iter = 0; iter < 200; ++iter) {
    const double mid = 0.5 * (a_lo + a_hi);
    if (bounded_pareto_mean(lo, hi, mid) > mean)
      a_lo = mid;
    else
      a_hi = mid;
  }
  return 0.5 * (a_lo + a_hi);
}

ReplySizeDistribution::ReplySizeDistribution(const ReplySizeSpec& spec)
    : spec_(spec),
      alpha_(solve_pareto_alpha(spec.min_bytes, spec.max_bytes,
                                spec.mean_bytes)),
      lo_pow_(std::pow(spec.min_bytes, alpha_)),
      hi_pow_(std::pow(spec.max_bytes, alpha_)),
      neg_inv_alpha_(-1.0 / alpha_) {
  SHAREGRID_EXPECTS(spec_.dynamic_fraction >= 0.0 &&
                    spec_.dynamic_fraction <= 1.0);
}

SampledRequest ReplySizeDistribution::sample(Rng& rng) const {
  SampledRequest out;
  out.request_class = rng.chance(spec_.dynamic_fraction)
                          ? RequestClass::kDynamic
                          : RequestClass::kStatic;
  // Inverse CDF of the bounded Pareto distribution on [min, max].
  const double u = rng.uniform();
  out.reply_bytes = std::pow(
      -(u * hi_pow_ - u * lo_pow_ - hi_pow_) / (hi_pow_ * lo_pow_),
      neg_inv_alpha_);
  return out;
}

void ReplySizeDistribution::skip(Rng& rng) const {
  rng();
  rng();
}

}  // namespace sharegrid::workload
