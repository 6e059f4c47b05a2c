// Synthetic web workload in the image of WebBench (§5): a mix of static and
// dynamic page requests whose reply sizes range from 200 bytes to 500 KB
// with a 6 KB average. Sizes follow a bounded Pareto distribution (the
// standard heavy-tailed model for web replies) whose shape parameter is
// solved numerically so the configured mean holds exactly.
#pragma once

#include <cstdint>

#include "util/rng.hpp"

namespace sharegrid::workload {

/// Request class within the WebBench mix.
enum class RequestClass : std::uint8_t { kStatic, kDynamic };

/// Parameters of the reply-size model.
struct ReplySizeSpec {
  double min_bytes = 200.0;
  double max_bytes = 500.0 * 1024.0;
  double mean_bytes = 6.0 * 1024.0;
  /// Fraction of requests that are dynamic (CGI-style); WebBench's standard
  /// mix is predominantly static.
  double dynamic_fraction = 0.2;
};

/// Mean of a bounded Pareto(lo, hi, alpha) distribution.
double bounded_pareto_mean(double lo, double hi, double alpha);

/// Solves for the shape alpha giving the requested mean on [lo, hi] by
/// bisection. Requires lo < mean < hi.
double solve_pareto_alpha(double lo, double hi, double mean);

/// One sampled request of the mix.
struct SampledRequest {
  RequestClass request_class = RequestClass::kStatic;
  double reply_bytes = 0.0;
};

/// Samples reply sizes / classes; deterministic given the Rng stream.
/// Each sample draws the class, then one uniform for the bounded Pareto
/// inverse CDF, whose powers of the bounds are computed once here.
class ReplySizeDistribution {
 public:
  explicit ReplySizeDistribution(const ReplySizeSpec& spec = {});

  SampledRequest sample(Rng& rng) const;
  /// Takes the draws sample() takes, the class and then the uniform, and
  /// computes nothing: @p rng ends where sample() would leave it.
  void skip(Rng& rng) const;

  double alpha() const { return alpha_; }
  const ReplySizeSpec& spec() const { return spec_; }

 private:
  ReplySizeSpec spec_;
  double alpha_;
  double lo_pow_;         ///< min_bytes^alpha
  double hi_pow_;         ///< max_bytes^alpha
  double neg_inv_alpha_;  ///< -1 / alpha
};

}  // namespace sharegrid::workload
