// Unit tests for the WebBench-like workload model.
#include <gtest/gtest.h>

#include <bit>
#include <cmath>
#include <cstdint>

#include "util/rng.hpp"
#include "workload/reply_size.hpp"

namespace sharegrid::workload {
namespace {

TEST(BoundedParetoMean, MatchesClosedForm) {
  // alpha = 2 on [1, 2]: E = (l^a/(1-(l/h)^a)) * a/(a-1) * (1/l - 1/h)
  //       = (1/(1-1/4)) * 2 * (1 - 1/2) = 4/3.
  EXPECT_NEAR(bounded_pareto_mean(1.0, 2.0, 2.0), 4.0 / 3.0, 1e-9);
}

TEST(SolveParetoAlpha, RecoversRequestedMean) {
  const double alpha = solve_pareto_alpha(200.0, 512000.0, 6144.0);
  EXPECT_NEAR(bounded_pareto_mean(200.0, 512000.0, alpha), 6144.0, 1.0);
  EXPECT_GT(alpha, 0.5);
  EXPECT_LT(alpha, 2.0);  // heavy-tailed, as web traffic should be
}

TEST(SolveParetoAlpha, RejectsImpossibleMeans) {
  EXPECT_THROW(solve_pareto_alpha(200.0, 500.0, 100.0), ContractViolation);
  EXPECT_THROW(solve_pareto_alpha(200.0, 500.0, 600.0), ContractViolation);
}

TEST(ReplySizeDistribution, EmpiricalMeanApproachesSpec) {
  const ReplySizeDistribution dist;  // paper defaults: 200 B..500 KB, 6 KB
  Rng rng(1234);
  double total = 0.0;
  const int samples = 200000;
  for (int i = 0; i < samples; ++i) total += dist.sample(rng).reply_bytes;
  EXPECT_NEAR(total / samples, 6144.0, 250.0);
}

TEST(ReplySizeDistribution, SizesStayInRange) {
  const ReplySizeDistribution dist;
  Rng rng(7);
  for (int i = 0; i < 5000; ++i) {
    const auto s = dist.sample(rng);
    EXPECT_GE(s.reply_bytes, 200.0 - 1e-9);
    EXPECT_LE(s.reply_bytes, 500.0 * 1024.0 + 1e-6);
  }
}

// The distribution computes min^alpha, max^alpha and -1/alpha once; every
// size must still be the double that the inverse CDF evaluated in full for
// each sample gives, on the same stream.
TEST(ReplySizeDistribution, SamplesMatchThePerCallFormula) {
  const ReplySizeDistribution dist;
  const ReplySizeSpec& spec = dist.spec();
  const double alpha = dist.alpha();
  Rng rng(2026);
  Rng copy = rng;
  for (int i = 0; i < 1000; ++i) {
    const SampledRequest sampled = dist.sample(rng);
    const bool dynamic = copy.chance(spec.dynamic_fraction);
    const double u = copy.uniform();
    const double la = std::pow(spec.min_bytes, alpha);
    const double ha = std::pow(spec.max_bytes, alpha);
    const double size =
        std::pow(-(u * ha - u * la - ha) / (ha * la), -1.0 / alpha);
    ASSERT_EQ(sampled.request_class,
              dynamic ? RequestClass::kDynamic : RequestClass::kStatic);
    ASSERT_EQ(std::bit_cast<std::uint64_t>(sampled.reply_bytes),
              std::bit_cast<std::uint64_t>(size))
        << "sample " << i;
  }
}

// A client whose redirector discards sizes skips them; its stream must be
// where sampling would have left it, so every later draw is the same.
TEST(ReplySizeDistribution, SkipLeavesTheStreamWhereSampleDoes) {
  const ReplySizeDistribution dist;
  Rng sampled(77);
  Rng skipped(77);
  for (int i = 0; i < 1000; ++i) {
    dist.sample(sampled);
    dist.skip(skipped);
    ASSERT_EQ(sampled(), skipped()) << "after sample " << i;
  }
}

TEST(ReplySizeDistribution, DynamicFractionIsRespected) {
  ReplySizeSpec spec;
  spec.dynamic_fraction = 0.3;
  const ReplySizeDistribution dist(spec);
  Rng rng(9);
  int dynamic = 0;
  const int samples = 20000;
  for (int i = 0; i < samples; ++i)
    dynamic += dist.sample(rng).request_class == RequestClass::kDynamic;
  EXPECT_NEAR(static_cast<double>(dynamic) / samples, 0.3, 0.02);
}

}  // namespace
}  // namespace sharegrid::workload
