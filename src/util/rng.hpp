// Deterministic pseudo-random number generation (design decision D4).
//
// All stochastic behaviour in sharegrid flows from Rng instances that are
// seeded explicitly; the library never reads wall-clock entropy. The generator
// is xoshiro256** 1.0 (Blackman & Vigna), seeded via splitmix64, which is both
// fast and high quality for simulation workloads.
#pragma once

#include <cstdint>
#include <limits>

#include "util/assert.hpp"

namespace sharegrid {

/// xoshiro256** pseudo-random generator with convenience distributions.
///
/// Satisfies the UniformRandomBitGenerator concept so it can also be used
/// with <random> distributions if callers prefer.
class Rng {
 public:
  using result_type = std::uint64_t;

  /// Seeds the four-word state from a single seed via splitmix64.
  explicit Rng(std::uint64_t seed = 0x9e3779b97f4a7c15ULL) { reseed(seed); }

  static constexpr result_type min() { return 0; }
  static constexpr result_type max() {
    return std::numeric_limits<std::uint64_t>::max();
  }

  /// Re-initializes the state; same seed => same stream.
  void reseed(std::uint64_t seed) {
    for (auto& word : state_) word = splitmix64(seed);
  }

  /// Next raw 64-bit value.
  result_type operator()() {
    const std::uint64_t result = rotl(state_[1] * 5, 7) * 9;
    const std::uint64_t t = state_[1] << 17;
    state_[2] ^= state_[0];
    state_[3] ^= state_[1];
    state_[1] ^= state_[2];
    state_[0] ^= state_[3];
    state_[2] ^= t;
    state_[3] = rotl(state_[3], 45);
    return result;
  }

  /// Uniform double in [0, 1).
  double uniform() {
    return static_cast<double>(operator()() >> 11) * 0x1.0p-53;
  }

  /// Uniform double in [lo, hi).
  double uniform(double lo, double hi) {
    SHAREGRID_EXPECTS(lo <= hi);
    return lo + (hi - lo) * uniform();
  }

  /// Uniform integer in [0, bound). Uses Lemire's multiply-shift rejection.
  std::uint64_t bounded(std::uint64_t bound) {
    SHAREGRID_EXPECTS(bound > 0);
    std::uint64_t x = operator()();
    __uint128_t m = static_cast<__uint128_t>(x) * bound;
    auto lo = static_cast<std::uint64_t>(m);
    if (lo < bound) {
      const std::uint64_t threshold = -bound % bound;
      while (lo < threshold) {
        x = operator()();
        m = static_cast<__uint128_t>(x) * bound;
        lo = static_cast<std::uint64_t>(m);
      }
    }
    return static_cast<std::uint64_t>(m >> 64);
  }

  /// Exponentially distributed value with the given mean (> 0).
  double exponential(double mean);

  /// Bernoulli trial with success probability p in [0, 1].
  bool chance(double p) {
    SHAREGRID_EXPECTS(p >= 0.0 && p <= 1.0);
    return uniform() < p;
  }

  /// Derives an independent child stream (for per-component RNGs).
  Rng split() { return Rng(operator()()); }

 private:
  static std::uint64_t rotl(std::uint64_t x, int k) {
    return (x << k) | (x >> (64 - k));
  }

  static std::uint64_t splitmix64(std::uint64_t& x) {
    x += 0x9e3779b97f4a7c15ULL;
    std::uint64_t z = x;
    z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
    z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
    return z ^ (z >> 31);
  }

  std::uint64_t state_[4];
};

}  // namespace sharegrid
