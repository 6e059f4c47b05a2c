// Streaming descriptive statistics used by benches and tests.
#pragma once

#include <cstddef>

namespace sharegrid {

/// Welford streaming accumulator for mean / variance / extrema.
class RunningStats {
 public:
  void add(double x);

  /// Folds another accumulator into this one (Chan et al.'s parallel
  /// variance combination). Deterministic for a fixed merge order; merging
  /// in a different order than samples arrived gives an equally valid but
  /// not bit-identical m2, so callers wanting reproducibility must fix the
  /// order (e.g. cluster index).
  void merge_from(const RunningStats& other);

  std::size_t count() const { return n_; }
  double mean() const { return n_ > 0 ? mean_ : 0.0; }
  /// Sample variance (n-1 denominator); 0 when fewer than two samples.
  double variance() const;
  double min() const { return n_ > 0 ? min_ : 0.0; }
  double max() const { return n_ > 0 ? max_ : 0.0; }

 private:
  std::size_t n_ = 0;
  double mean_ = 0.0;
  double m2_ = 0.0;
  double min_ = 0.0;
  double max_ = 0.0;
};

}  // namespace sharegrid
