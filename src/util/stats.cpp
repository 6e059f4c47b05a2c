#include "util/stats.hpp"

#include <algorithm>

namespace sharegrid {

void RunningStats::add(double x) {
  ++n_;
  if (n_ == 1) {
    mean_ = min_ = max_ = x;
    m2_ = 0.0;
    return;
  }
  const double delta = x - mean_;
  mean_ += delta / static_cast<double>(n_);
  m2_ += delta * (x - mean_);
  min_ = std::min(min_, x);
  max_ = std::max(max_, x);
}

void RunningStats::merge_from(const RunningStats& other) {
  if (other.n_ == 0) return;
  if (n_ == 0) {
    *this = other;
    return;
  }
  const double delta = other.mean_ - mean_;
  const auto n = static_cast<double>(n_);
  const auto m = static_cast<double>(other.n_);
  mean_ += delta * m / (n + m);
  m2_ += other.m2_ + delta * delta * n * m / (n + m);
  n_ += other.n_;
  min_ = std::min(min_, other.min_);
  max_ = std::max(max_, other.max_);
}

double RunningStats::variance() const {
  return n_ > 1 ? m2_ / static_cast<double>(n_ - 1) : 0.0;
}

}  // namespace sharegrid
