// Shared helpers for sharegrid tests.
#pragma once

#include <algorithm>
#include <utility>
#include <vector>

#include "sched/scheduler.hpp"

namespace sharegrid::test {

/// Deterministic scheduler granting principal i a fixed rate on server i,
/// capped by demand — lets node tests pin admission behaviour precisely.
class FixedRateScheduler final : public sched::Scheduler {
 public:
  explicit FixedRateScheduler(std::vector<double> rates)
      : rates_(std::move(rates)) {}

  sched::Plan plan(const std::vector<double>& demand) const override {
    sched::Plan p;
    p.demand = demand;
    p.rate = Matrix(rates_.size(), rates_.size(), 0.0);
    for (std::size_t i = 0; i < rates_.size(); ++i)
      p.rate(i, i) = std::min(rates_[i], demand[i]);
    return p;
  }
  std::size_t size() const override { return rates_.size(); }

 private:
  std::vector<double> rates_;
};

/// Plans like FixedRateScheduler but flags every plan as an LP fallback, as
/// a scheduler whose solver hit its iteration budget does.
class FallbackScheduler final : public sched::Scheduler {
 public:
  explicit FallbackScheduler(std::vector<double> rates)
      : inner_(std::move(rates)) {}

  sched::Plan plan(const std::vector<double>& demand) const override {
    sched::Plan p = inner_.plan(demand);
    p.lp_fallback = true;
    return p;
  }
  std::size_t size() const override { return inner_.size(); }

 private:
  FixedRateScheduler inner_;
};

}  // namespace sharegrid::test
