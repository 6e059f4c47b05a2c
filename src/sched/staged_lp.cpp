#include "sched/staged_lp.hpp"

#include <utility>

#include "util/assert.hpp"

namespace sharegrid::sched {

StagedLp::StagedLp(Plan empty, std::size_t attempts)
    : stage1_(attempts), last_good_(std::move(empty)) {
  SHAREGRID_EXPECTS(attempts > 0);
}

lp::SolveStats StagedLp::stats() const {
  lp::SolveStats total;
  for (const lp::SolveContext& context : stage1_) total += context.stats();
  total += stage2_.stats();
  return total;
}

Plan StagedLp::solve(const std::vector<double>& demand, const Stage1& stage1,
                     const Stage2& stage2, const Fill& fill) {
  std::size_t attempt = 0;
  lp::Solution s1 = stage1_[attempt].solve(stage1(attempt), options_);
  while (!s1.optimal() && attempt + 1 < stage1_.size()) {
    ++attempt;
    s1 = stage1_[attempt].solve(stage1(attempt), options_);
  }
  if (!s1.optimal()) {  // the last good plan, against this window's demand
    Plan out = last_good_;
    out.demand = demand;
    out.lp_fallback = true;
    return out;
  }

  // Without a stage-2 optimum the window keeps stage 1's values.
  const lp::Solution s2 = stage2_.solve(stage2(attempt, s1), options_);
  Plan out;
  out.demand = demand;
  out.lp_fallback = !s2.optimal();
  fill(s1, out.lp_fallback ? s1.values : s2.values, out);
  last_good_ = out;
  last_good_.lp_fallback = false;
  return out;
}

}  // namespace sharegrid::sched
