// Unit tests for the util substrate: rng, matrix, stats, time series, table,
// worker pool.
#include <gtest/gtest.h>

#include <cmath>
#include <sstream>
#include <string>
#include <vector>

#include "util/assert.hpp"
#include "util/matrix.hpp"
#include "util/rng.hpp"
#include "util/stats.hpp"
#include "util/table.hpp"
#include "util/time.hpp"
#include "util/time_series.hpp"
#include "util/worker_pool.hpp"

namespace sharegrid {
namespace {

// The contract macros must produce messages a developer can act on without
// a debugger: the kind of contract, the exact failed expression, and the
// file:line of the call site.
TEST(Contracts, ExpectsMessageHasKindExpressionFileAndLine) {
  const int line = __LINE__ + 2;  // the SHAREGRID_EXPECTS line below
  try {
    SHAREGRID_EXPECTS(1 + 1 == 3);
    FAIL() << "SHAREGRID_EXPECTS(false) must throw";
  } catch (const ContractViolation& e) {
    const std::string msg = e.what();
    EXPECT_NE(msg.find("precondition"), std::string::npos) << msg;
    EXPECT_NE(msg.find("1 + 1 == 3"), std::string::npos) << msg;
    EXPECT_NE(msg.find("util_test.cpp"), std::string::npos) << msg;
    EXPECT_NE(msg.find(":" + std::to_string(line)), std::string::npos) << msg;
  }
}

TEST(Contracts, EnsuresMessageSaysPostcondition) {
  try {
    SHAREGRID_ENSURES(false && "result in range");
    FAIL() << "SHAREGRID_ENSURES(false) must throw";
  } catch (const ContractViolation& e) {
    const std::string msg = e.what();
    EXPECT_NE(msg.find("postcondition"), std::string::npos) << msg;
    EXPECT_NE(msg.find("false && \"result in range\""), std::string::npos)
        << msg;
    EXPECT_NE(msg.find("util_test.cpp"), std::string::npos) << msg;
  }
}

TEST(Contracts, AssertMessageSaysInvariant) {
  try {
    SHAREGRID_ASSERT(2 < 1);
    FAIL() << "SHAREGRID_ASSERT(false) must throw";
  } catch (const ContractViolation& e) {
    const std::string msg = e.what();
    EXPECT_NE(msg.find("invariant"), std::string::npos) << msg;
    EXPECT_NE(msg.find("2 < 1"), std::string::npos) << msg;
  }
}

TEST(Contracts, PassingContractsDoNotThrowOrEvaluateTwice) {
  int evaluations = 0;
  const auto bump = [&] {
    ++evaluations;
    return true;
  };
  EXPECT_NO_THROW(SHAREGRID_EXPECTS(bump()));
  EXPECT_NO_THROW(SHAREGRID_ENSURES(bump()));
  EXPECT_NO_THROW(SHAREGRID_ASSERT(bump()));
  EXPECT_EQ(evaluations, 3);
}

TEST(Contracts, ViolationIsALogicError) {
  // Catch sites that filter on std::logic_error must see contract failures.
  EXPECT_THROW(SHAREGRID_EXPECTS(false), std::logic_error);
}

TEST(Rng, SameSeedSameStream) {
  Rng a(123);
  Rng b(123);
  for (int i = 0; i < 100; ++i) EXPECT_EQ(a(), b());
}

TEST(Rng, DifferentSeedsDiffer) {
  Rng a(1);
  Rng b(2);
  int same = 0;
  for (int i = 0; i < 100; ++i) same += (a() == b());
  EXPECT_LT(same, 3);
}

TEST(Rng, UniformInRange) {
  Rng rng(7);
  for (int i = 0; i < 1000; ++i) {
    const double u = rng.uniform(2.0, 5.0);
    EXPECT_GE(u, 2.0);
    EXPECT_LT(u, 5.0);
  }
}

TEST(Rng, BoundedCoversRangeUniformly) {
  Rng rng(9);
  std::vector<int> counts(10, 0);
  for (int i = 0; i < 10000; ++i) ++counts[rng.bounded(10)];
  for (int c : counts) {
    EXPECT_GT(c, 800);
    EXPECT_LT(c, 1200);
  }
}

TEST(Rng, ExponentialMeanMatches) {
  Rng rng(11);
  double sum = 0.0;
  const int trials = 20000;
  for (int i = 0; i < trials; ++i) sum += rng.exponential(3.0);
  EXPECT_NEAR(sum / trials, 3.0, 0.1);
}

TEST(Rng, SplitStreamsAreIndependentlySeeded) {
  Rng parent(17);
  Rng child1 = parent.split();
  Rng child2 = parent.split();
  EXPECT_NE(child1(), child2());
}

TEST(Matrix, BasicAccessAndSums) {
  Matrix m(2, 3, 1.0);
  m(1, 2) = 4.0;
  EXPECT_DOUBLE_EQ(m.row_sum(1), 6.0);
  EXPECT_DOUBLE_EQ(m.col_sum(2), 5.0);
  EXPECT_THROW(m(2, 0), ContractViolation);
  EXPECT_THROW(m(0, 3), ContractViolation);
}

TEST(Matrix, EqualityAndEmpty) {
  Matrix a(2, 2, 0.5);
  Matrix b(2, 2, 0.5);
  EXPECT_EQ(a, b);
  b(0, 0) = 0.6;
  EXPECT_NE(a, b);
  EXPECT_TRUE(Matrix().empty());
}

TEST(RunningStats, MeanVarianceMinMax) {
  RunningStats s;
  for (double v : {2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0}) s.add(v);
  EXPECT_EQ(s.count(), 8u);
  EXPECT_NEAR(s.mean(), 5.0, 1e-12);
  EXPECT_NEAR(s.variance(), 32.0 / 7.0, 1e-12);
  EXPECT_DOUBLE_EQ(s.min(), 2.0);
  EXPECT_DOUBLE_EQ(s.max(), 9.0);
}

TEST(RunningStats, EmptyAndSingle) {
  RunningStats s;
  EXPECT_EQ(s.count(), 0u);
  EXPECT_DOUBLE_EQ(s.mean(), 0.0);
  s.add(42.0);
  EXPECT_DOUBLE_EQ(s.mean(), 42.0);
  EXPECT_DOUBLE_EQ(s.variance(), 0.0);
}

TEST(TimeHelpers, Conversions) {
  EXPECT_EQ(seconds(1.5), 1500000);
  EXPECT_EQ(milliseconds(100.0), 100000);
  EXPECT_DOUBLE_EQ(to_seconds(2500000), 2.5);
}

TEST(RateSeries, BinsAndRates) {
  RateSeries s(kSecond);
  s.record(0, 5);
  s.record(seconds(0.9), 5);
  s.record(seconds(1.5), 20);
  EXPECT_EQ(s.events_in_bin(0), 10u);
  EXPECT_EQ(s.events_in_bin(1), 20u);
  EXPECT_DOUBLE_EQ(s.rate_in_bin(0), 10.0);
  EXPECT_EQ(s.events_in_bin(7), 0u);
  EXPECT_EQ(s.total_events(), 30u);
}

TEST(RateSeries, AverageRateOverWindow) {
  RateSeries s(kSecond);
  for (int t = 0; t < 10; ++t) s.record(seconds(t + 0.5), 50);
  EXPECT_NEAR(s.average_rate(0, seconds(10)), 50.0, 1e-9);
  EXPECT_NEAR(s.average_rate(seconds(2), seconds(8)), 50.0, 1e-9);
}

TEST(RateSeries, PartialBinAttribution) {
  RateSeries s(kSecond);
  s.record(seconds(0.5), 100);  // all of it in bin 0
  // Asking for [0, 0.5) sees half of bin 0's events (uniform attribution).
  EXPECT_EQ(s.events_between(0, seconds(0.5)), 50u);
}

TEST(TextTable, AlignsAndCounts) {
  TextTable t({"name", "value"});
  t.add_row({"alpha", "1"});
  t.add_row({"b", "22.5"});
  EXPECT_EQ(t.row_count(), 2u);
  std::ostringstream os;
  t.print(os);
  const std::string out = os.str();
  EXPECT_NE(out.find("alpha"), std::string::npos);
  EXPECT_NE(out.find("22.5"), std::string::npos);
  EXPECT_THROW(t.add_row({"only-one-cell"}), ContractViolation);
}

TEST(TextTable, CsvEscaping) {
  TextTable t({"k", "v"});
  t.add_row({"with,comma", "with\"quote"});
  std::ostringstream os;
  t.print_csv(os);
  EXPECT_NE(os.str().find("\"with,comma\""), std::string::npos);
  EXPECT_NE(os.str().find("\"with\"\"quote\""), std::string::npos);
}

TEST(TextTable, NumFormatsPrecision) {
  EXPECT_EQ(TextTable::num(3.14159, 2), "3.14");
  EXPECT_EQ(TextTable::num(42.0, 0), "42");
}

TEST(WorkerPool, RunsEveryIndexExactlyOnce) {
  WorkerPool pool(4);
  std::vector<int> counts(257, 0);
  pool.run_indexed(counts.size(),
                   [&](std::size_t i) { ++counts[i]; });  // disjoint slots
  for (std::size_t i = 0; i < counts.size(); ++i) EXPECT_EQ(counts[i], 1);
  // Reuse across runs, including an empty one.
  pool.run_indexed(0, [&](std::size_t) { ADD_FAILURE(); });
  pool.run_indexed(counts.size(), [&](std::size_t i) { ++counts[i]; });
  for (std::size_t i = 0; i < counts.size(); ++i) EXPECT_EQ(counts[i], 2);
}

TEST(WorkerPool, ZeroThreadsRunsInline) {
  WorkerPool pool(0);
  EXPECT_EQ(pool.thread_count(), 0u);
  std::vector<int> counts(16, 0);
  pool.run_indexed(counts.size(), [&](std::size_t i) { ++counts[i]; });
  for (int c : counts) EXPECT_EQ(c, 1);
}

TEST(WorkerPool, RethrowsLowestIndexException) {
  WorkerPool pool(4);
  // Indexes 3 and 9 throw; every index must still run, and the reported
  // error must be index 3's regardless of which thread hit which first.
  for (int attempt = 0; attempt < 20; ++attempt) {
    std::vector<int> ran(16, 0);
    try {
      pool.run_indexed(ran.size(), [&](std::size_t i) {
        ++ran[i];
        if (i == 3 || i == 9)
          throw ContractViolation("boom " + std::to_string(i));
      });
      FAIL() << "expected an exception";
    } catch (const ContractViolation& e) {
      EXPECT_STREQ(e.what(), "boom 3");
    }
    for (int r : ran) EXPECT_EQ(r, 1);
  }
}

}  // namespace
}  // namespace sharegrid
