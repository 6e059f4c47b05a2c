// Fuzz-style robustness tests: hostile or random inputs must produce clean
// failures (nullopt / ContractViolation), never crashes, hangs, or silent
// acceptance of garbage.
#include <gtest/gtest.h>

#include <cmath>
#include <string>

#include "core/flow.hpp"
#include "http/message.hpp"
#include "lp/solve_context.hpp"
#include "util/ini.hpp"
#include "util/rng.hpp"

namespace sharegrid {
namespace {

/// Random printable-ish text with embedded structure characters.
std::string random_text(Rng& rng, std::size_t max_len) {
  static const char alphabet[] =
      "abcdefghijklmnopqrstuvwxyz /:=[]#;\r\n\t\"0123456789-_.";
  std::string out;
  const std::size_t len = rng.bounded(max_len);
  out.reserve(len);
  for (std::size_t i = 0; i < len; ++i)
    out.push_back(alphabet[rng.bounded(sizeof(alphabet) - 1)]);
  return out;
}

class FuzzTest : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(FuzzTest, HttpParsersNeverCrash) {
  Rng rng(GetParam());
  for (int i = 0; i < 200; ++i) {
    const std::string text = random_text(rng, 512);
    const auto req = http::parse_request(text);
    const auto resp = http::parse_response(text);
    // If something parsed, it must round-trip to something parseable.
    if (req) {
      EXPECT_TRUE(http::parse_request(req->serialize()).has_value());
    }
    if (resp) {
      EXPECT_TRUE(http::parse_response(resp->serialize()).has_value());
    }
  }
}

TEST_P(FuzzTest, IniParserNeverCrashes) {
  Rng rng(GetParam());
  for (int i = 0; i < 200; ++i) {
    const std::string text = random_text(rng, 512);
    try {
      const IniDocument doc = parse_ini(text);
      // Parsed documents are navigable without surprises.
      for (const auto& section : doc.sections) (void)doc.all(section.name);
    } catch (const ContractViolation&) {
      // clean rejection is the expected failure mode
    }
  }
}

TEST_P(FuzzTest, PrincipalExtractionNeverCrashes) {
  Rng rng(GetParam());
  for (int i = 0; i < 500; ++i)
    (void)http::principal_from_target(random_text(rng, 64));
}

INSTANTIATE_TEST_SUITE_P(Seeds, FuzzTest,
                         ::testing::Range<std::uint64_t>(1, 9));

TEST(Robustness, SimplexSurvivesDegenerateCoefficients) {
  // Tiny, huge, and zero coefficients in one program: the solver must
  // terminate with a definite status, not loop or crash.
  Rng rng(77);
  for (int trial = 0; trial < 50; ++trial) {
    lp::Problem p(3, lp::Sense::kMaximize);
    for (std::size_t j = 0; j < 3; ++j) {
      p.set_objective(j, rng.uniform(-1.0, 1.0));
      p.set_bounds(j, 0.0, rng.chance(0.5) ? lp::kInfinity : 1e9);
    }
    for (int c = 0; c < 4; ++c) {
      std::vector<std::pair<std::size_t, double>> terms;
      for (std::size_t j = 0; j < 3; ++j) {
        const double magnitude =
            rng.chance(0.3) ? 0.0
                            : (rng.chance(0.5) ? 1e-8 : rng.uniform(0.0, 1e6));
        terms.emplace_back(j, magnitude);
      }
      p.add_constraint(std::move(terms),
                       rng.chance(0.5) ? lp::Relation::kLessEq
                                       : lp::Relation::kGreaterEq,
                       rng.uniform(0.0, 1e6));
    }
    const lp::Solution s = lp::solve(p);
    EXPECT_TRUE(s.status == lp::Status::kOptimal ||
                s.status == lp::Status::kInfeasible ||
                s.status == lp::Status::kUnbounded);
  }
}

TEST(Robustness, FlowAnalysisOnDenseCyclicGraphTerminates) {
  // A fully-connected 8-principal graph with cycles everywhere: simple-path
  // enumeration is exponential but bounded, and every level it returns is a
  // finite number.
  core::AgreementGraph g;
  for (int i = 0; i < 8; ++i)
    g.add_principal("P" + std::to_string(i), 100.0);
  for (core::PrincipalId i = 0; i < 8; ++i)
    for (core::PrincipalId j = 0; j < 8; ++j)
      if (i != j) g.set_agreement(i, j, 0.1, 0.2);

  const core::AccessLevels levels = core::compute_access_levels(g);
  ASSERT_EQ(levels.size(), 8u);
  for (core::PrincipalId i = 0; i < 8; ++i) {
    EXPECT_TRUE(std::isfinite(levels.mandatory_capacity[i])) << i;
    EXPECT_TRUE(std::isfinite(levels.optional_capacity[i])) << i;
  }
}

}  // namespace
}  // namespace sharegrid
