#include "subsim/sampling/inline_sampling.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <functional>
#include <set>
#include <vector>

#include "subsim/random/geometric.h"

namespace subsim {
namespace {

/// The kernels' `emit` callback: appends each sampled index to `*out`.
auto AppendTo(std::vector<std::uint32_t>* out) {
  return [out](std::uint32_t i) { out->push_back(i); };
}

TEST(NaiveSamplerTest, ZeroProbabilityNeverSampled) {
  const std::vector<double> probs = {0.0, 1.0, 0.0};
  Rng rng(1);
  std::vector<std::uint32_t> out;
  for (int i = 0; i < 100; ++i) {
    out.clear();
    SampleSubsetNaive(probs, rng, AppendTo(&out));
    ASSERT_EQ(out.size(), 1u);
    EXPECT_EQ(out[0], 1u);
  }
}

TEST(GeometricSamplerTest, EmptySetYieldsNothing) {
  Rng rng(4);
  std::vector<std::uint32_t> out;
  SampleUniformSubsetSkips(0, GeometricInvLogQ(0.5), rng, AppendTo(&out));
  EXPECT_TRUE(out.empty());
}

TEST(GeometricSamplerTest, IndicesInRangeAndStrictlyIncreasing) {
  const double inv_log_q = GeometricInvLogQ(0.3);
  Rng rng(5);
  std::vector<std::uint32_t> out;
  for (int trial = 0; trial < 200; ++trial) {
    out.clear();
    SampleUniformSubsetSkips(50, inv_log_q, rng, AppendTo(&out));
    for (std::size_t i = 0; i < out.size(); ++i) {
      EXPECT_LT(out[i], 50u);
      if (i > 0) {
        EXPECT_GT(out[i], out[i - 1]);
      }
    }
  }
}

TEST(SortedSamplerTest, SamplesValidIndices) {
  const std::vector<double> probs = {0.9, 0.4, 0.4, 0.2, 0.05, 0.01};
  Rng rng(9);
  std::vector<std::uint32_t> out;
  for (int i = 0; i < 500; ++i) {
    out.clear();
    SampleSortedSubset(probs, rng, AppendTo(&out));
    std::set<std::uint32_t> unique(out.begin(), out.end());
    EXPECT_EQ(unique.size(), out.size());
    for (std::uint32_t v : out) {
      EXPECT_LT(v, 6u);
    }
  }
}

TEST(SortedSamplerTest, LeadingOnesAlwaysIncluded) {
  const std::vector<double> probs = {1.0, 1.0, 0.5};
  Rng rng(10);
  std::vector<std::uint32_t> out;
  for (int i = 0; i < 50; ++i) {
    out.clear();
    SampleSortedSubset(probs, rng, AppendTo(&out));
    ASSERT_GE(out.size(), 2u);
    EXPECT_EQ(out[0], 0u);
    EXPECT_EQ(out[1], 1u);
  }
}

TEST(InlineSamplingTest, UniformSkipsCoverFullRangeAtHighP) {
  Rng rng(11);
  std::vector<std::uint32_t> out;
  SampleUniformSubsetSkips(100, GeometricInvLogQ(0.99), rng, AppendTo(&out));
  EXPECT_GT(out.size(), 90u);
  EXPECT_LT(out.back(), 100u);
}

// The draw-count contract `rr.geometric_skips` accounting relies on, per
// call: every emitted index consumed one geometric draw, plus the final
// draw that overshot the list.
TEST(InlineSamplingTest, UniformSkipsDrawExactlyEmitsPlusOne) {
  for (const std::uint64_t h : {0ull, 1ull, 7ull, 64ull, 1000ull}) {
    for (const double p : {0.001, 0.05, 0.3, 0.9}) {
      const double inv_log_q = GeometricInvLogQ(p);
      for (std::uint64_t seed = 1; seed <= 300; ++seed) {
        Rng rng(seed);
        std::uint64_t emits = 0;
        std::uint64_t draws = 0;
        SampleUniformSubsetSkips(
            h, inv_log_q, rng, [&emits](std::uint32_t) { ++emits; }, &draws);
        ASSERT_EQ(draws, emits + 1)
            << "h=" << h << " p=" << p << " seed=" << seed;
      }
    }
  }
}

// On a row with every p < 1 the sorted kernel emits exactly the trials
// its rejection step accepts (the p >= 1 bucket path flips plain coins,
// which are not rejection trials).
TEST(InlineSamplingTest, SortedAcceptsExactlyWhatItEmits) {
  std::vector<double> long_row(300);
  Rng row_rng(3);
  for (double& p : long_row) {
    p = 0.99 * row_rng.NextDouble();
  }
  std::sort(long_row.begin(), long_row.end(), std::greater<>());
  const std::vector<std::vector<double>> rows = {
      {0.5},
      {0.95, 0.6, 0.6, 0.3, 0.25, 0.2, 0.12, 0.05, 0.02, 0.01},
      {0.4, 0.4, 0.1, 0.0, 0.0},
      std::vector<double>(64, 0.02),
      long_row,
  };
  for (std::size_t r = 0; r < rows.size(); ++r) {
    for (std::uint64_t seed = 1; seed <= 300; ++seed) {
      Rng rng(seed);
      std::uint64_t emits = 0;
      std::uint64_t draws = 0;
      std::uint64_t accepts = 0;
      SampleSortedSubset(
          rows[r], rng, [&emits](std::uint32_t) { ++emits; }, &draws,
          &accepts);
      ASSERT_EQ(accepts, emits) << "row " << r << " seed=" << seed;
      ASSERT_GE(draws, accepts) << "row " << r << " seed=" << seed;
    }
  }
}

}  // namespace
}  // namespace subsim
