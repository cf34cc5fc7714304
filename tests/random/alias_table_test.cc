#include "subsim/random/alias_table.h"

#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <vector>

namespace subsim {
namespace {

/// One alias table in two columns of its own, as a test builds it.
struct Table {
  std::vector<double> prob;
  std::vector<std::uint32_t> alias;
  double total_weight = 0.0;

  explicit Table(const std::vector<double>& weights)
      : prob(weights.size()), alias(weights.size()) {
    AliasScratch scratch;
    total_weight = BuildAliasColumns(weights, prob, alias, &scratch);
  }

  std::uint32_t Sample(Rng& rng) const {
    return SampleAlias(prob, alias, rng);
  }
};

void ExpectEmpiricalMatches(const Table& table,
                            const std::vector<double>& weights,
                            std::uint64_t seed, int trials = 200000) {
  Rng rng(seed);
  std::vector<int> counts(weights.size(), 0);
  for (int i = 0; i < trials; ++i) {
    const std::uint32_t s = table.Sample(rng);
    ASSERT_LT(s, weights.size());
    ++counts[s];
  }
  double total = 0.0;
  for (double w : weights) {
    total += w;
  }
  for (std::size_t i = 0; i < weights.size(); ++i) {
    const double p = weights[i] / total;
    const double expected = trials * p;
    const double sigma = std::sqrt(trials * p * (1.0 - p));
    EXPECT_NEAR(counts[i], expected, 5.0 * sigma + 1.0) << "index " << i;
  }
}

TEST(AliasTableTest, SingleElement) {
  const Table table({3.5});
  Rng rng(1);
  for (int i = 0; i < 100; ++i) {
    EXPECT_EQ(table.Sample(rng), 0u);
  }
}

TEST(AliasTableTest, UniformWeights) {
  ExpectEmpiricalMatches(Table({1, 1, 1, 1}), {1, 1, 1, 1}, 2);
}

TEST(AliasTableTest, SkewedWeights) {
  const std::vector<double> weights = {0.7, 0.2, 0.05, 0.05};
  ExpectEmpiricalMatches(Table(weights), weights, 3);
}

TEST(AliasTableTest, ExtremeSkew) {
  const std::vector<double> weights = {1000.0, 1.0, 1.0};
  Rng rng(4);
  const Table table(weights);
  int heavy = 0;
  const int trials = 100000;
  for (int i = 0; i < trials; ++i) {
    if (table.Sample(rng) == 0) {
      ++heavy;
    }
  }
  EXPECT_GT(heavy, trials * 0.99);
}

TEST(AliasTableTest, ZeroWeightNeverSampled) {
  const std::vector<double> weights = {0.0, 1.0, 0.0, 2.0};
  Rng rng(5);
  const Table table(weights);
  for (int i = 0; i < 10000; ++i) {
    const std::uint32_t s = table.Sample(rng);
    EXPECT_TRUE(s == 1 || s == 3);
  }
}

TEST(AliasTableTest, TotalWeightPreserved) {
  const Table table({0.25, 0.5, 0.25});
  EXPECT_DOUBLE_EQ(table.total_weight, 1.0);
}

TEST(AliasTableTest, UnnormalizedWeightsWork) {
  const std::vector<double> weights = {5, 10, 25, 60};
  ExpectEmpiricalMatches(Table(weights), weights, 6);
}

TEST(AliasTableTest, ManyElements) {
  std::vector<double> weights(257);
  for (std::size_t i = 0; i < weights.size(); ++i) {
    weights[i] = static_cast<double>(i % 7 + 1);
  }
  Rng rng(7);
  const Table table(weights);
  // Spot-check range validity over many draws.
  for (int i = 0; i < 100000; ++i) {
    EXPECT_LT(table.Sample(rng), weights.size());
  }
}

TEST(AliasTableTest, RebuildReplacesDistribution) {
  std::vector<double> prob(2);
  std::vector<std::uint32_t> alias(2);
  AliasScratch scratch;
  BuildAliasColumns(std::vector<double>{1.0, 0.0}, prob, alias, &scratch);
  BuildAliasColumns(std::vector<double>{0.0, 1.0}, prob, alias, &scratch);
  Rng rng(8);
  for (int i = 0; i < 1000; ++i) {
    EXPECT_EQ(SampleAlias(prob, alias, rng), 1u);
  }
}

// The flat layout LT uses: several tables side by side in two shared
// arrays, built with one scratch, each sampling only its own slice.
TEST(AliasTableTest, TablesShareFlatColumns) {
  const std::vector<std::vector<double>> rows = {
      {0.0, 1.0}, {0.7, 0.2, 0.05, 0.05}, {5, 10, 25, 60}, {1.0, 0.0}};
  std::vector<double> prob(12);
  std::vector<std::uint32_t> alias(12);
  std::vector<std::size_t> begin;
  AliasScratch scratch;
  std::size_t at = 0;
  for (const std::vector<double>& row : rows) {
    begin.push_back(at);
    BuildAliasColumns(row, {prob.data() + at, row.size()},
                      {alias.data() + at, row.size()}, &scratch);
    at += row.size();
  }
  ASSERT_EQ(at, prob.size());

  Rng rng(10);
  for (int i = 0; i < 1000; ++i) {
    EXPECT_EQ(SampleAlias({prob.data() + begin[0], 2},
                          {alias.data() + begin[0], 2}, rng),
              1u);
    EXPECT_EQ(SampleAlias({prob.data() + begin[3], 2},
                          {alias.data() + begin[3], 2}, rng),
              0u);
  }
  // A slice samples exactly as a table built on its own.
  const Table alone(rows[2]);
  Rng flat_rng(9);
  Rng alone_rng(9);
  for (int i = 0; i < 1000; ++i) {
    EXPECT_EQ(SampleAlias({prob.data() + begin[2], 4},
                          {alias.data() + begin[2], 4}, flat_rng),
              alone.Sample(alone_rng));
  }
}

}  // namespace
}  // namespace subsim
