// Accuracy and determinism of the HLL count-distinct coverage path:
// sketch primitives stay within the 1.04/√m error model, and the
// approx-coverage greedy commits only exact gains, so its reported
// coverage is trustworthy even when candidate ordering is approximate.

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <vector>

#include "subsim/coverage/hll_sketch.h"
#include "subsim/coverage/max_coverage.h"
#include "subsim/random/rng.h"
#include "subsim/rrset/rr_collection.h"

namespace subsim {
namespace {

TEST(HllSketchTest, EstimateWithinErrorModelAtKnownCardinalities) {
  constexpr std::uint32_t kPrecision = 12;
  const double rse = HllRelativeStdError(kPrecision);
  EXPECT_NEAR(rse, 1.04 / 64.0, 1e-9);  // 1.04/sqrt(2^12)

  for (const std::uint64_t cardinality :
       {std::uint64_t{100}, std::uint64_t{2000}, std::uint64_t{50000}}) {
    std::vector<std::uint8_t> registers(HllNumRegisters(kPrecision), 0);
    for (std::uint64_t item = 0; item < cardinality; ++item) {
      HllObserve(registers, kPrecision, item);
    }
    const double estimate = HllEstimate(registers);
    // 5 standard errors: loose enough to be deterministic-safe, tight
    // enough to catch a broken estimator or hash.
    EXPECT_NEAR(estimate, static_cast<double>(cardinality),
                5.0 * rse * static_cast<double>(cardinality))
        << "cardinality " << cardinality;
  }
}

TEST(HllSketchTest, ObserveIsIdempotentAndDeterministic) {
  constexpr std::uint32_t kPrecision = 8;
  std::vector<std::uint8_t> once(HllNumRegisters(kPrecision), 0);
  std::vector<std::uint8_t> thrice(HllNumRegisters(kPrecision), 0);
  for (std::uint64_t item = 0; item < 500; ++item) {
    HllObserve(once, kPrecision, item);
    HllObserve(thrice, kPrecision, item);
    HllObserve(thrice, kPrecision, item);
    HllObserve(thrice, kPrecision, item);
  }
  EXPECT_EQ(once, thrice) << "re-observing an item must not move registers";
}

TEST(HllSketchTest, UnionEstimateMatchesMergedSketch) {
  constexpr std::uint32_t kPrecision = 10;
  std::vector<std::uint8_t> a(HllNumRegisters(kPrecision), 0);
  std::vector<std::uint8_t> b(HllNumRegisters(kPrecision), 0);
  // Overlapping ranges: |A|=3000, |B|=3000, |A ∪ B|=4500.
  for (std::uint64_t item = 0; item < 3000; ++item) {
    HllObserve(a, kPrecision, item);
  }
  for (std::uint64_t item = 1500; item < 4500; ++item) {
    HllObserve(b, kPrecision, item);
  }

  const double on_the_fly = HllEstimateUnion(a, b);
  std::vector<std::uint8_t> merged = a;
  HllMerge(merged, b);
  EXPECT_DOUBLE_EQ(on_the_fly, HllEstimate(merged));

  const double rse = HllRelativeStdError(kPrecision);
  EXPECT_NEAR(on_the_fly, 4500.0, 5.0 * rse * 4500.0);
  // Merging is monotone: the union estimate can't fall below either input.
  EXPECT_GE(HllEstimate(merged) * (1.0 + 5.0 * rse), HllEstimate(a));
}

/// A synthetic workload big enough for the sketches to matter: `num_sets`
/// RR-set-like draws with skewed membership (low ids show up more often,
/// mimicking high-degree nodes) over `n` nodes.
RrCollection SkewedCollection(NodeId n, int num_sets, std::uint64_t seed) {
  RrCollection collection(n);
  Rng rng(seed);
  std::vector<NodeId> set;
  for (int i = 0; i < num_sets; ++i) {
    set.clear();
    const std::size_t size = 2 + static_cast<std::size_t>(rng.UniformInt(8));
    while (set.size() < size) {
      // Square the uniform draw to skew toward small ids.
      const double u = rng.NextDouble();
      const NodeId v = static_cast<NodeId>(u * u * static_cast<double>(n));
      if (std::find(set.begin(), set.end(), v) == set.end()) {
        set.push_back(v < n ? v : n - 1);
      }
    }
    collection.Add(set, false);
  }
  collection.IndexNewSets();
  return collection;
}

TEST(ApproxCoverageTest, CommittedGainsAndPrefixesAreExact) {
  const RrCollection collection = SkewedCollection(400, 6000, 11);
  CoverageGreedyOptions options;
  options.k = 12;
  options.approx_coverage = true;
  options.hll_precision = 8;
  const CoverageGreedyResult result = RunCoverageGreedy(collection, options);
  ASSERT_EQ(result.seeds.size(), 12u);
  ASSERT_EQ(result.coverage_prefix.size(), 12u);

  // Whatever order the sketches suggested, every committed gain and prefix
  // must be the true set-count — re-derive them with the exact counter.
  std::uint64_t running = 0;
  for (std::size_t i = 0; i < result.seeds.size(); ++i) {
    const std::span<const NodeId> prefix(result.seeds.data(), i + 1);
    const std::uint64_t exact = ComputeCoverage(collection, prefix);
    running += result.gains[i];
    EXPECT_EQ(result.coverage_prefix[i], exact) << "seed prefix " << i + 1;
    EXPECT_EQ(running, exact) << "gains must telescope exactly";
  }
  // No duplicate seeds.
  std::vector<NodeId> sorted = result.seeds;
  std::sort(sorted.begin(), sorted.end());
  EXPECT_EQ(std::unique(sorted.begin(), sorted.end()), sorted.end());
}

TEST(ApproxCoverageTest, ApproxRunsAreBitwiseDeterministic) {
  const RrCollection collection = SkewedCollection(300, 4000, 23);
  CoverageGreedyOptions options;
  options.k = 8;
  options.approx_coverage = true;
  options.hll_precision = 6;
  const CoverageGreedyResult first = RunCoverageGreedy(collection, options);
  const CoverageGreedyResult second = RunCoverageGreedy(collection, options);
  EXPECT_EQ(first.seeds, second.seeds);
  EXPECT_EQ(first.gains, second.gains);
  EXPECT_EQ(first.coverage_prefix, second.coverage_prefix);
}

TEST(ApproxCoverageTest, ApproxCoverageNearExactGreedy) {
  // The (1−1/e)-style guarantee degrades gracefully under sketch error:
  // with exact refinement of near-top candidates, total coverage must land
  // within a few percent of the exact greedy on a workload with real
  // overlap structure. 10% is far looser than observed but fails loudly
  // if refinement stops working.
  const RrCollection collection = SkewedCollection(500, 8000, 42);
  CoverageGreedyOptions exact_options;
  exact_options.k = 10;
  const CoverageGreedyResult exact =
      RunCoverageGreedy(collection, exact_options);

  CoverageGreedyOptions approx_options = exact_options;
  approx_options.approx_coverage = true;
  for (const std::uint32_t precision : {6u, 8u, 12u}) {
    approx_options.hll_precision = precision;
    const CoverageGreedyResult approx =
        RunCoverageGreedy(collection, approx_options);
    ASSERT_EQ(approx.seeds.size(), exact.seeds.size());
    // Note: approx can land slightly *above* exact greedy too — greedy is
    // not the optimum, so a perturbed pick order occasionally wins.
    EXPECT_GE(static_cast<double>(approx.total_coverage()),
              0.9 * static_cast<double>(exact.total_coverage()))
        << "precision " << precision;
  }
}

TEST(ApproxCoverageTest, PrecisionIsClampedNotRejected) {
  const RrCollection collection = SkewedCollection(100, 500, 5);
  CoverageGreedyOptions options;
  options.k = 3;
  options.approx_coverage = true;
  options.hll_precision = 99;  // clamped to the [4, 16] band
  const CoverageGreedyResult result = RunCoverageGreedy(collection, options);
  EXPECT_EQ(result.seeds.size(), 3u);
  options.hll_precision = 0;
  const CoverageGreedyResult low = RunCoverageGreedy(collection, options);
  EXPECT_EQ(low.seeds.size(), 3u);
}

}  // namespace
}  // namespace subsim
