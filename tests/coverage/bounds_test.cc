#include "subsim/coverage/bounds.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <functional>
#include <limits>
#include <numeric>
#include <span>
#include <vector>

#include "subsim/graph/generators.h"
#include "subsim/graph/graph_builder.h"
#include "subsim/graph/weight_models.h"
#include "subsim/random/rng.h"
#include "subsim/rrset/rr_collection.h"
#include "subsim/rrset/subsim_ic_generator.h"

namespace subsim {
namespace {

TEST(OpimLowerBoundTest, MatchesEquationOne) {
  // Hand evaluation of Eq (1): Lambda = 100, theta = 1000, n = 10000,
  // delta = 0.01 -> eta = ln(100).
  const double eta = std::log(100.0);
  const double root = std::sqrt(100.0 + 2.0 * eta / 9.0) - std::sqrt(eta / 2.0);
  const double expected = (root * root - eta / 18.0) * 10000.0 / 1000.0;
  EXPECT_NEAR(OpimLowerBound(100, 1000, 10000, 0.01), expected, 1e-9);
}

TEST(OpimUpperBoundTest, MatchesEquationTwo) {
  const double eta = std::log(100.0);
  const double root = std::sqrt(250.0 + eta / 2.0) + std::sqrt(eta / 2.0);
  const double expected = root * root * 10000.0 / 1000.0;
  EXPECT_NEAR(OpimUpperBound(250.0, 1000, 10000, 0.01), expected, 1e-9);
}

TEST(OpimBoundsTest, LowerBelowEstimateBelowUpper) {
  // The unbiased estimate n * Lambda / theta must sit between the bounds.
  const std::uint64_t coverage = 500;
  const std::uint64_t theta = 2000;
  const NodeId n = 50000;
  const double estimate =
      static_cast<double>(coverage) * n / static_cast<double>(theta);
  const double lower = OpimLowerBound(coverage, theta, n, 0.001);
  const double upper = OpimUpperBound(static_cast<double>(coverage), theta,
                                      n, 0.001);
  EXPECT_LT(lower, estimate);
  EXPECT_GT(upper, estimate);
}

TEST(OpimBoundsTest, TightenWithMoreSamples) {
  // Same coverage *rate*, more samples -> tighter interval.
  const NodeId n = 50000;
  const double gap_small =
      OpimUpperBound(50.0, 200, n, 0.01) - OpimLowerBound(50, 200, n, 0.01);
  const double gap_large = OpimUpperBound(5000.0, 20000, n, 0.01) -
                           OpimLowerBound(5000, 20000, n, 0.01);
  EXPECT_LT(gap_large, gap_small);
}

TEST(OpimBoundsTest, SmallerDeltaWidensInterval) {
  const NodeId n = 10000;
  EXPECT_LE(OpimLowerBound(100, 1000, n, 1e-6),
            OpimLowerBound(100, 1000, n, 1e-2));
  EXPECT_GE(OpimUpperBound(100.0, 1000, n, 1e-6),
            OpimUpperBound(100.0, 1000, n, 1e-2));
}

TEST(OpimBoundsTest, ZeroCoverageLowerBoundNonPositive) {
  EXPECT_LE(OpimLowerBound(0, 100, 1000, 0.01), 1e-9);
}

RrCollection CollectionFromSets(NodeId n,
                                const std::vector<std::vector<NodeId>>& sets) {
  RrCollection collection(n);
  for (const std::vector<NodeId>& set : sets) {
    collection.Add(set, /*hit_sentinel=*/false);
  }
  collection.IndexNewSets();
  return collection;
}

TEST(CoverageUpperBoundTest, UsesMinOverPrefixTerms) {
  // Nodes 0 and 1 share four sets; node 2 covers three, nodes 3-5 one
  // each. k = 3. Greedy takes 1 (gain 4; the larger id wins the tie with
  // 0), then 2 (3), then 5 (1). Terms Λ(S_i) + top-3 marginals:
  //   i = 0: 0 + (4 + 4 + 3) = 11;   i = 1: 4 + (3 + 1 + 1) = 9;
  //   i = 2: 7 + (1 + 1 + 1) = 10;   i = 3: 8 + (1 + 1 + 0) = 10.
  // The minimum sits at an interior prefix. The relaxed k·g_{i+1} terms
  // (13, 10, 11) would have given 10.
  const RrCollection collection = CollectionFromSets(
      6, {{0, 1}, {0, 1}, {0, 1}, {0, 1}, {2}, {2}, {2}, {3}, {4}, {5}});
  CoverageGreedyOptions options;
  options.k = 3;
  const CoverageGreedyResult greedy = RunCoverageGreedy(collection, options);
  EXPECT_EQ(greedy.seeds, (std::vector<NodeId>{1, 2, 5}));
  EXPECT_EQ(greedy.coverage_upper_bound, 9u);
  EXPECT_EQ(greedy.upper_bound_top_count, 3u);
  EXPECT_DOUBLE_EQ(CoverageUpperBoundFromGreedy(greedy, 3), 9.0);
}

TEST(CoverageUpperBoundTest, ExhaustedCoverageUsesZeroTail) {
  // Greedy takes 0 (gain 3) and 2 (1), which cover all four sets, then 1
  // from the zero-gain tail. Once every set is covered the term is the
  // coverage itself: min(3 + 2 + 1, 3 + 1 + 0 + 0, 4 + 0, 4 + 0) = 4.
  const RrCollection collection =
      CollectionFromSets(3, {{0, 1}, {0, 1}, {0}, {2}});
  CoverageGreedyOptions options;
  options.k = 3;
  const CoverageGreedyResult greedy = RunCoverageGreedy(collection, options);
  EXPECT_EQ(greedy.seeds, (std::vector<NodeId>{0, 2, 1}));
  EXPECT_EQ(greedy.gains, (std::vector<std::uint64_t>{3, 1, 0}));
  EXPECT_EQ(greedy.coverage_upper_bound, 4u);
  EXPECT_DOUBLE_EQ(CoverageUpperBoundFromGreedy(greedy, 3), 4.0);
}

/// A small random collection on `n` nodes: up to `max_sets` sets of 1-5
/// distinct nodes each. A set that meets a node of `sentinels`, or one in
/// roughly every seventh draw, carries the sentinel-hit flag.
RrCollection RandomCollection(Rng& rng, NodeId n, std::size_t max_sets,
                              std::span<const NodeId> sentinels) {
  RrCollection collection(n);
  const std::size_t num_sets = rng.NextU64() % (max_sets + 1);
  std::vector<NodeId> nodes(n);
  for (std::size_t s = 0; s < num_sets; ++s) {
    std::iota(nodes.begin(), nodes.end(), NodeId{0});
    const std::size_t size = 1 + rng.NextU64() % 5;
    for (std::size_t i = 0; i < size; ++i) {
      std::swap(nodes[i], nodes[i + rng.NextU64() % (n - i)]);
    }
    const std::vector<NodeId> set(nodes.begin(), nodes.begin() + size);
    const bool meets_sentinel =
        std::find_first_of(set.begin(), set.end(), sentinels.begin(),
                           sentinels.end()) != set.end();
    collection.Add(set, meets_sentinel || rng.NextU64() % 7 == 0);
  }
  collection.IndexNewSets();
  return collection;
}

/// Λ^u by brute force: at every prefix S_i of `seeds`, recount every
/// node's marginal over the considered sets from the sets themselves, sum
/// the `top_count` largest and add Λ(S_i); return the minimum term.
std::uint64_t BruteForceUpperBound(const RrCollection& collection,
                                   bool exclude_hits,
                                   std::span<const NodeId> seeds,
                                   std::uint32_t top_count) {
  const NodeId n = collection.num_graph_nodes();
  std::uint64_t best = std::numeric_limits<std::uint64_t>::max();
  for (std::size_t i = 0; i <= seeds.size(); ++i) {
    const std::span<const NodeId> prefix = seeds.first(i);
    std::uint64_t covered = 0;
    std::vector<std::uint64_t> marginal(n, 0);
    for (std::size_t id = 0; id < collection.num_sets(); ++id) {
      const RrId rr = static_cast<RrId>(id);
      if (exclude_hits && collection.HitSentinel(rr)) {
        continue;
      }
      const std::vector<NodeId> set = collection.View(rr).ToVector();
      if (std::find_first_of(set.begin(), set.end(), prefix.begin(),
                             prefix.end()) != set.end()) {
        ++covered;
        continue;
      }
      for (NodeId v : set) {
        ++marginal[v];
      }
    }
    std::sort(marginal.begin(), marginal.end(), std::greater<>());
    const std::size_t take = std::min<std::size_t>(top_count, n);
    best = std::min(best, covered + std::accumulate(marginal.begin(),
                                                    marginal.begin() + take,
                                                    std::uint64_t{0}));
  }
  return best;
}

/// The relaxation the exact Λ^u replaced: the i = 0 term `singleton_term`
/// exact, every i >= 1 term Λ(S_i) + c · g_{i+1} (the last gain again past
/// the final prefix, or 0 once every considered set is covered), clamped
/// up to the achieved coverage.
std::uint64_t RelaxedUpperBound(const CoverageGreedyResult& greedy,
                                std::uint64_t singleton_term,
                                std::uint32_t top_count) {
  std::uint64_t best = singleton_term;
  const std::size_t steps = greedy.gains.size();
  const bool exhausted = greedy.total_coverage() == greedy.considered_sets;
  for (std::size_t i = 1; i <= steps; ++i) {
    const std::uint64_t next_gain =
        i < steps ? greedy.gains[i] : (exhausted ? 0 : greedy.gains.back());
    best = std::min(best,
                    greedy.coverage_prefix[i - 1] + top_count * next_gain);
  }
  return std::max(best, greedy.total_coverage());
}

/// Largest coverage of any `size` nodes over the considered sets.
std::uint64_t BruteForceOptimalCoverage(const RrCollection& collection,
                                        bool exclude_hits,
                                        std::uint32_t size) {
  const NodeId n = collection.num_graph_nodes();
  std::vector<bool> chosen(n, false);
  std::fill_n(chosen.begin(), std::min<NodeId>(size, n), true);
  std::uint64_t best = 0;
  do {
    std::uint64_t covered = 0;
    for (std::size_t id = 0; id < collection.num_sets(); ++id) {
      const RrId rr = static_cast<RrId>(id);
      if (exclude_hits && collection.HitSentinel(rr)) {
        continue;
      }
      const std::vector<NodeId> set = collection.View(rr).ToVector();
      covered += std::any_of(set.begin(), set.end(),
                             [&](NodeId v) { return chosen[v]; })
                     ? 1
                     : 0;
    }
    best = std::max(best, covered);
  } while (std::prev_permutation(chosen.begin(), chosen.end()));
  return best;
}

// Exact Λ^u against a from-scratch recount of every marginal at every
// prefix, on random collections over the option grid: sentinel-hit sets
// excluded or not; no excluded nodes, excluded nodes that meet only hit
// sets (HIST phase 2's sentinels), or arbitrary excluded nodes; and a top
// count equal to k, above it (HIST phase 2's k - b seeds against a top-k
// term) or below it.
TEST(CoverageUpperBoundTest, EqualsBruteForceOverEveryPrefix) {
  constexpr NodeId kNodes = 11;
  const std::vector<NodeId> sentinels = {3, 8};
  const std::vector<NodeId> arbitrary = {0, 5};
  Rng rng(2026);
  int compared_with_relaxed = 0;
  int strictly_tighter = 0;
  for (int instance = 0; instance < 120; ++instance) {
    for (const bool exclude_hits : {false, true}) {
      for (const int exclusion : {0, 1, 2}) {
        // Exclusion 1 draws its sets with the sentinel flag on every set
        // that meets a sentinel, and excludes those sets: the sentinels
        // then gain nothing, as in HIST phase 2.
        if (exclusion == 1 && !exclude_hits) {
          continue;
        }
        const std::span<const NodeId> excluded =
            exclusion == 0   ? std::span<const NodeId>()
            : exclusion == 1 ? std::span<const NodeId>(sentinels)
                             : std::span<const NodeId>(arbitrary);
        const RrCollection collection = RandomCollection(
            rng, kNodes, 40,
            exclusion == 1 ? std::span<const NodeId>(sentinels)
                           : std::span<const NodeId>());
        const std::uint32_t k = 1 + rng.NextU64() % 5;
        // k - 1 is 0, the default, when k = 1.
        for (const std::uint32_t top_count : {0u, k + 2, k - 1}) {
          SCOPED_TRACE(::testing::Message()
                       << "instance " << instance << " exclude_hits "
                       << exclude_hits << " exclusion " << exclusion << " k "
                       << k << " top " << top_count);
          CoverageGreedyOptions options;
          options.k = k;
          options.exclude_sentinel_hit_sets = exclude_hits;
          options.excluded_nodes = excluded;
          options.singleton_top_count = top_count;
          const CoverageGreedyResult greedy =
              RunCoverageGreedy(collection, options);
          const std::uint32_t c = top_count > 0 ? top_count : k;
          ASSERT_EQ(greedy.upper_bound_top_count, c);
          const std::uint64_t exact = BruteForceUpperBound(
              collection, exclude_hits, greedy.seeds, c);
          EXPECT_EQ(greedy.coverage_upper_bound, exact);
          EXPECT_DOUBLE_EQ(CoverageUpperBoundFromGreedy(greedy, c),
                           static_cast<double>(exact));
          // Sound: no c nodes cover more.
          EXPECT_GE(exact,
                    BruteForceOptimalCoverage(collection, exclude_hits, c));
          if (c >= greedy.seeds.size()) {
            EXPECT_GE(exact, greedy.total_coverage());
          }
          // The relaxed terms dominate the exact ones wherever every node
          // that may gain is selectable; arbitrary excluded nodes keep
          // marginals the greedy gains never bounded.
          if (exclusion != 2) {
            ++compared_with_relaxed;
            const std::uint64_t relaxed = RelaxedUpperBound(
                greedy,
                BruteForceUpperBound(collection, exclude_hits, {}, c), c);
            EXPECT_LE(exact, relaxed);
            strictly_tighter += exact < relaxed ? 1 : 0;
          }
        }
      }
    }
  }
  // The instances must exercise the tightening, not only ties.
  EXPECT_GT(compared_with_relaxed, 0);
  EXPECT_GT(strictly_tighter, compared_with_relaxed / 10);
}

TEST(CoverageUpperBoundTest, NeverBelowAchievedCoverage) {
  // Each term of Λ^u bounds every c-set's coverage, the greedy's own
  // seeds included, whenever c is at least the number of seeds. Random
  // collections, Revised-Greedy off, HIST-style top count k + 2.
  Rng rng(77);
  for (int instance = 0; instance < 200; ++instance) {
    const RrCollection collection = RandomCollection(rng, 9, 30, {});
    CoverageGreedyOptions options;
    options.k = 1 + rng.NextU64() % 4;
    options.singleton_top_count = options.k + 2;
    const CoverageGreedyResult greedy = RunCoverageGreedy(collection, options);
    EXPECT_GE(CoverageUpperBoundFromGreedy(greedy, options.k + 2),
              static_cast<double>(greedy.total_coverage()));
  }
}

TEST(CoverageUpperBoundTest, StatisticallyBoundsOptimalCoverage) {
  // On a real instance the bound must dominate the best k-subset coverage
  // found by the greedy itself (which lower-bounds the optimum it proxies).
  Result<EdgeList> list = GenerateErdosRenyi(80, 500, 3);
  ASSERT_TRUE(list.ok());
  ASSERT_TRUE(
      AssignWeights(WeightModel::kWeightedCascade, {}, &list.value()).ok());
  Result<Graph> graph = BuildGraph(std::move(list).value());
  ASSERT_TRUE(graph.ok());

  SubsimIcGenerator generator(*graph);
  RrCollection collection(graph->num_nodes());
  Rng rng(4);
  generator.Fill(rng, 2000, &collection);

  CoverageGreedyOptions options;
  options.k = 5;
  const CoverageGreedyResult greedy = RunCoverageGreedy(collection, options);
  const double upper = CoverageUpperBoundFromGreedy(greedy, 5);
  EXPECT_GE(upper, static_cast<double>(greedy.total_coverage()));
}

}  // namespace
}  // namespace subsim
