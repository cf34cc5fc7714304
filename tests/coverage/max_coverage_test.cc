#include "subsim/coverage/max_coverage.h"

#include <gtest/gtest.h>

#include <vector>

#include "subsim/graph/graph_builder.h"

namespace subsim {
namespace {

RrCollection CollectionFromSets(NodeId n,
                                const std::vector<std::vector<NodeId>>& sets,
                                const std::vector<bool>& hits = {}) {
  RrCollection collection(n);
  for (std::size_t i = 0; i < sets.size(); ++i) {
    collection.Add(sets[i], i < hits.size() && hits[i]);
  }
  collection.IndexNewSets();
  return collection;
}

TEST(MaxCoverageTest, SingleSeedPicksMostFrequentNode) {
  const RrCollection collection = CollectionFromSets(
      4, {{0, 1}, {1, 2}, {1, 3}, {2}, {0}});
  CoverageGreedyOptions options;
  options.k = 1;
  const CoverageGreedyResult result = RunCoverageGreedy(collection, options);
  ASSERT_EQ(result.seeds.size(), 1u);
  EXPECT_EQ(result.seeds[0], 1u);  // node 1 covers 3 sets
  EXPECT_EQ(result.total_coverage(), 3u);
  EXPECT_EQ(result.gains[0], 3u);
}

TEST(MaxCoverageTest, GreedySequenceIsCorrectOnKnownInstance) {
  // Classic max-coverage: greedy picks the biggest set, then the best
  // residual.
  const RrCollection collection = CollectionFromSets(
      5, {{0, 1}, {0, 2}, {0, 3}, {4, 1}, {4, 2}, {3}});
  CoverageGreedyOptions options;
  options.k = 2;
  const CoverageGreedyResult result = RunCoverageGreedy(collection, options);
  ASSERT_EQ(result.seeds.size(), 2u);
  EXPECT_EQ(result.seeds[0], 0u);  // covers sets 0,1,2
  EXPECT_EQ(result.seeds[1], 4u);  // covers sets 3,4
  EXPECT_EQ(result.total_coverage(), 5u);
}

TEST(MaxCoverageTest, GainsAreNonIncreasing) {
  const RrCollection collection = CollectionFromSets(
      6, {{0, 1, 2}, {0, 3}, {1, 4}, {2, 5}, {3}, {4}, {5}, {0}});
  CoverageGreedyOptions options;
  options.k = 6;
  const CoverageGreedyResult result = RunCoverageGreedy(collection, options);
  for (std::size_t i = 1; i < result.gains.size(); ++i) {
    EXPECT_LE(result.gains[i], result.gains[i - 1]);
  }
  // coverage_prefix is the running sum of gains.
  std::uint64_t acc = 0;
  for (std::size_t i = 0; i < result.gains.size(); ++i) {
    acc += result.gains[i];
    EXPECT_EQ(result.coverage_prefix[i], acc);
  }
}

TEST(MaxCoverageTest, TieBreakByOutDegree) {
  // Nodes 0 and 1 cover the same number of sets; node 1 has larger
  // out-degree and must win under Algorithm 6.
  GraphBuilder builder(4);
  builder.AddEdge(1, 2, 0.5);
  builder.AddEdge(1, 3, 0.5);
  builder.AddEdge(0, 2, 0.5);
  Result<Graph> graph = std::move(builder).Build();
  ASSERT_TRUE(graph.ok());

  const RrCollection collection =
      CollectionFromSets(4, {{0}, {0}, {1}, {1}});
  CoverageGreedyOptions options;
  options.k = 1;
  options.tie_break_by_out_degree = true;
  options.graph = &*graph;
  const CoverageGreedyResult result = RunCoverageGreedy(collection, options);
  ASSERT_EQ(result.seeds.size(), 1u);
  EXPECT_EQ(result.seeds[0], 1u);

  // Without the tie-break (Algorithm 1), the deterministic id order picks
  // the higher id too... so flip the instance: give node 0 the larger
  // out-degree and check it wins only when tie-breaking is on.
  GraphBuilder builder2(4);
  builder2.AddEdge(0, 2, 0.5);
  builder2.AddEdge(0, 3, 0.5);
  builder2.AddEdge(1, 2, 0.5);
  Result<Graph> graph2 = std::move(builder2).Build();
  ASSERT_TRUE(graph2.ok());
  options.graph = &*graph2;
  const CoverageGreedyResult result2 =
      RunCoverageGreedy(collection, options);
  EXPECT_EQ(result2.seeds[0], 0u);
}

TEST(MaxCoverageTest, ExcludedNodesAreNeverSelected) {
  const RrCollection collection = CollectionFromSets(
      3, {{0}, {0}, {0}, {1}, {2}});
  CoverageGreedyOptions options;
  options.k = 2;
  const std::vector<NodeId> excluded = {0};
  options.excluded_nodes = excluded;
  const CoverageGreedyResult result = RunCoverageGreedy(collection, options);
  ASSERT_EQ(result.seeds.size(), 2u);
  for (NodeId seed : result.seeds) {
    EXPECT_NE(seed, 0u);
  }
}

TEST(MaxCoverageTest, ExcludeSentinelHitSets) {
  const RrCollection collection = CollectionFromSets(
      3, {{0}, {0}, {1}, {1}, {1}},
      {true, true, false, false, false});
  CoverageGreedyOptions options;
  options.k = 1;
  options.exclude_sentinel_hit_sets = true;
  const CoverageGreedyResult result = RunCoverageGreedy(collection, options);
  EXPECT_EQ(result.considered_sets, 3u);
  ASSERT_EQ(result.seeds.size(), 1u);
  EXPECT_EQ(result.seeds[0], 1u);
  EXPECT_EQ(result.total_coverage(), 3u);
}

TEST(MaxCoverageTest, UpperBoundSumsTopKMarginals) {
  const RrCollection collection = CollectionFromSets(
      4, {{0}, {0}, {0}, {1}, {1}, {2}});
  CoverageGreedyOptions options;
  options.k = 2;
  const CoverageGreedyResult result = RunCoverageGreedy(collection, options);
  // min(0 + (3 + 2), 3 + (2 + 1), 5 + (1 + 0)): the singleton term.
  EXPECT_EQ(result.coverage_upper_bound, 5u);
  EXPECT_EQ(result.upper_bound_top_count, 2u);
}

TEST(MaxCoverageTest, SingletonTopCountOverridesK) {
  const RrCollection collection = CollectionFromSets(
      4, {{0}, {0}, {0}, {1}, {1}, {2}});
  CoverageGreedyOptions options;
  options.k = 1;
  options.singleton_top_count = 3;
  const CoverageGreedyResult result = RunCoverageGreedy(collection, options);
  // min(0 + (3 + 2 + 1), 3 + (2 + 1 + 0)).
  EXPECT_EQ(result.coverage_upper_bound, 6u);
  EXPECT_EQ(result.upper_bound_top_count, 3u);
}

TEST(MaxCoverageTest, KLargerThanNodesSelectsAll) {
  const RrCollection collection = CollectionFromSets(3, {{0}, {1}});
  CoverageGreedyOptions options;
  options.k = 10;
  const CoverageGreedyResult result = RunCoverageGreedy(collection, options);
  EXPECT_EQ(result.seeds.size(), 3u);
}

TEST(MaxCoverageTest, EmptyCollectionGivesZeroGains) {
  RrCollection collection(4);
  CoverageGreedyOptions options;
  options.k = 2;
  const CoverageGreedyResult result = RunCoverageGreedy(collection, options);
  EXPECT_EQ(result.seeds.size(), 2u);
  EXPECT_EQ(result.total_coverage(), 0u);
}

TEST(ComputeCoverageTest, CountsDistinctCoveredSets) {
  const RrCollection collection = CollectionFromSets(
      4, {{0, 1}, {1, 2}, {2, 3}, {3}});
  const std::vector<NodeId> seeds = {1, 3};
  // Sets 0,1 contain 1; sets 2,3 contain 3 -> all 4 covered.
  EXPECT_EQ(ComputeCoverage(collection, seeds), 4u);
  const std::vector<NodeId> only0 = {0};
  EXPECT_EQ(ComputeCoverage(collection, only0), 1u);
  const std::vector<NodeId> none = {};
  EXPECT_EQ(ComputeCoverage(collection, none), 0u);
}

TEST(ComputeCoverageTest, OverlappingSeedsNotDoubleCounted) {
  const RrCollection collection = CollectionFromSets(3, {{0, 1}, {0, 1}});
  const std::vector<NodeId> seeds = {0, 1};
  EXPECT_EQ(ComputeCoverage(collection, seeds), 2u);
}

}  // namespace
}  // namespace subsim
