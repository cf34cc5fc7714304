#include "subsim/coverage/max_coverage.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <span>
#include <string>
#include <vector>

#include "subsim/graph/graph_builder.h"
#include "subsim/random/rng.h"

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

/// Λ_R(S) recounted from the inverted index: mark every set in each seed's
/// row, count the marks.
std::uint64_t IndexRecount(RrCollectionView view,
                           std::span<const NodeId> seeds) {
  std::vector<std::uint8_t> covered(view.num_sets(), 0);
  std::uint64_t total = 0;
  for (const NodeId v : seeds) {
    for (const RrId id : view.SetsContaining(v)) {
      if (!covered[id]) {
        covered[id] = 1;
        ++total;
      }
    }
  }
  return total;
}

TEST(ComputeCoverageTest, ScanEqualsIndexRecount) {
  // Sets of 0-11 members, some empty, every fourth sentinel-truncated and
  // then holding node 0 (as HIST's truncated sets hold the sentinel they
  // hit); node kNodes - 1 is in no set.
  constexpr NodeId kNodes = 60;
  std::vector<NodeId> every_node(kNodes);
  for (NodeId v = 0; v < kNodes; ++v) {
    every_node[v] = v;
  }
  Rng seed_rng(3);
  std::vector<std::vector<NodeId>> seed_lists = {
      {}, {0}, {5}, {5, 5, 5}, {3, 9, 3, 40, 9}, {kNodes - 1}, every_node};
  for (int i = 0; i < 20; ++i) {
    std::vector<NodeId> seeds(1 + seed_rng.UniformInt(8));
    for (NodeId& v : seeds) {
      v = static_cast<NodeId>(seed_rng.UniformInt(kNodes));  // may repeat
    }
    seed_lists.push_back(std::move(seeds));
  }

  for (const RrEncoding encoding :
       {RrEncoding::kRaw, RrEncoding::kDeltaVarint}) {
    SCOPED_TRACE(RrEncodingName(encoding));
    RrCollection indexed(kNodes, encoding);
    RrCollection unindexed(kNodes, encoding, RrIndexing::kUnindexed);
    Rng rng(17);
    for (int i = 0; i < 300; ++i) {
      const bool hit = i % 4 == 0;
      std::vector<NodeId> set;
      if (hit) {
        set.push_back(0);
      }
      const std::size_t size = static_cast<std::size_t>(rng.UniformInt(12));
      while (set.size() < size) {
        const NodeId v = static_cast<NodeId>(rng.UniformInt(kNodes - 1));
        if (std::find(set.begin(), set.end(), v) == set.end()) {
          set.push_back(v);
        }
      }
      indexed.Add(set, hit);
      unindexed.Add(set, hit);
    }
    indexed.IndexNewSets();
    unindexed.IndexNewSets();

    for (const std::size_t prefix :
         {std::size_t{1}, indexed.num_sets() / 2, indexed.num_sets()}) {
      SCOPED_TRACE("prefix " + std::to_string(prefix));
      std::uint64_t nonempty = 0;
      for (RrId id = 0; id < prefix; ++id) {
        nonempty += indexed.View(id).empty() ? 0 : 1;
      }
      for (const std::vector<NodeId>& seeds : seed_lists) {
        SCOPED_TRACE("seeds " + std::to_string(seeds.size()));
        const std::uint64_t expected =
            IndexRecount(indexed.Prefix(prefix), seeds);
        EXPECT_EQ(ComputeCoverage(indexed.Prefix(prefix), seeds), expected);
        EXPECT_EQ(ComputeCoverage(unindexed.Prefix(prefix), seeds),
                  expected);
      }
      // Every node covers every set that has a member.
      EXPECT_EQ(ComputeCoverage(unindexed.Prefix(prefix), every_node),
                nonempty);
    }
  }
}

TEST(ComputeCoverageDeathTest, RejectsSeedOutOfNodeRange) {
  const RrCollection collection = CollectionFromSets(4, {{0, 1}, {3}});
  const std::vector<NodeId> seeds = {1, 4};
  EXPECT_DEATH(ComputeCoverage(collection, seeds),
               "seed id out of node range");
}

}  // namespace
}  // namespace subsim
