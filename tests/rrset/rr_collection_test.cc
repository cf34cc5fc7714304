#include "subsim/rrset/rr_collection.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <span>
#include <string>
#include <vector>

#include "subsim/coverage/max_coverage.h"
#include "subsim/random/rng.h"

namespace subsim {
namespace {

TEST(RrCollectionTest, StartsEmpty) {
  RrCollection collection(10);
  EXPECT_EQ(collection.num_sets(), 0u);
  EXPECT_EQ(collection.total_nodes(), 0u);
  EXPECT_DOUBLE_EQ(collection.average_size(), 0.0);
  EXPECT_EQ(collection.num_graph_nodes(), 10u);
}

TEST(RrCollectionTest, AddAndRetrieve) {
  RrCollection collection(5);
  const std::vector<NodeId> a = {0, 2, 4};
  const std::vector<NodeId> b = {1};
  EXPECT_EQ(collection.Add(a, false), 0u);
  EXPECT_EQ(collection.Add(b, true), 1u);

  EXPECT_EQ(collection.num_sets(), 2u);
  EXPECT_EQ(collection.total_nodes(), 4u);
  EXPECT_DOUBLE_EQ(collection.average_size(), 2.0);

  const auto set0 = collection.View(0).ToVector();
  ASSERT_EQ(set0.size(), 3u);
  EXPECT_EQ(set0[0], 0u);
  EXPECT_EQ(set0[2], 4u);
  EXPECT_FALSE(collection.HitSentinel(0));
  EXPECT_TRUE(collection.HitSentinel(1));
  EXPECT_EQ(collection.num_hit_sentinel(), 1u);
}

TEST(RrCollectionTest, InvertedIndexTracksMembership) {
  RrCollection collection(4);
  collection.Add(std::vector<NodeId>{0, 1}, false);
  collection.Add(std::vector<NodeId>{1, 2}, false);
  collection.Add(std::vector<NodeId>{1}, false);
  collection.IndexNewSets();

  EXPECT_EQ(collection.SetsContaining(0).size(), 1u);
  EXPECT_EQ(collection.SetsContaining(1).size(), 3u);
  EXPECT_EQ(collection.SetsContaining(2).size(), 1u);
  EXPECT_EQ(collection.SetsContaining(3).size(), 0u);

  const auto containing1 = collection.SetsContaining(1);
  EXPECT_EQ(containing1[0], 0u);
  EXPECT_EQ(containing1[1], 1u);
  EXPECT_EQ(containing1[2], 2u);
}

TEST(RrCollectionTest, EmptySetAllowed) {
  RrCollection collection(3);
  collection.Add(std::vector<NodeId>{}, false);
  EXPECT_EQ(collection.num_sets(), 1u);
  EXPECT_EQ(collection.View(0).size(), 0u);
}

TEST(RrCollectionTest, ClearResetsEverything) {
  RrCollection collection(3);
  collection.Add(std::vector<NodeId>{0, 1}, true);
  collection.IndexNewSets();
  collection.Clear();
  EXPECT_EQ(collection.num_sets(), 0u);
  EXPECT_EQ(collection.total_nodes(), 0u);
  EXPECT_EQ(collection.num_hit_sentinel(), 0u);
  EXPECT_EQ(collection.SetsContaining(0).size(), 0u);
  EXPECT_EQ(collection.num_graph_nodes(), 3u);

  collection.Add(std::vector<NodeId>{2}, false);
  collection.IndexNewSets();
  EXPECT_EQ(collection.num_sets(), 1u);
  EXPECT_EQ(collection.SetsContaining(2).size(), 1u);
}

TEST(RrCollectionTest, ManySetsKeepOffsetsConsistent) {
  RrCollection collection(100);
  std::uint64_t expected_total = 0;
  for (NodeId i = 0; i < 100; ++i) {
    std::vector<NodeId> set;
    for (NodeId j = 0; j <= i % 5; ++j) {
      set.push_back((i + j) % 100);
    }
    collection.Add(set, i % 7 == 0);
    expected_total += set.size();
  }
  EXPECT_EQ(collection.num_sets(), 100u);
  EXPECT_EQ(collection.total_nodes(), expected_total);
  for (RrId id = 0; id < 100; ++id) {
    EXPECT_EQ(collection.View(id).size(), id % 5 + 1u);
  }
}

// ---- Prefix-view behavior under cache-style growth. ----

TEST(RrCollectionViewTest, ImplicitFullViewMatchesCollection) {
  RrCollection collection(6);
  collection.Add(std::vector<NodeId>{0, 3}, false);
  collection.Add(std::vector<NodeId>{3, 5}, true);
  collection.IndexNewSets();

  const RrCollectionView view = collection;  // implicit, full length
  EXPECT_EQ(view.num_sets(), collection.num_sets());
  EXPECT_EQ(view.total_nodes(), collection.total_nodes());
  EXPECT_EQ(view.num_hit_sentinel(), collection.num_hit_sentinel());
  EXPECT_EQ(view.SetsContaining(3).size(), 2u);
}

TEST(RrCollectionViewTest, PrefixViewSurvivesGrowth) {
  // The serving cache hands out prefix views while other queries keep
  // appending; a view taken at length N must keep describing exactly the
  // first N sets no matter how much the parent grows (including across
  // arena/index reallocations).
  RrCollection collection(50);
  collection.Add(std::vector<NodeId>{1, 2}, false);
  collection.Add(std::vector<NodeId>{2, 3}, false);
  collection.IndexNewSets();

  const RrCollectionView snapshot = collection.Prefix(2);
  EXPECT_EQ(snapshot.num_sets(), 2u);
  EXPECT_EQ(snapshot.total_nodes(), 4u);
  EXPECT_EQ(snapshot.SetsContaining(2).size(), 2u);

  // Grow far enough to force several reallocations.
  Rng rng(9);
  for (int i = 0; i < 5000; ++i) {
    std::vector<NodeId> set;
    const int size = 1 + static_cast<int>(rng.NextU64() % 4);
    for (int j = 0; j < size; ++j) {
      set.push_back(static_cast<NodeId>(rng.NextU64() % 50));
    }
    std::sort(set.begin(), set.end());
    set.erase(std::unique(set.begin(), set.end()), set.end());
    collection.Add(set, false);
    if (i % 1000 == 999) {
      collection.IndexNewSets();
    }
  }

  EXPECT_EQ(snapshot.num_sets(), 2u);
  EXPECT_EQ(snapshot.total_nodes(), 4u);
  ASSERT_EQ(snapshot.SetsContaining(2).size(), 2u);
  EXPECT_EQ(snapshot.SetsContaining(2)[0], 0u);
  EXPECT_EQ(snapshot.SetsContaining(2)[1], 1u);
  EXPECT_EQ(snapshot.View(0).size(), 2u);
  EXPECT_EQ(snapshot.View(1).ToVector()[1], 3u);
}

TEST(RrCollectionViewTest, InvertedIndexConsistentAfterLargeAppends) {
  // Every prefix length L must agree with a brute-force recount of the
  // first L sets — the lower_bound trim in SetsContaining has to cut the
  // parent's list exactly at ids < L.
  const NodeId n = 40;
  RrCollection collection(n);
  Rng rng(123);
  std::vector<std::vector<NodeId>> sets;
  for (int i = 0; i < 2000; ++i) {
    std::vector<NodeId> set;
    const int size = 1 + static_cast<int>(rng.NextU64() % 6);
    for (int j = 0; j < size; ++j) {
      set.push_back(static_cast<NodeId>(rng.NextU64() % n));
    }
    std::sort(set.begin(), set.end());
    set.erase(std::unique(set.begin(), set.end()), set.end());
    collection.Add(set, false);
    sets.push_back(set);
  }
  collection.IndexNewSets();
  for (const std::size_t prefix : {0u, 1u, 7u, 500u, 1999u, 2000u}) {
    const RrCollectionView view = collection.Prefix(prefix);
    std::vector<std::size_t> expected(n, 0);
    std::uint64_t expected_nodes = 0;
    for (std::size_t id = 0; id < prefix; ++id) {
      expected_nodes += sets[id].size();
      for (const NodeId v : sets[id]) {
        ++expected[v];
      }
    }
    EXPECT_EQ(view.total_nodes(), expected_nodes);
    for (NodeId v = 0; v < n; ++v) {
      const auto ids = view.SetsContaining(v);
      ASSERT_EQ(ids.size(), expected[v]) << "node " << v << " prefix "
                                         << prefix;
      for (const RrId id : ids) {
        EXPECT_LT(id, prefix);
      }
    }
  }
}

TEST(RrCollectionViewTest, HitSentinelPrefixCountsAreExact) {
  RrCollection collection(10);
  std::size_t hits = 0;
  std::vector<std::size_t> hits_at;  // hits among first i sets
  hits_at.push_back(0);
  for (int i = 0; i < 300; ++i) {
    const bool hit = i % 3 == 1;
    collection.Add(std::vector<NodeId>{static_cast<NodeId>(i % 10)}, hit);
    hits += hit ? 1 : 0;
    hits_at.push_back(hits);
  }
  for (std::size_t prefix = 0; prefix <= 300; prefix += 37) {
    EXPECT_EQ(collection.Prefix(prefix).num_hit_sentinel(), hits_at[prefix]);
  }
  EXPECT_EQ(collection.num_hit_sentinel(), hits_at[300]);
}

TEST(RrCollectionViewTest, GreedyExcludesSentinelHitSetsInEveryPrefix) {
  // The cache-soundness invariant: sentinel-truncated sets must never count
  // toward another query's coverage. The greedy's exclusion must hold on
  // prefix views exactly as on full collections.
  RrCollection collection(8);
  // Node 7 appears only in sentinel-hit sets; node 1 in plain ones.
  for (int i = 0; i < 20; ++i) {
    collection.Add(std::vector<NodeId>{7}, true);
    collection.Add(std::vector<NodeId>{1, static_cast<NodeId>(i % 5)},
                   false);
  }
  collection.IndexNewSets();
  CoverageGreedyOptions options;
  options.k = 1;
  options.exclude_sentinel_hit_sets = true;
  for (const std::size_t prefix : {2u, 10u, 40u}) {
    const CoverageGreedyResult greedy =
        RunCoverageGreedy(collection.Prefix(prefix), options);
    ASSERT_EQ(greedy.seeds.size(), 1u);
    // If hit sets counted, node 7 (in half the sets) would win.
    EXPECT_EQ(greedy.seeds[0], 1u);
    EXPECT_EQ(greedy.considered_sets, prefix / 2);
  }
}

// ---- Bulk index merge against a vector-of-vectors reference. ----

/// Exact footprint `ApproxMemoryBytes` must report once every set is
/// indexed: arena, set offsets (plus the membership prefix for delta),
/// sentinel flags and their prefix, and the CSR index — (n + 1) offsets,
/// one id per membership and the merge's n 4-byte counts, in whole 8-byte
/// words — with no slack.
std::uint64_t ExpectedMemoryBytes(const RrCollection& collection) {
  const std::uint64_t sets = collection.num_sets();
  const std::uint64_t offsets =
      (sets + 1) * sizeof(std::uint64_t) *
      (collection.encoding() == RrEncoding::kRaw ? 1 : 2);
  return collection.arena_bytes() + offsets + sets * sizeof(std::uint8_t) +
         (sets + 1) * sizeof(std::uint32_t) +
         (collection.num_graph_nodes() + 1ull) * sizeof(std::uint64_t) +
         collection.total_nodes() * sizeof(RrId) +
         (collection.num_graph_nodes() + 1ull) / 2 * sizeof(std::uint64_t);
}

/// Compares the first `prefix` sets' index rows with the reference rows
/// (which list ids ascending).
void ExpectPrefixMatches(const RrCollection& collection,
                         const std::vector<std::vector<RrId>>& reference,
                         std::size_t prefix) {
  SCOPED_TRACE("prefix " + std::to_string(prefix));
  const RrCollectionView view = collection.Prefix(prefix);
  for (NodeId v = 0; v < collection.num_graph_nodes(); ++v) {
    const std::vector<RrId>& row = reference[v];
    const auto end = std::lower_bound(row.begin(), row.end(),
                                      static_cast<RrId>(prefix));
    const std::span<const RrId> got = view.SetsContaining(v);
    ASSERT_TRUE(std::equal(got.begin(), got.end(), row.begin(), end))
        << "node " << v << ": " << got.size() << " ids, expected "
        << (end - row.begin());
  }
}

class RrIndexMergeTest : public ::testing::TestWithParam<RrEncoding> {};

TEST_P(RrIndexMergeTest, RandomBatchesMatchReference) {
  // Nodes 5k + 2 are in no set; node n - 1 is in many. Batches (sets added
  // between two IndexNewSets calls) range from zero sets to a few hundred,
  // and sets from empty to 9 members in discovery (unsorted) order.
  constexpr NodeId kNodes = 97;
  RrCollection collection(kNodes, GetParam());
  for (int round = 0; round < 2; ++round) {
    SCOPED_TRACE("round " + std::to_string(round));
    if (round == 1) {
      // Clear keeps the node capacity; the refill below starts from ids 0.
      collection.Clear();
      EXPECT_EQ(collection.num_graph_nodes(), kNodes);
      EXPECT_EQ(collection.ApproxMemoryBytes(),
                ExpectedMemoryBytes(collection));
      for (NodeId v = 0; v < kNodes; ++v) {
        ASSERT_TRUE(collection.SetsContaining(v).empty()) << "node " << v;
      }
    }
    Rng rng(31 + round);
    std::vector<std::vector<RrId>> reference(kNodes);
    std::vector<std::size_t> boundaries = {0};
    std::size_t batch_begin = 0;
    for (int step = 0; step < 60; ++step) {
      const std::uint64_t shape = rng.UniformInt(8);
      const std::size_t batch = shape == 0   ? 0
                                : shape == 1 ? 200 + rng.UniformInt(100)
                                             : rng.UniformInt(40);
      for (std::size_t i = 0; i < batch; ++i) {
        std::vector<NodeId> set;
        const std::size_t size = static_cast<std::size_t>(rng.UniformInt(10));
        while (set.size() < size) {
          NodeId v = static_cast<NodeId>(rng.UniformInt(kNodes));
          if (rng.UniformInt(6) == 0) {
            v = kNodes - 1;
          }
          if (v % 5 != 2 && std::find(set.begin(), set.end(), v) == set.end()) {
            set.push_back(v);
          }
        }
        const RrId id = collection.Add(set, rng.UniformInt(4) == 0);
        ASSERT_EQ(id, collection.num_sets() - 1);
        for (const NodeId v : set) {
          reference[v].push_back(id);
        }
      }
      // Index at random points: a third of the time the batch keeps
      // growing into the next step before it is merged.
      if (rng.UniformInt(3) == 0) {
        continue;
      }
      collection.IndexNewSets();
      const std::size_t batch_end = collection.num_sets();
      boundaries.push_back(batch_end);
      EXPECT_EQ(collection.ApproxMemoryBytes(),
                ExpectedMemoryBytes(collection));
      for (const std::size_t prefix : boundaries) {
        ASSERT_NO_FATAL_FAILURE(
            ExpectPrefixMatches(collection, reference, prefix));
      }
      ASSERT_NO_FATAL_FAILURE(ExpectPrefixMatches(
          collection, reference, (batch_begin + batch_end) / 2));
      batch_begin = batch_end;
    }
    collection.IndexNewSets();
    ASSERT_NO_FATAL_FAILURE(
        ExpectPrefixMatches(collection, reference, collection.num_sets()));
    EXPECT_GT(collection.SetsContaining(kNodes - 1).size(), 100u);
    EXPECT_TRUE(collection.SetsContaining(2).empty());
  }
}

INSTANTIATE_TEST_SUITE_P(BothEncodings, RrIndexMergeTest,
                         ::testing::Values(RrEncoding::kRaw,
                                           RrEncoding::kDeltaVarint),
                         [](const auto& info) {
                           return std::string(RrEncodingName(info.param));
                         });

TEST(RrCollectionTest, ApproxMemoryBytesGrowsWithContent) {
  RrCollection collection(100);
  const std::uint64_t empty = collection.ApproxMemoryBytes();
  for (int i = 0; i < 1000; ++i) {
    collection.Add(std::vector<NodeId>{0, 1, 2, 3}, false);
  }
  EXPECT_GT(collection.ApproxMemoryBytes(), empty);
  collection.Clear();
  EXPECT_EQ(collection.num_sets(), 0u);
  EXPECT_EQ(collection.num_hit_sentinel(), 0u);
}

// ---- Unindexed collections. ----

/// Exact footprint of an unindexed collection: arena, set offsets (plus
/// the membership prefix for delta), sentinel flags and their prefix.
std::uint64_t ExpectedSetBytes(const RrCollection& collection) {
  const std::uint64_t sets = collection.num_sets();
  const std::uint64_t offsets =
      (sets + 1) * sizeof(std::uint64_t) *
      (collection.encoding() == RrEncoding::kRaw ? 1 : 2);
  return collection.arena_bytes() + offsets + sets * sizeof(std::uint8_t) +
         (sets + 1) * sizeof(std::uint32_t);
}

TEST(RrCollectionTest, UnindexedHoldsOnlyItsSets) {
  // On 100K nodes the index's per-node block alone is 1.2 MB, so any
  // per-node term would dwarf the sets below.
  constexpr NodeId kNodes = 100000;
  for (const RrEncoding encoding :
       {RrEncoding::kRaw, RrEncoding::kDeltaVarint}) {
    SCOPED_TRACE(RrEncodingName(encoding));
    RrCollection indexed(kNodes, encoding);
    RrCollection unindexed(kNodes, encoding, RrIndexing::kUnindexed);
    EXPECT_TRUE(indexed.indexed());
    EXPECT_FALSE(unindexed.indexed());
    EXPECT_EQ(unindexed.ApproxMemoryBytes(), ExpectedSetBytes(unindexed));
    Rng rng(7);
    for (int batch = 0; batch < 5; ++batch) {
      for (int i = 0; i < 50; ++i) {
        std::vector<NodeId> set;
        const std::size_t size = static_cast<std::size_t>(rng.UniformInt(12));
        while (set.size() < size) {
          const NodeId v = static_cast<NodeId>(rng.UniformInt(kNodes));
          if (std::find(set.begin(), set.end(), v) == set.end()) {
            set.push_back(v);
          }
        }
        const bool hit = rng.UniformInt(4) == 0;
        indexed.Add(set, hit);
        unindexed.Add(set, hit);
      }
      indexed.IndexNewSets();
      unindexed.IndexNewSets();  // a no-op
      EXPECT_EQ(unindexed.ApproxMemoryBytes(), ExpectedSetBytes(unindexed));
      EXPECT_EQ(indexed.ApproxMemoryBytes(), ExpectedMemoryBytes(indexed));
    }
    ASSERT_EQ(unindexed.num_sets(), indexed.num_sets());
    EXPECT_EQ(unindexed.arena_bytes(), indexed.arena_bytes());
    EXPECT_EQ(unindexed.num_hit_sentinel(), indexed.num_hit_sentinel());
    for (RrId id = 0; id < indexed.num_sets(); ++id) {
      ASSERT_EQ(unindexed.View(id).ToVector(), indexed.View(id).ToVector())
          << "set " << id;
      ASSERT_EQ(unindexed.HitSentinel(id), indexed.HitSentinel(id));
    }
    unindexed.Clear();
    EXPECT_EQ(unindexed.ApproxMemoryBytes(), ExpectedSetBytes(unindexed));
  }
}

TEST(RrCollectionDeathTest, UnindexedSetsContainingNamesTheMissingIndex) {
#ifdef NDEBUG
  GTEST_SKIP() << "SUBSIM_DCHECK is compiled out of NDEBUG builds";
#endif
  RrCollection collection(4, RrEncoding::kRaw, RrIndexing::kUnindexed);
  const std::vector<NodeId> set = {0, 1};
  collection.Add(set, false);
  collection.IndexNewSets();
  EXPECT_DEATH(collection.SetsContaining(1),
               "SetsContaining on an unindexed RrCollection");
  EXPECT_DEATH(collection.Prefix(1).SetsContaining(1),
               "SetsContaining on an unindexed RrCollection");
}

}  // namespace
}  // namespace subsim
