#include "subsim/serve/rr_sketch_cache.h"

#include <gtest/gtest.h>

#include <atomic>
#include <memory>
#include <optional>
#include <thread>
#include <utility>
#include <vector>

#include "subsim/graph/generators.h"
#include "subsim/graph/graph_builder.h"
#include "subsim/graph/weight_models.h"

namespace subsim {
namespace {

std::shared_ptr<const Graph> TinyGraph(std::uint64_t seed) {
  Result<EdgeList> list = GenerateBarabasiAlbert(120, 2, false, seed);
  EXPECT_TRUE(list.ok());
  EXPECT_TRUE(
      AssignWeights(WeightModel::kWeightedCascade, {}, &list.value()).ok());
  Result<Graph> graph = BuildGraph(std::move(list).value());
  EXPECT_TRUE(graph.ok());
  return std::make_shared<const Graph>(std::move(graph).value());
}

RrSketchCache::StoreFactory SequentialFactory(std::uint64_t seed) {
  return [seed](const Graph& graph) {
    return SampleStore::Create(
        graph, GeneratorKind::kSubsimIc,
        {MakeRngStream(seed, 1), MakeRngStream(seed, 2)});
  };
}

SketchKey KeyFor(const std::string& graph, std::uint64_t seed) {
  SketchKey key;
  key.graph = graph;
  key.algo = "opim-c";
  key.generator = GeneratorKind::kSubsimIc;
  key.rng_seed = seed;
  return key;
}

TEST(RrSketchCacheTest, MissThenHitSharesOneStore) {
  RrSketchCache cache;
  const auto graph = TinyGraph(1);

  Result<RrSketchCache::Lookup> first =
      cache.GetOrCreate(KeyFor("g", 7), graph, SequentialFactory(7));
  ASSERT_TRUE(first.ok());
  EXPECT_FALSE(first->hit);
  ASSERT_TRUE(first->entry->store->EnsureSets(0, 64).ok());

  Result<RrSketchCache::Lookup> second =
      cache.GetOrCreate(KeyFor("g", 7), graph, SequentialFactory(7));
  ASSERT_TRUE(second.ok());
  EXPECT_TRUE(second->hit);
  EXPECT_EQ(second->entry.get(), first->entry.get());
  EXPECT_EQ(second->entry->store->num_sets(0), 64u);
  EXPECT_EQ(cache.hits(), 1u);
  EXPECT_EQ(cache.misses(), 1u);
  EXPECT_EQ(cache.num_entries(), 1u);
}

TEST(RrSketchCacheTest, DistinctKeysGetDistinctStores) {
  RrSketchCache cache;
  const auto graph = TinyGraph(1);
  const auto a = cache.GetOrCreate(KeyFor("g", 1), graph,
                                   SequentialFactory(1));
  const auto b = cache.GetOrCreate(KeyFor("g", 2), graph,
                                   SequentialFactory(2));
  SketchKey lt_key = KeyFor("g", 1);
  lt_key.generator = GeneratorKind::kVanillaIc;
  const auto c = cache.GetOrCreate(lt_key, graph, [](const Graph& target) {
    return SampleStore::Create(
        target, GeneratorKind::kVanillaIc,
        {MakeRngStream(1, 1), MakeRngStream(1, 2)});
  });
  ASSERT_TRUE(a.ok() && b.ok() && c.ok());
  EXPECT_NE(a->entry.get(), b->entry.get());
  EXPECT_NE(a->entry.get(), c->entry.get());
  EXPECT_EQ(cache.num_entries(), 3u);
}

TEST(RrSketchCacheTest, EraseGraphDropsOnlyThatGraph) {
  RrSketchCache cache;
  const auto graph = TinyGraph(1);
  ASSERT_TRUE(
      cache.GetOrCreate(KeyFor("a", 1), graph, SequentialFactory(1)).ok());
  ASSERT_TRUE(
      cache.GetOrCreate(KeyFor("a", 2), graph, SequentialFactory(2)).ok());
  ASSERT_TRUE(
      cache.GetOrCreate(KeyFor("b", 1), graph, SequentialFactory(1)).ok());
  EXPECT_EQ(cache.EraseGraph("a"), 2u);
  EXPECT_EQ(cache.num_entries(), 1u);
  // "b" survives and still hits.
  const auto lookup =
      cache.GetOrCreate(KeyFor("b", 1), graph, SequentialFactory(1));
  ASSERT_TRUE(lookup.ok());
  EXPECT_TRUE(lookup->hit);
}

TEST(RrSketchCacheTest, BudgetEvictionIsLeastRecentlyUsedFirst) {
  RrSketchCache::Options options;
  options.max_bytes = 1;  // anything with content is over budget
  RrSketchCache cache(options);
  const auto graph = TinyGraph(1);

  const auto first =
      cache.GetOrCreate(KeyFor("g", 1), graph, SequentialFactory(1));
  ASSERT_TRUE(first.ok());
  ASSERT_TRUE(first->entry->store->EnsureSets(0, 256).ok());
  const auto second =
      cache.GetOrCreate(KeyFor("g", 2), graph, SequentialFactory(2));
  ASSERT_TRUE(second.ok());
  ASSERT_TRUE(second->entry->store->EnsureSets(0, 256).ok());

  cache.EnforceBudget();
  EXPECT_EQ(cache.num_entries(), 0u);
  EXPECT_EQ(cache.evictions(), 2u);

  // Evicted entries stay usable by their holders.
  EXPECT_EQ(first->entry->store->num_sets(0), 256u);

  // Re-lookup misses (the cache dropped its reference).
  const auto again =
      cache.GetOrCreate(KeyFor("g", 1), graph, SequentialFactory(1));
  ASSERT_TRUE(again.ok());
  EXPECT_FALSE(again->hit);
}

TEST(RrSketchCacheTest, LruOrderPrefersRecentlyUsedEntries) {
  RrSketchCache::Options options;
  options.max_bytes = 512ull << 20;
  RrSketchCache cache(options);
  const auto graph = TinyGraph(1);

  const auto a = cache.GetOrCreate(KeyFor("g", 1), graph,
                                   SequentialFactory(1));
  const auto b = cache.GetOrCreate(KeyFor("g", 2), graph,
                                   SequentialFactory(2));
  ASSERT_TRUE(a.ok() && b.ok());
  ASSERT_TRUE(a->entry->store->EnsureSets(0, 512).ok());
  ASSERT_TRUE(b->entry->store->EnsureSets(0, 512).ok());
  // Touch "1" so "2" is the LRU victim.
  ASSERT_TRUE(
      cache.GetOrCreate(KeyFor("g", 1), graph, SequentialFactory(1)).ok());

  // Shrink the budget to roughly one store and evict.
  const std::uint64_t one_store = a->entry->store->ApproxMemoryBytes();
  RrSketchCache::Options tight;
  tight.max_bytes = one_store + one_store / 2;
  RrSketchCache tight_cache(tight);
  const auto ta = tight_cache.GetOrCreate(KeyFor("g", 1), graph,
                                          SequentialFactory(1));
  const auto tb = tight_cache.GetOrCreate(KeyFor("g", 2), graph,
                                          SequentialFactory(2));
  ASSERT_TRUE(ta.ok() && tb.ok());
  ASSERT_TRUE(ta->entry->store->EnsureSets(0, 512).ok());
  ASSERT_TRUE(tb->entry->store->EnsureSets(0, 512).ok());
  ASSERT_TRUE(tight_cache
                  .GetOrCreate(KeyFor("g", 1), graph, SequentialFactory(1))
                  .ok());  // "1" most recent
  tight_cache.EnforceBudget();
  EXPECT_EQ(tight_cache.num_entries(), 1u);
  const auto survivor = tight_cache.GetOrCreate(KeyFor("g", 1), graph,
                                                SequentialFactory(1));
  ASSERT_TRUE(survivor.ok());
  EXPECT_TRUE(survivor->hit) << "the recently used entry must survive";
}

TEST(RrSketchCacheTest, ZeroBudgetDisablesRetention) {
  RrSketchCache::Options options;
  options.max_bytes = 0;
  RrSketchCache cache(options);
  const auto graph = TinyGraph(1);
  const auto first =
      cache.GetOrCreate(KeyFor("g", 1), graph, SequentialFactory(1));
  ASSERT_TRUE(first.ok());
  EXPECT_FALSE(first->hit);
  EXPECT_EQ(cache.num_entries(), 0u);
  const auto second =
      cache.GetOrCreate(KeyFor("g", 1), graph, SequentialFactory(1));
  ASSERT_TRUE(second.ok());
  EXPECT_FALSE(second->hit);
}

TEST(RrSketchCacheTest, FactoryFailurePropagates) {
  RrSketchCache cache;
  const auto graph = TinyGraph(1);
  const auto lookup = cache.GetOrCreate(
      KeyFor("g", 1), graph,
      [](const Graph&) -> Result<std::unique_ptr<SampleStore>> {
        return Status::FailedPrecondition("no store for you");
      });
  EXPECT_FALSE(lookup.ok());
  EXPECT_EQ(cache.num_entries(), 0u);
}

TEST(RrSketchCacheTest, BudgetEvictionRacesConcurrentLookups) {
  // The TSan scenario for the admission-era cache: a tiny byte budget so
  // evictions fire constantly, reader threads hammering GetOrCreate +
  // EnsureSets (growing entries past the budget), and a dedicated thread
  // spinning EnforceBudget. Entries are shared_ptr-owned, so an evicted
  // entry a reader still holds must stay valid until the reader drops it.
  RrSketchCache::Options options;
  options.max_bytes = 4 * 1024;  // less than one grown store: constant churn
  RrSketchCache cache(options);
  const auto graph = TinyGraph(7);

  std::atomic<bool> stop{false};
  std::atomic<int> failures{0};

  std::vector<std::thread> readers;
  for (int t = 0; t < 4; ++t) {
    readers.emplace_back([&, t] {
      for (int i = 0; i < 60; ++i) {
        // 8 distinct keys cycling: misses, hits, and re-creations after
        // eviction all happen during the run.
        const std::uint64_t seed = static_cast<std::uint64_t>((t + i) % 8);
        const auto lookup =
            cache.GetOrCreate(KeyFor("g", seed), graph,
                              SequentialFactory(seed));
        if (!lookup.ok()) {
          failures.fetch_add(1);
          continue;
        }
        // Grow the store while it may concurrently be evicted.
        if (!lookup->entry->store->EnsureSets(0, 64 * (i % 4 + 1)).ok()) {
          failures.fetch_add(1);
        }
      }
    });
  }
  std::thread evictor([&] {
    while (!stop.load()) {
      cache.EnforceBudget();
      std::this_thread::yield();
    }
  });
  for (std::thread& reader : readers) {
    reader.join();
  }
  stop.store(true);
  evictor.join();

  EXPECT_EQ(failures.load(), 0);
  EXPECT_GT(cache.evictions(), 0u);
  // The budget is enforced once the dust settles.
  cache.EnforceBudget();
  EXPECT_LE(cache.ApproxMemoryBytes(), options.max_bytes);
}

TEST(RrSketchCacheTest, LostRaceCountsAsLostRaceNotHit) {
  // Two threads miss the same key concurrently; the factory blocks until
  // both are inside it, so exactly one insert wins and the other finds the
  // winner's entry on its second look. The loser built a store for nothing
  // — it must land in lost_races(), not inflate hits().
  RrSketchCache cache;
  const auto graph = TinyGraph(1);

  std::atomic<int> in_factory{0};
  const RrSketchCache::StoreFactory blocking_factory =
      [&](const Graph& target) {
        in_factory.fetch_add(1);
        while (in_factory.load() < 2) {
          std::this_thread::yield();
        }
        return SampleStore::Create(target, GeneratorKind::kSubsimIc,
                                   {MakeRngStream(3, 1), MakeRngStream(3, 2)});
      };

  std::optional<Result<RrSketchCache::Lookup>> results[2];
  std::thread racer([&] {
    results[1].emplace(
        cache.GetOrCreate(KeyFor("g", 3), graph, blocking_factory));
  });
  results[0].emplace(
      cache.GetOrCreate(KeyFor("g", 3), graph, blocking_factory));
  racer.join();

  ASSERT_TRUE(results[0]->ok() && results[1]->ok());
  // Both callers share the winner's entry; the loser reports hit=true (its
  // sets came from the winner's store).
  EXPECT_EQ((*results[0])->entry.get(), (*results[1])->entry.get());
  EXPECT_EQ(cache.num_entries(), 1u);
  EXPECT_EQ(cache.misses(), 1u);
  EXPECT_EQ(cache.lost_races(), 1u);
  EXPECT_EQ(cache.hits(), 0u) << "a lost race is not a cache hit";
}

TEST(RrSketchCacheTest, VersionedKeysAreDistinctEntries) {
  RrSketchCache cache;
  const auto graph = TinyGraph(1);
  SketchKey v1 = KeyFor("g", 7);
  v1.graph_version = 1;
  SketchKey v2 = v1;
  v2.graph_version = 2;
  EXPECT_FALSE(v1 == v2);

  ASSERT_TRUE(cache.GetOrCreate(v1, graph, SequentialFactory(7)).ok());
  const auto other = cache.GetOrCreate(v2, graph, SequentialFactory(7));
  ASSERT_TRUE(other.ok());
  EXPECT_FALSE(other->hit) << "a new graph version can never hit old sets";
  EXPECT_EQ(cache.num_entries(), 2u);

  // EntriesForGraph filters on (name, version).
  EXPECT_EQ(cache.EntriesForGraph("g", 1).size(), 1u);
  EXPECT_EQ(cache.EntriesForGraph("g", 2).size(), 1u);
  EXPECT_EQ(cache.EntriesForGraph("g", 3).size(), 0u);
  EXPECT_EQ(cache.EntriesForGraph("other", 1).size(), 0u);
}

TEST(RrSketchCacheTest, EraseGraphVersionsBelowRetiresOldVersions) {
  RrSketchCache cache;
  const auto graph = TinyGraph(1);
  for (const std::uint64_t version : {1u, 2u, 3u}) {
    SketchKey key = KeyFor("g", 7);
    key.graph_version = version;
    ASSERT_TRUE(cache.GetOrCreate(key, graph, SequentialFactory(7)).ok());
  }
  SketchKey other = KeyFor("other", 7);
  other.graph_version = 1;
  ASSERT_TRUE(cache.GetOrCreate(other, graph, SequentialFactory(7)).ok());

  EXPECT_EQ(cache.EraseGraphVersionsBelow("g", 3), 2u);
  EXPECT_EQ(cache.num_entries(), 2u);  // g@v3 and other@v1 survive
  SketchKey v3 = KeyFor("g", 7);
  v3.graph_version = 3;
  EXPECT_TRUE(cache.GetOrCreate(v3, graph, SequentialFactory(7))->hit);
  EXPECT_TRUE(cache.GetOrCreate(other, graph, SequentialFactory(7))->hit);
}

TEST(RrSketchCacheTest, PutPublishesAndReplacesEntries) {
  RrSketchCache cache;
  const auto graph = TinyGraph(1);
  const SketchKey key = KeyFor("g", 7);

  const auto make_entry = [&](std::uint64_t sets) {
    auto store = SampleStore::Create(
        *graph, GeneratorKind::kSubsimIc,
        {MakeRngStream(7, 1), MakeRngStream(7, 2)});
    EXPECT_TRUE(store.ok());
    EXPECT_TRUE((*store)->EnsureSets(0, sets).ok());
    auto entry = std::make_shared<RrSketchCache::Entry>();
    entry->graph = graph;
    entry->store = std::move(store).value();
    return entry;
  };

  cache.Put(key, make_entry(32));
  auto lookup = cache.GetOrCreate(key, graph, SequentialFactory(7));
  ASSERT_TRUE(lookup.ok());
  EXPECT_TRUE(lookup->hit);
  EXPECT_EQ(lookup->entry->store->num_sets(0), 32u);

  // Replacement swaps the entry in place (byte accounting must not leak:
  // the budget stays enforceable afterwards).
  cache.Put(key, make_entry(64));
  lookup = cache.GetOrCreate(key, graph, SequentialFactory(7));
  ASSERT_TRUE(lookup.ok());
  EXPECT_TRUE(lookup->hit);
  EXPECT_EQ(lookup->entry->store->num_sets(0), 64u);
  EXPECT_EQ(cache.num_entries(), 1u);
  cache.EnforceBudget();
  EXPECT_EQ(cache.num_entries(), 1u);

  // Put on a zero-budget cache is a no-op.
  RrSketchCache::Options disabled;
  disabled.max_bytes = 0;
  RrSketchCache off(disabled);
  off.Put(key, make_entry(8));
  EXPECT_EQ(off.num_entries(), 0u);
}

TEST(RrSketchCacheTest, BudgetAccountingSurvivesGrowthAndErase) {
  // The running-total bookkeeping (satellite: EnforceBudget is no longer
  // an O(n^2) rescan) must agree with the exact recompute through grows,
  // hits, erases, and evictions.
  RrSketchCache::Options options;
  options.max_bytes = 512ull << 20;  // roomy: nothing evicts yet
  RrSketchCache cache(options);
  const auto graph = TinyGraph(1);

  const auto a = cache.GetOrCreate(KeyFor("g", 1), graph,
                                   SequentialFactory(1));
  const auto b = cache.GetOrCreate(KeyFor("g", 2), graph,
                                   SequentialFactory(2));
  ASSERT_TRUE(a.ok() && b.ok());
  ASSERT_TRUE(a->entry->store->EnsureSets(0, 512).ok());
  ASSERT_TRUE(b->entry->store->EnsureSets(0, 256).ok());
  // Touch both so their slots are marked dirty, then reconcile.
  ASSERT_TRUE(
      cache.GetOrCreate(KeyFor("g", 1), graph, SequentialFactory(1)).ok());
  ASSERT_TRUE(
      cache.GetOrCreate(KeyFor("g", 2), graph, SequentialFactory(2)).ok());
  cache.EnforceBudget();
  EXPECT_EQ(cache.num_entries(), 2u);

  EXPECT_EQ(cache.EraseGraph("g"), 2u);
  EXPECT_EQ(cache.ApproxMemoryBytes(), 0u);
  // An empty cache enforces its budget trivially (no stale total left
  // behind by the erase).
  cache.EnforceBudget();
  EXPECT_EQ(cache.evictions(), 0u);
}

TEST(RrSketchCacheTest, MixedEncodingEntriesChargeEncodedBytes) {
  // Two entries over the same graph/seed, one raw and one delta-varint:
  // they must be distinct keys, the delta entry must charge the budget
  // fewer bytes (it holds the same sets in a smaller arena), and a tight
  // budget must evict by those encoded footprints — so a delta entry
  // survives where its raw twin would not.
  //
  // Needs RR sets dense enough for the encoded arena to dominate the
  // per-set metadata, so this graph uses uniform p=0.5 (sets span much
  // of the 200-node giant component) instead of TinyGraph's WC weights.
  const auto dense_graph = [] {
    Result<EdgeList> list = GenerateBarabasiAlbert(200, 3, false, 4);
    EXPECT_TRUE(list.ok());
    WeightModelParams params;
    params.uniform_p = 0.5;
    EXPECT_TRUE(
        AssignWeights(WeightModel::kUniformIc, params, &list.value()).ok());
    Result<Graph> graph = BuildGraph(std::move(list).value());
    EXPECT_TRUE(graph.ok());
    return std::make_shared<const Graph>(std::move(graph).value());
  }();
  const auto delta_factory = [](const Graph& target) {
    SampleStore::Options options;
    options.encoding = RrEncoding::kDeltaVarint;
    return SampleStore::Create(
        target, GeneratorKind::kSubsimIc,
        {MakeRngStream(1, 1), MakeRngStream(1, 2)}, options);
  };
  SketchKey raw_key = KeyFor("g", 1);
  SketchKey delta_key = KeyFor("g", 1);
  delta_key.encoding = RrEncoding::kDeltaVarint;
  EXPECT_FALSE(raw_key == delta_key);

  RrSketchCache::Options roomy;
  roomy.max_bytes = 512ull << 20;
  RrSketchCache cache(roomy);
  const auto& graph = dense_graph;
  const auto raw = cache.GetOrCreate(raw_key, graph, SequentialFactory(1));
  const auto delta = cache.GetOrCreate(delta_key, graph, delta_factory);
  ASSERT_TRUE(raw.ok() && delta.ok());
  EXPECT_EQ(cache.num_entries(), 2u);
  ASSERT_TRUE(raw->entry->store->EnsureSets(0, 2048).ok());
  ASSERT_TRUE(delta->entry->store->EnsureSets(0, 2048).ok());

  const std::uint64_t raw_bytes = raw->entry->store->ApproxMemoryBytes();
  const std::uint64_t delta_bytes = delta->entry->store->ApproxMemoryBytes();
  EXPECT_LT(delta_bytes, raw_bytes)
      << "the budget must see the encoded arena, not a raw-equivalent size";
  cache.EnforceBudget();
  EXPECT_EQ(cache.num_entries(), 2u) << "roomy budget evicts nothing";

  // Budget that fits the delta entry but not raw + delta. Recreate both
  // (delta touched last → raw is the LRU victim); after enforcement only
  // the delta entry remains and the cache is within budget.
  RrSketchCache::Options tight;
  tight.max_bytes = raw_bytes + delta_bytes / 2;
  RrSketchCache tight_cache(tight);
  const auto traw =
      tight_cache.GetOrCreate(raw_key, graph, SequentialFactory(1));
  const auto tdelta = tight_cache.GetOrCreate(delta_key, graph, delta_factory);
  ASSERT_TRUE(traw.ok() && tdelta.ok());
  ASSERT_TRUE(traw->entry->store->EnsureSets(0, 2048).ok());
  ASSERT_TRUE(tdelta->entry->store->EnsureSets(0, 2048).ok());
  ASSERT_TRUE(tight_cache.GetOrCreate(delta_key, graph, delta_factory).ok());
  tight_cache.EnforceBudget();
  EXPECT_EQ(tight_cache.num_entries(), 1u);
  EXPECT_LE(tight_cache.ApproxMemoryBytes(), tight.max_bytes);
  const auto survivor =
      tight_cache.GetOrCreate(delta_key, graph, delta_factory);
  ASSERT_TRUE(survivor.ok());
  EXPECT_TRUE(survivor->hit) << "the smaller, fresher delta entry survives";

  // Both stores hold the same logical sample stream.
  EXPECT_EQ(raw->entry->store->num_sets(0),
            delta->entry->store->num_sets(0));
  EXPECT_EQ(raw->entry->store->encoding(), RrEncoding::kRaw);
  EXPECT_EQ(delta->entry->store->encoding(), RrEncoding::kDeltaVarint);
}

TEST(SketchKeyTest, OrderingAndEquality) {
  const SketchKey a = KeyFor("a", 1);
  SketchKey b = KeyFor("a", 1);
  EXPECT_TRUE(a == b);
  b.rng_seed = 2;
  EXPECT_FALSE(a == b);
  EXPECT_TRUE(a < b || b < a);
}

}  // namespace
}  // namespace subsim
