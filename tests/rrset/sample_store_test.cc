// SampleStore is the reuse substrate of the serving cache: its streams must
// be byte-identical to a one-shot FillCollection with the same stream, no
// matter how the growth was chunked or how many threads filled it, and its
// committed watermarks must expose only fully generated prefixes.

#include "subsim/rrset/sample_store.h"

#include <gtest/gtest.h>

#include <array>
#include <memory>
#include <utility>
#include <vector>

#include "subsim/graph/generators.h"
#include "subsim/graph/graph_builder.h"
#include "subsim/graph/weight_models.h"
#include "subsim/rrset/parallel_fill.h"

namespace subsim {
namespace {

Graph SmallWcGraph() {
  Result<EdgeList> list = GenerateBarabasiAlbert(300, 3, false, 11);
  EXPECT_TRUE(list.ok());
  EXPECT_TRUE(
      AssignWeights(WeightModel::kWeightedCascade, {}, &list.value()).ok());
  Result<Graph> graph = BuildGraph(std::move(list).value());
  EXPECT_TRUE(graph.ok());
  return std::move(graph).value();
}

std::array<RngStream, SampleStore::kNumStreams> MakeStreams(
    std::uint64_t seed) {
  return {MakeRngStream(seed, 1), MakeRngStream(seed, 2)};
}

void ExpectViewEquals(const RrCollectionView& view,
                      const RrCollection& expected) {
  ASSERT_EQ(view.num_sets(), expected.num_sets());
  EXPECT_EQ(view.total_nodes(), expected.total_nodes());
  for (RrId id = 0; id < view.num_sets(); ++id) {
    const auto a = view.View(id).ToVector();
    const auto b = expected.View(id).ToVector();
    ASSERT_EQ(a.size(), b.size()) << "set " << id;
    for (std::size_t i = 0; i < a.size(); ++i) {
      EXPECT_EQ(a[i], b[i]) << "set " << id << " pos " << i;
    }
  }
}

TEST(SampleStoreTest, ChunkedGrowthMatchesOneShotFill) {
  const Graph graph = SmallWcGraph();

  // Grow stream 0 in awkward chunks through the store...
  Result<std::unique_ptr<SampleStore>> store = SampleStore::Create(
      graph, GeneratorKind::kSubsimIc, MakeStreams(42));
  ASSERT_TRUE(store.ok());
  for (const std::uint64_t target : {1u, 5u, 5u, 64u, 65u, 500u}) {
    ASSERT_TRUE((*store)->EnsureSets(0, target).ok());
    EXPECT_GE((*store)->num_sets(0), target);
  }
  EXPECT_EQ((*store)->num_sets(0), 500u);
  EXPECT_EQ((*store)->num_sets(1), 0u);

  // ...and compare with one straight FillCollection from the same stream.
  RrCollection direct(graph.num_nodes());
  RngStream rng = MakeRngStream(42, 1);
  FillRequest request;
  request.kind = GeneratorKind::kSubsimIc;
  request.graph = &graph;
  request.rng = &rng;
  request.count = 500;
  ASSERT_TRUE(FillCollection(request, &direct).ok());

  const SampleStore::ReadGuard read = (*store)->Read();
  ExpectViewEquals(read.View(0, 500), direct);
}

TEST(SampleStoreTest, ParallelStoreMatchesSequentialStore) {
  // The serving cache hands warm sketches across queries regardless of the
  // thread count that generated them, so a store grown with many threads
  // must equal one grown sequentially, prefix for prefix.
  const Graph graph = SmallWcGraph();
  SampleStore::Options parallel_options;
  parallel_options.num_threads = 8;
  Result<std::unique_ptr<SampleStore>> parallel = SampleStore::Create(
      graph, GeneratorKind::kSubsimIc, MakeStreams(9), parallel_options);
  ASSERT_TRUE(parallel.ok());
  Result<std::unique_ptr<SampleStore>> sequential = SampleStore::Create(
      graph, GeneratorKind::kSubsimIc, MakeStreams(9));
  ASSERT_TRUE(sequential.ok());

  ASSERT_TRUE((*parallel)->EnsureSets(0, 400).ok());
  ASSERT_TRUE((*sequential)->EnsureSets(0, 150).ok());
  ASSERT_TRUE((*sequential)->EnsureSets(0, 400).ok());

  const SampleStore::ReadGuard a = (*parallel)->Read();
  const SampleStore::ReadGuard b = (*sequential)->Read();
  const RrCollectionView va = a.View(0, 400);
  const RrCollectionView vb = b.View(0, 400);
  ASSERT_EQ(va.num_sets(), vb.num_sets());
  EXPECT_EQ(va.total_nodes(), vb.total_nodes());
  for (RrId id = 0; id < va.num_sets(); ++id) {
    const auto sa = va.View(id).ToVector();
    const auto sb = vb.View(id).ToVector();
    ASSERT_EQ(sa.size(), sb.size()) << "set " << id;
    for (std::size_t i = 0; i < sa.size(); ++i) {
      EXPECT_EQ(sa[i], sb[i]) << "set " << id << " pos " << i;
    }
  }
}

TEST(SampleStoreTest, StreamsAreIndependent) {
  const Graph graph = SmallWcGraph();
  Result<std::unique_ptr<SampleStore>> store = SampleStore::Create(
      graph, GeneratorKind::kVanillaIc, MakeStreams(7));
  ASSERT_TRUE(store.ok());
  ASSERT_TRUE((*store)->EnsureSets(0, 50).ok());
  ASSERT_TRUE((*store)->EnsureSets(1, 20).ok());
  EXPECT_EQ((*store)->num_sets(0), 50u);
  EXPECT_EQ((*store)->num_sets(1), 20u);
  EXPECT_EQ((*store)->total_generated(), 70u);

  // Growing stream 1 further must not disturb stream 0's prefix.
  const std::vector<NodeId> before =
      (*store)->Read().View(0, 50).View(10).ToVector();
  ASSERT_TRUE((*store)->EnsureSets(1, 200).ok());
  const SampleStore::ReadGuard read = (*store)->Read();
  const auto after = read.View(0, 50).View(10).ToVector();
  ASSERT_EQ(after.size(), before.size());
  for (std::size_t i = 0; i < after.size(); ++i) {
    EXPECT_EQ(after[i], before[i]);
  }
}

TEST(SampleStoreTest, EnsureSetsIsMonotoneAndIdempotent) {
  const Graph graph = SmallWcGraph();
  Result<std::unique_ptr<SampleStore>> store = SampleStore::Create(
      graph, GeneratorKind::kSubsimIc, MakeStreams(3));
  ASSERT_TRUE(store.ok());
  std::uint64_t appended = 0;
  ASSERT_TRUE((*store)->EnsureSets(0, 100, &appended).ok());
  EXPECT_EQ(appended, 100u);
  // Shrinking requests are no-ops; repeated requests generate nothing new.
  ASSERT_TRUE((*store)->EnsureSets(0, 10, &appended).ok());
  ASSERT_TRUE((*store)->EnsureSets(0, 100, &appended).ok());
  EXPECT_EQ(appended, 100u);
  // Growth adds only the sets this call appended.
  ASSERT_TRUE((*store)->EnsureSets(0, 130, &appended).ok());
  EXPECT_EQ(appended, 130u);
  EXPECT_EQ((*store)->num_sets(0), 130u);
}

TEST(SampleStoreTest, ReportsGraphAndGeneratorIdentity) {
  const Graph graph = SmallWcGraph();
  Result<std::unique_ptr<SampleStore>> store = SampleStore::Create(
      graph, GeneratorKind::kSubsimIc, MakeStreams(1));
  ASSERT_TRUE(store.ok());
  EXPECT_EQ((*store)->generator_kind(), GeneratorKind::kSubsimIc);
  EXPECT_EQ((*store)->num_graph_nodes(), graph.num_nodes());

  const std::uint64_t empty_bytes = (*store)->ApproxMemoryBytes();
  ASSERT_TRUE((*store)->EnsureSets(0, 2000).ok());
  EXPECT_GT((*store)->ApproxMemoryBytes(), empty_bytes);
}

TEST(SampleStoreTest, OnlyStreamZeroHoldsAnIndex) {
  // Greedy reads stream 0, so it is indexed; stream 1 is only counted, so
  // the store charges it for its sets alone, with no per-node term.
  const Graph graph = SmallWcGraph();
  Result<std::unique_ptr<SampleStore>> store = SampleStore::Create(
      graph, GeneratorKind::kVanillaIc, MakeStreams(4));
  ASSERT_TRUE(store.ok());
  ASSERT_TRUE((*store)->EnsureSets(0, 300).ok());
  ASSERT_TRUE((*store)->EnsureSets(1, 200).ok());

  std::array<RrCollection, SampleStore::kNumStreams> direct = {
      RrCollection(graph.num_nodes()), RrCollection(graph.num_nodes())};
  for (std::size_t s = 0; s < SampleStore::kNumStreams; ++s) {
    RngStream rng = MakeRngStream(4, s + 1);
    FillRequest request;
    request.kind = GeneratorKind::kVanillaIc;
    request.graph = &graph;
    request.rng = &rng;
    request.count = (*store)->num_sets(s);
    ASSERT_TRUE(FillCollection(request, &direct[s]).ok());
  }
  const std::uint64_t sets1 = direct[1].num_sets();
  const std::uint64_t stream1_set_bytes =
      direct[1].arena_bytes() + (sets1 + 1) * sizeof(std::uint64_t) +
      sets1 * sizeof(std::uint8_t) + (sets1 + 1) * sizeof(std::uint32_t);
  EXPECT_EQ((*store)->ApproxMemoryBytes(),
            sizeof(SampleStore) + direct[0].ApproxMemoryBytes() +
                stream1_set_bytes);
}

TEST(SampleStoreTest, StoresNeverContainSentinelHits) {
  // Plain generators never truncate, and the store DCHECKs the invariant;
  // verify through the public API that nothing is flagged.
  const Graph graph = SmallWcGraph();
  Result<std::unique_ptr<SampleStore>> store = SampleStore::Create(
      graph, GeneratorKind::kVanillaIc, MakeStreams(5));
  ASSERT_TRUE(store.ok());
  ASSERT_TRUE((*store)->EnsureSets(0, 300).ok());
  const SampleStore::ReadGuard read = (*store)->Read();
  EXPECT_EQ(read.View(0, 300).num_hit_sentinel(), 0u);
}

}  // namespace
}  // namespace subsim
