#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <cstdint>
#include <memory>
#include <span>
#include <string>
#include <unordered_set>
#include <utility>
#include <vector>

#include "subsim/graph/generators.h"
#include "subsim/graph/graph.h"
#include "subsim/graph/graph_builder.h"
#include "subsim/graph/graph_update.h"
#include "subsim/graph/weight_models.h"
#include "subsim/random/rng.h"
#include "subsim/rrset/generator_factory.h"
#include "subsim/rrset/sample_store.h"
#include "index_equality.h"

namespace subsim {
namespace {

constexpr std::uint64_t kSeed = 7;
constexpr std::uint64_t kSetsR1 = 400;
constexpr std::uint64_t kSetsR2 = 250;

Graph RepairGraph(std::uint64_t seed) {
  Result<EdgeList> list = GenerateBarabasiAlbert(300, 3, false, seed);
  EXPECT_TRUE(list.ok());
  EXPECT_TRUE(
      AssignWeights(WeightModel::kWeightedCascade, {}, &list.value()).ok());
  Result<Graph> graph = BuildGraph(std::move(list).value());
  EXPECT_TRUE(graph.ok());
  return std::move(graph).value();
}

std::array<RngStream, SampleStore::kNumStreams> Streams() {
  return {MakeRngStream(kSeed, 1), MakeRngStream(kSeed, 2)};
}

/// A batch safe for every generator kind: weight *decreases* on a few
/// distinct edges plus one delete. Inserts are exercised separately for the
/// IC kinds — an insert can push an LT in-weight sum past 1.
UpdateBatch ShrinkingBatch(const Graph& graph) {
  const EdgeList list = graph.ToEdgeList();
  UpdateBatch batch;
  std::unordered_set<std::uint64_t> used;
  const auto key = [](const Edge& e) {
    return (static_cast<std::uint64_t>(e.src) << 32) | e.dst;
  };
  const std::size_t stride = list.edges.size() / 6 + 1;
  for (std::size_t i = 0; i < list.edges.size() && used.size() < 5;
       i += stride) {
    const Edge& e = list.edges[i];
    if (!used.insert(key(e)).second) {
      continue;
    }
    batch.ops.push_back({EdgeOpKind::kSetWeight, e.src, e.dst,
                         e.weight * 0.5});
  }
  for (const Edge& e : list.edges) {
    if (used.insert(key(e)).second) {
      batch.ops.push_back({EdgeOpKind::kDelete, e.src, e.dst, 0.0});
      break;
    }
  }
  EXPECT_GE(batch.ops.size(), 2u);
  return batch;
}

/// Adds one edge not present in `graph` (IC kinds only).
void AddInsertOp(const Graph& graph, UpdateBatch* batch) {
  std::unordered_set<std::uint64_t> existing;
  for (const Edge& e : graph.ToEdgeList().edges) {
    existing.insert((static_cast<std::uint64_t>(e.src) << 32) | e.dst);
  }
  for (NodeId a = 0; a < graph.num_nodes(); ++a) {
    for (NodeId b = 0; b < graph.num_nodes(); ++b) {
      if (a == b) {
        continue;
      }
      const std::uint64_t key = (static_cast<std::uint64_t>(a) << 32) | b;
      if (existing.count(key) == 0) {
        batch->ops.push_back({EdgeOpKind::kInsert, a, b, 0.3});
        return;
      }
    }
  }
  FAIL() << "graph is complete; cannot insert";
}

/// Set-by-set byte identity on both streams, and equal inverted-index rows
/// on stream 0, the only indexed stream.
void ExpectStoresIdentical(const SampleStore& a, const SampleStore& b) {
  const SampleStore::ReadGuard read_a = a.Read();
  const SampleStore::ReadGuard read_b = b.Read();
  for (std::size_t s = 0; s < SampleStore::kNumStreams; ++s) {
    SCOPED_TRACE("stream " + std::to_string(s));
    ASSERT_EQ(a.num_sets(s), b.num_sets(s));
    const RrCollectionView va = read_a.View(s, a.num_sets(s));
    const RrCollectionView vb = read_b.View(s, b.num_sets(s));
    for (RrId id = 0; id < va.num_sets(); ++id) {
      const std::vector<NodeId> sa = va.View(id).ToVector();
      const std::vector<NodeId> sb = vb.View(id).ToVector();
      ASSERT_TRUE(sa.size() == sb.size() &&
                  std::equal(sa.begin(), sa.end(), sb.begin()))
          << "set " << id << " differs";
      ASSERT_EQ(va.HitSentinel(id), vb.HitSentinel(id)) << "set " << id;
    }
    if (s == 0) {
      ASSERT_NO_FATAL_FAILURE(ExpectSameIndex(va, vb));
    }
  }
}

/// Ground truth for `sets_repaired`: count committed sets of `streams`
/// holding at least one dirty node, by scanning each set's members. Ids out
/// of the node range name no member.
std::uint64_t CountAffectedSets(const SampleStore& store,
                                const std::vector<NodeId>& dirty_nodes,
                                std::vector<std::size_t> streams = {0, 1}) {
  const std::unordered_set<NodeId> dirty(dirty_nodes.begin(),
                                         dirty_nodes.end());
  const SampleStore::ReadGuard read = store.Read();
  std::uint64_t affected = 0;
  for (const std::size_t s : streams) {
    const RrCollectionView view = read.View(s, store.num_sets(s));
    for (RrId id = 0; id < view.num_sets(); ++id) {
      const std::vector<NodeId> members = view.View(id).ToVector();
      affected += std::any_of(members.begin(), members.end(),
                              [&dirty](NodeId v) { return dirty.count(v); });
    }
  }
  return affected;
}

struct RepairCase {
  GeneratorKind kind;
  unsigned num_threads;
  bool with_insert;
};

void RunRepairCase(const RepairCase& test_case) {
  const Graph base = RepairGraph(kSeed);
  SampleStore::Options options;
  options.num_threads = test_case.num_threads;

  Result<std::unique_ptr<SampleStore>> source =
      SampleStore::Create(base, test_case.kind, Streams(), options);
  ASSERT_TRUE(source.ok()) << source.status().ToString();
  ASSERT_TRUE((*source)->EnsureSets(0, kSetsR1).ok());
  ASSERT_TRUE((*source)->EnsureSets(1, kSetsR2).ok());

  UpdateBatch batch = ShrinkingBatch(base);
  if (test_case.with_insert) {
    AddInsertOp(base, &batch);
  }
  Result<EdgeUpdateResult> updated = ApplyEdgeUpdates(base, batch);
  ASSERT_TRUE(updated.ok()) << updated.status().ToString();

  const std::uint64_t expected_repaired =
      CountAffectedSets(**source, updated->dirty_nodes);

  SampleStore::RepairStats stats;
  Result<std::unique_ptr<SampleStore>> repaired = SampleStore::CreateRepaired(
      updated->graph, **source, updated->dirty_nodes, options, &stats);
  ASSERT_TRUE(repaired.ok()) << repaired.status().ToString();

  // The whole point: only the affected sets were regenerated.
  EXPECT_EQ(stats.sets_repaired, expected_repaired);
  EXPECT_EQ(stats.sets_repaired + stats.sets_kept, kSetsR1 + kSetsR2);
  EXPECT_GT(stats.sets_repaired, 0u);
  EXPECT_GT(stats.sets_kept, 0u);

  // Byte-identity against a cold rebuild on the updated graph.
  Result<std::unique_ptr<SampleStore>> cold =
      SampleStore::Create(updated->graph, test_case.kind, Streams(), options);
  ASSERT_TRUE(cold.ok());
  ASSERT_TRUE((*cold)->EnsureSets(0, kSetsR1).ok());
  ASSERT_TRUE((*cold)->EnsureSets(1, kSetsR2).ok());
  ExpectStoresIdentical(**repaired, **cold);

  // The repaired store's stream cursors continue correctly: growing both
  // stores further must stay identical (and thread-count invariant).
  ASSERT_TRUE((*repaired)->EnsureSets(0, kSetsR1 + 150).ok());
  ASSERT_TRUE((*cold)->EnsureSets(0, kSetsR1 + 150).ok());
  ExpectStoresIdentical(**repaired, **cold);
}

TEST(SampleStoreRepairTest, DifferentialByteIdentity) {
  for (const GeneratorKind kind :
       {GeneratorKind::kVanillaIc, GeneratorKind::kSubsimIc,
        GeneratorKind::kLt}) {
    for (const unsigned num_threads : {1u, 8u}) {
      SCOPED_TRACE("kind=" + std::string(GeneratorKindName(kind)) +
                   " threads=" + std::to_string(num_threads));
      // LT stays delete/weight-decrease only (inserts can break the
      // per-node weight-sum invariant); IC kinds also exercise an insert.
      RunRepairCase({kind, num_threads, kind != GeneratorKind::kLt});
    }
  }
}

TEST(SampleStoreRepairTest, EncodedStoreRepairsIdenticallyToColdRebuild) {
  // Repair on a delta-varint source: kept sets round-trip through the
  // encoded arena, repaired sets re-encode, and the result must equal a
  // cold delta rebuild set for set. Also pins the inheritance rule —
  // CreateRepaired stores under the SOURCE's encoding even when the repair
  // options ask for raw, because kept sets are only byte-stable within one
  // encoding.
  const Graph base = RepairGraph(kSeed);
  SampleStore::Options delta_options;
  delta_options.encoding = RrEncoding::kDeltaVarint;

  Result<std::unique_ptr<SampleStore>> source = SampleStore::Create(
      base, GeneratorKind::kSubsimIc, Streams(), delta_options);
  ASSERT_TRUE(source.ok());
  EXPECT_EQ((*source)->encoding(), RrEncoding::kDeltaVarint);
  ASSERT_TRUE((*source)->EnsureSets(0, kSetsR1).ok());
  ASSERT_TRUE((*source)->EnsureSets(1, kSetsR2).ok());

  UpdateBatch batch = ShrinkingBatch(base);
  Result<EdgeUpdateResult> updated = ApplyEdgeUpdates(base, batch);
  ASSERT_TRUE(updated.ok());

  SampleStore::Options repair_options;
  repair_options.encoding = RrEncoding::kRaw;  // deliberately ignored
  SampleStore::RepairStats stats;
  Result<std::unique_ptr<SampleStore>> repaired = SampleStore::CreateRepaired(
      updated->graph, **source, updated->dirty_nodes, repair_options, &stats);
  ASSERT_TRUE(repaired.ok()) << repaired.status().ToString();
  EXPECT_EQ((*repaired)->encoding(), RrEncoding::kDeltaVarint);
  EXPECT_GT(stats.sets_kept, 0u);
  EXPECT_GT(stats.sets_repaired, 0u);

  Result<std::unique_ptr<SampleStore>> cold = SampleStore::Create(
      updated->graph, GeneratorKind::kSubsimIc, Streams(), delta_options);
  ASSERT_TRUE(cold.ok());
  ASSERT_TRUE((*cold)->EnsureSets(0, kSetsR1).ok());
  ASSERT_TRUE((*cold)->EnsureSets(1, kSetsR2).ok());
  ExpectStoresIdentical(**repaired, **cold);

  // Growth after repair keeps decoding/encoding consistently.
  ASSERT_TRUE((*repaired)->EnsureSets(0, kSetsR1 + 100).ok());
  ASSERT_TRUE((*cold)->EnsureSets(0, kSetsR1 + 100).ok());
  ExpectStoresIdentical(**repaired, **cold);

  // And the encoded store holds the same logical sets as a raw rebuild:
  // the delta view is the sorted raw set.
  Result<std::unique_ptr<SampleStore>> raw = SampleStore::Create(
      updated->graph, GeneratorKind::kSubsimIc, Streams(),
      SampleStore::Options());
  ASSERT_TRUE(raw.ok());
  ASSERT_TRUE((*raw)->EnsureSets(0, kSetsR1).ok());
  const SampleStore::ReadGuard delta_read = (*repaired)->Read();
  const SampleStore::ReadGuard raw_read = (*raw)->Read();
  const RrCollectionView dv = delta_read.View(0, kSetsR1);
  const RrCollectionView rv = raw_read.View(0, kSetsR1);
  for (RrId id = 0; id < dv.num_sets(); ++id) {
    std::vector<NodeId> expected = rv.View(id).ToVector();
    std::sort(expected.begin(), expected.end());
    ASSERT_EQ(dv.View(id).ToVector(), expected) << "set " << id;
  }
}

TEST(SampleStoreRepairTest, EmptyDirtyFrontierKeepsEverything) {
  const Graph base = RepairGraph(kSeed);
  Result<std::unique_ptr<SampleStore>> source = SampleStore::Create(
      base, GeneratorKind::kSubsimIc, Streams(), SampleStore::Options());
  ASSERT_TRUE(source.ok());
  ASSERT_TRUE((*source)->EnsureSets(0, 100).ok());

  SampleStore::RepairStats stats;
  Result<std::unique_ptr<SampleStore>> repaired = SampleStore::CreateRepaired(
      base, **source, {}, SampleStore::Options(), &stats);
  ASSERT_TRUE(repaired.ok());
  EXPECT_EQ(stats.sets_repaired, 0u);
  EXPECT_EQ(stats.sets_kept, 100u);
  ExpectStoresIdentical(**repaired, **source);
}

TEST(SampleStoreRepairTest, DirtyNodeOnlyInStreamOneSets) {
  // Stream 1 keeps no inverted index; its affected sets must still be
  // found and regenerated.
  const Graph base = RepairGraph(kSeed);
  Result<std::unique_ptr<SampleStore>> source = SampleStore::Create(
      base, GeneratorKind::kVanillaIc, Streams(), SampleStore::Options());
  ASSERT_TRUE(source.ok());
  ASSERT_TRUE((*source)->EnsureSets(0, 40).ok());
  ASSERT_TRUE((*source)->EnsureSets(1, kSetsR2).ok());

  // A node with an in-edge that some stream-1 set holds and no stream-0
  // set does; halving one of its in-weights dirties it alone.
  const EdgeList edges = base.ToEdgeList();
  UpdateBatch batch;
  for (NodeId v = 0; v < base.num_nodes() && batch.ops.empty(); ++v) {
    if (base.InDegree(v) == 0 ||
        CountAffectedSets(**source, {v}, {0}) != 0 ||
        CountAffectedSets(**source, {v}, {1}) == 0) {
      continue;
    }
    for (const Edge& e : edges.edges) {
      if (e.dst == v) {
        batch.ops.push_back({EdgeOpKind::kSetWeight, e.src, e.dst,
                             e.weight * 0.5});
        break;
      }
    }
  }
  ASSERT_EQ(batch.ops.size(), 1u) << "no node only in stream-1 sets";
  Result<EdgeUpdateResult> updated = ApplyEdgeUpdates(base, batch);
  ASSERT_TRUE(updated.ok());
  ASSERT_EQ(updated->dirty_nodes, std::vector<NodeId>{batch.ops[0].dst});

  SampleStore::RepairStats stats;
  Result<std::unique_ptr<SampleStore>> repaired = SampleStore::CreateRepaired(
      updated->graph, **source, updated->dirty_nodes, SampleStore::Options(),
      &stats);
  ASSERT_TRUE(repaired.ok());
  EXPECT_EQ(stats.sets_repaired,
            CountAffectedSets(**source, updated->dirty_nodes, {1}));
  EXPECT_GT(stats.sets_repaired, 0u);
  EXPECT_EQ(stats.sets_repaired + stats.sets_kept, 40u + kSetsR2);

  Result<std::unique_ptr<SampleStore>> cold = SampleStore::Create(
      updated->graph, GeneratorKind::kVanillaIc, Streams(),
      SampleStore::Options());
  ASSERT_TRUE(cold.ok());
  ASSERT_TRUE((*cold)->EnsureSets(0, 40).ok());
  ASSERT_TRUE((*cold)->EnsureSets(1, kSetsR2).ok());
  ExpectStoresIdentical(**repaired, **cold);
}

TEST(SampleStoreRepairTest, DuplicateAndOutOfRangeDirtyIds) {
  // Duplicates count once and ids past the node range are ignored. The
  // graph is unchanged, so regenerated sets replay to the source's bytes.
  const Graph base = RepairGraph(kSeed);
  Result<std::unique_ptr<SampleStore>> source = SampleStore::Create(
      base, GeneratorKind::kSubsimIc, Streams(), SampleStore::Options());
  ASSERT_TRUE(source.ok());
  ASSERT_TRUE((*source)->EnsureSets(0, kSetsR1).ok());
  ASSERT_TRUE((*source)->EnsureSets(1, kSetsR2).ok());

  const NodeId n = base.num_nodes();
  const std::vector<NodeId> dirty = {5, n, 17, 5, n + 40, 17, 17, 5};
  SampleStore::RepairStats stats;
  Result<std::unique_ptr<SampleStore>> repaired = SampleStore::CreateRepaired(
      base, **source, dirty, SampleStore::Options(), &stats);
  ASSERT_TRUE(repaired.ok());
  EXPECT_EQ(stats.sets_repaired, CountAffectedSets(**source, {5, 17}));
  EXPECT_GT(stats.sets_repaired, 0u);
  EXPECT_EQ(stats.sets_repaired + stats.sets_kept, kSetsR1 + kSetsR2);
  // Source first: the lock order CreateRepaired takes.
  ExpectStoresIdentical(**source, **repaired);
}

TEST(SampleStoreRepairTest, RejectsNodeCountMismatch) {
  const Graph base = RepairGraph(kSeed);
  Result<std::unique_ptr<SampleStore>> source = SampleStore::Create(
      base, GeneratorKind::kSubsimIc, Streams(), SampleStore::Options());
  ASSERT_TRUE(source.ok());

  Result<EdgeList> smaller = GenerateBarabasiAlbert(200, 3, false, kSeed);
  ASSERT_TRUE(smaller.ok());
  ASSERT_TRUE(
      AssignWeights(WeightModel::kWeightedCascade, {}, &smaller.value()).ok());
  Result<Graph> other = BuildGraph(std::move(smaller).value());
  ASSERT_TRUE(other.ok());

  Result<std::unique_ptr<SampleStore>> repaired = SampleStore::CreateRepaired(
      *other, **source, {}, SampleStore::Options(), nullptr);
  EXPECT_FALSE(repaired.ok());
  EXPECT_EQ(repaired.status().code(), StatusCode::kInvalidArgument);
}

TEST(SampleStoreRepairTest, RejectsGraphInvalidForKind) {
  // Push an LT in-weight sum past 1: the repair must fail cleanly (the
  // engine then drops that cache entry instead of serving garbage).
  const Graph base = RepairGraph(kSeed);
  Result<std::unique_ptr<SampleStore>> source = SampleStore::Create(
      base, GeneratorKind::kLt, Streams(), SampleStore::Options());
  ASSERT_TRUE(source.ok());
  ASSERT_TRUE((*source)->EnsureSets(0, 50).ok());

  // Target a node that already has in-edges (its WC in-sum is exactly 1)
  // with a new weight-1 edge, pushing the sum to 2.
  std::unordered_set<std::uint64_t> existing;
  for (const Edge& e : base.ToEdgeList().edges) {
    existing.insert((static_cast<std::uint64_t>(e.src) << 32) | e.dst);
  }
  const NodeId target = base.ToEdgeList().edges.front().dst;
  UpdateBatch batch;
  for (NodeId a = 0; a < base.num_nodes(); ++a) {
    const std::uint64_t key = (static_cast<std::uint64_t>(a) << 32) | target;
    if (a != target && existing.count(key) == 0) {
      batch.ops.push_back({EdgeOpKind::kInsert, a, target, 1.0});
      break;
    }
  }
  ASSERT_EQ(batch.ops.size(), 1u);
  Result<EdgeUpdateResult> updated = ApplyEdgeUpdates(base, batch);
  ASSERT_TRUE(updated.ok());

  Result<std::unique_ptr<SampleStore>> repaired = SampleStore::CreateRepaired(
      updated->graph, **source, updated->dirty_nodes, SampleStore::Options(),
      nullptr);
  EXPECT_FALSE(repaired.ok());
}

}  // namespace
}  // namespace subsim
