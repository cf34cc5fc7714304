#include "subsim/rrset/parallel_fill.h"

#include <gtest/gtest.h>

#include <cmath>
#include <vector>

#include "subsim/graph/generators.h"
#include "subsim/graph/graph_builder.h"
#include "subsim/graph/weight_models.h"
#include "index_equality.h"

namespace subsim {
namespace {

Graph TestGraph() {
  Result<EdgeList> list = GenerateBarabasiAlbert(1000, 4, true, 3);
  EXPECT_TRUE(list.ok());
  EXPECT_TRUE(
      AssignWeights(WeightModel::kWeightedCascade, {}, &list.value()).ok());
  Result<Graph> graph = BuildGraph(std::move(list).value());
  EXPECT_TRUE(graph.ok());
  return std::move(graph).value();
}

void ExpectIdentical(const RrCollection& a, const RrCollection& b) {
  ASSERT_EQ(a.num_sets(), b.num_sets());
  ASSERT_EQ(a.total_nodes(), b.total_nodes());
  for (RrId id = 0; id < a.num_sets(); ++id) {
    const auto sa = a.View(id).ToVector();
    const auto sb = b.View(id).ToVector();
    ASSERT_EQ(sa.size(), sb.size()) << "set " << id;
    for (std::size_t i = 0; i < sa.size(); ++i) {
      ASSERT_EQ(sa[i], sb[i]) << "set " << id << " pos " << i;
    }
  }
}

TEST(FillCollectionTest, ProducesRequestedCount) {
  const Graph graph = TestGraph();
  RrCollection collection(graph.num_nodes());
  RngStream rng = MakeRngStream(1, 1);
  FillRequest request;
  request.kind = GeneratorKind::kSubsimIc;
  request.graph = &graph;
  request.rng = &rng;
  request.count = 1000;
  request.num_threads = 4;
  ASSERT_TRUE(FillCollection(request, &collection).ok());
  EXPECT_EQ(collection.num_sets(), 1000u);
  EXPECT_GE(collection.total_nodes(), 1000u);
  EXPECT_EQ(rng.next_index, 1000u);
}

TEST(FillCollectionTest, DeterministicPerSeed) {
  const Graph graph = TestGraph();
  auto run = [&](std::uint64_t seed) {
    RrCollection collection(graph.num_nodes());
    RngStream rng = MakeRngStream(seed, 1);
    FillRequest request;
    request.kind = GeneratorKind::kVanillaIc;
    request.graph = &graph;
    request.rng = &rng;
    request.count = 500;
    request.num_threads = 3;
    EXPECT_TRUE(FillCollection(request, &collection).ok());
    return collection;
  };
  ExpectIdentical(run(7), run(7));
}

TEST(FillCollectionTest, SplitFillsMatchOneFill) {
  // The cursor makes a fill's output depend only on (base_seed, next_index,
  // count): 300 + 700 sets must equal one 1000-set fill byte for byte.
  const Graph graph = TestGraph();
  RrCollection split(graph.num_nodes());
  {
    RngStream rng = MakeRngStream(9, 2);
    FillRequest request;
    request.kind = GeneratorKind::kSubsimIc;
    request.graph = &graph;
    request.rng = &rng;
    request.count = 300;
    ASSERT_TRUE(FillCollection(request, &split).ok());
    EXPECT_EQ(rng.next_index, 300u);
    request.count = 700;
    request.num_threads = 4;
    ASSERT_TRUE(FillCollection(request, &split).ok());
    EXPECT_EQ(rng.next_index, 1000u);
  }
  RrCollection whole(graph.num_nodes());
  {
    RngStream rng = MakeRngStream(9, 2);
    FillRequest request;
    request.kind = GeneratorKind::kSubsimIc;
    request.graph = &graph;
    request.rng = &rng;
    request.count = 1000;
    ASSERT_TRUE(FillCollection(request, &whole).ok());
  }
  ExpectIdentical(split, whole);
  // Two index merges must build the same rows as one.
  ExpectSameIndex(split, whole);
}

TEST(FillCollectionTest, StreamSurvivesCollectionReset) {
  // A fresh collection with the same live cursor draws *new* samples —
  // the HIST sentinel phase depends on this.
  const Graph graph = TestGraph();
  RngStream rng = MakeRngStream(21, 1);
  RrCollection first(graph.num_nodes());
  FillRequest request;
  request.kind = GeneratorKind::kSubsimIc;
  request.graph = &graph;
  request.rng = &rng;
  request.count = 200;
  ASSERT_TRUE(FillCollection(request, &first).ok());
  RrCollection second(graph.num_nodes());
  ASSERT_TRUE(FillCollection(request, &second).ok());
  EXPECT_EQ(rng.next_index, 400u);

  ASSERT_EQ(first.num_sets(), second.num_sets());
  bool all_equal = true;
  for (RrId id = 0; id < first.num_sets(); ++id) {
    const auto sa = first.View(id).ToVector();
    const auto sb = second.View(id).ToVector();
    if (sa.size() != sb.size() ||
        !std::equal(sa.begin(), sa.end(), sb.begin())) {
      all_equal = false;
      break;
    }
  }
  EXPECT_FALSE(all_equal);
}

TEST(FillCollectionTest, DistributionMatchesSerialFill) {
  // Different RNG stream layout than serial Fill, but the same
  // distribution: compare average set sizes.
  const Graph graph = TestGraph();
  const std::size_t count = 20000;

  RrCollection parallel(graph.num_nodes());
  {
    RngStream rng = MakeRngStream(11, 1);
    FillRequest request;
    request.kind = GeneratorKind::kSubsimIc;
    request.graph = &graph;
    request.rng = &rng;
    request.count = count;
    request.num_threads = 8;
    ASSERT_TRUE(FillCollection(request, &parallel).ok());
  }
  RrCollection serial(graph.num_nodes());
  {
    Rng rng(12);
    auto generator = MakeRrGenerator(GeneratorKind::kSubsimIc, graph);
    ASSERT_TRUE(generator.ok());
    (*generator)->Fill(rng, count, &serial);
  }
  const double diff =
      std::abs(parallel.average_size() - serial.average_size());
  EXPECT_LT(diff, 0.15 * serial.average_size() + 0.5)
      << parallel.average_size() << " vs " << serial.average_size();
}

TEST(FillCollectionTest, SentinelsApplyInEveryWorker) {
  const Graph graph = TestGraph();
  RrCollection collection(graph.num_nodes());
  RngStream rng = MakeRngStream(13, 1);
  std::vector<NodeId> sentinels;
  for (NodeId v = 0; v < graph.num_nodes(); ++v) {
    sentinels.push_back(v);  // everything is a sentinel
  }
  FillRequest request;
  request.kind = GeneratorKind::kSubsimIc;
  request.graph = &graph;
  request.rng = &rng;
  request.count = 200;
  request.num_threads = 4;
  request.sentinels = sentinels;
  ASSERT_TRUE(FillCollection(request, &collection).ok());
  EXPECT_EQ(collection.num_hit_sentinel(), 200u);
  for (RrId id = 0; id < collection.num_sets(); ++id) {
    EXPECT_EQ(collection.View(id).size(), 1u);  // root-only sets
  }
}

TEST(FillCollectionTest, ZeroCountIsNoop) {
  const Graph graph = TestGraph();
  RrCollection collection(graph.num_nodes());
  RngStream rng = MakeRngStream(14, 1);
  FillRequest request;
  request.kind = GeneratorKind::kSubsimIc;
  request.graph = &graph;
  request.rng = &rng;
  request.count = 0;
  ASSERT_TRUE(FillCollection(request, &collection).ok());
  EXPECT_EQ(collection.num_sets(), 0u);
  EXPECT_EQ(rng.next_index, 0u);
}

TEST(FillCollectionTest, RejectsFillPastRrIdRange) {
  // 2^32 sets would wrap the 32-bit RrId; the fill is refused before any
  // generation or allocation, leaving the collection and cursor untouched.
  const Graph graph = TestGraph();
  RrCollection collection(graph.num_nodes());
  RngStream rng = MakeRngStream(17, 1);
  FillRequest request;
  request.kind = GeneratorKind::kVanillaIc;
  request.graph = &graph;
  request.rng = &rng;
  request.count = std::size_t{1} << 32;
  Status status = FillCollection(request, &collection);
  EXPECT_EQ(status.code(), StatusCode::kOutOfRange) << status.ToString();
  EXPECT_EQ(collection.num_sets(), 0u);
  EXPECT_EQ(rng.next_index, 0u);

  // The limit counts the sets already held.
  request.count = 10;
  ASSERT_TRUE(FillCollection(request, &collection).ok());
  request.count = kMaxRrSets - 9;
  status = FillCollection(request, &collection);
  EXPECT_EQ(status.code(), StatusCode::kOutOfRange) << status.ToString();
  EXPECT_EQ(collection.num_sets(), 10u);
  EXPECT_EQ(rng.next_index, 10u);
}

TEST(FillCollectionTest, PropagatesGeneratorConstructionFailure) {
  // LT requires in-weight sums <= 1; violate it.
  GraphBuilder builder(3);
  builder.AddEdge(0, 2, 0.9);
  builder.AddEdge(1, 2, 0.9);
  Result<Graph> graph = std::move(builder).Build();
  ASSERT_TRUE(graph.ok());
  RrCollection collection(graph->num_nodes());
  RngStream rng = MakeRngStream(15, 1);
  FillRequest request;
  request.kind = GeneratorKind::kLt;
  request.graph = &*graph;
  request.rng = &rng;
  request.count = 10;
  const Status status = FillCollection(request, &collection);
  EXPECT_FALSE(status.ok());
  EXPECT_EQ(collection.num_sets(), 0u);
  EXPECT_EQ(rng.next_index, 0u);  // failed fills consume no indices
}

TEST(FillCollectionTest, MoreThreadsThanSetsStillWorks) {
  const Graph graph = TestGraph();
  RrCollection collection(graph.num_nodes());
  RngStream rng = MakeRngStream(16, 1);
  FillRequest request;
  request.kind = GeneratorKind::kVanillaIc;
  request.graph = &graph;
  request.rng = &rng;
  request.count = 5;
  request.num_threads = 64;
  ASSERT_TRUE(FillCollection(request, &collection).ok());
  EXPECT_EQ(collection.num_sets(), 5u);
}

}  // namespace
}  // namespace subsim
