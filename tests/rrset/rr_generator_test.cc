#include "subsim/rrset/rr_generator.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <set>

#include "subsim/graph/generators.h"
#include "subsim/graph/graph_builder.h"
#include "subsim/graph/weight_models.h"
#include "subsim/rrset/generator_factory.h"
#include "subsim/rrset/lt_generator.h"
#include "subsim/rrset/subsim_ic_generator.h"
#include "subsim/rrset/vanilla_ic_generator.h"

namespace subsim {
namespace {

Graph WeightedGraph(EdgeList list, WeightModel model,
                    WeightModelParams params = {}) {
  EXPECT_TRUE(AssignWeights(model, params, &list).ok());
  Result<Graph> graph = BuildGraph(std::move(list));
  EXPECT_TRUE(graph.ok());
  return std::move(graph).value();
}

Graph TestWcGraph() {
  Result<EdgeList> list = GenerateErdosRenyi(200, 1500, 42);
  EXPECT_TRUE(list.ok());
  return WeightedGraph(std::move(list).value(),
                       WeightModel::kWeightedCascade);
}

template <typename Generator>
void ExpectBasicInvariants(Generator& generator, const Graph& graph,
                           std::uint64_t seed) {
  Rng rng(seed);
  std::vector<NodeId> out;
  for (int i = 0; i < 200; ++i) {
    const bool hit = generator.Generate(rng, &out);
    EXPECT_FALSE(hit);  // no sentinels installed
    ASSERT_GE(out.size(), 1u);
    // Root plus unique members, all in range.
    std::set<NodeId> unique(out.begin(), out.end());
    EXPECT_EQ(unique.size(), out.size());
    for (NodeId v : out) {
      EXPECT_LT(v, graph.num_nodes());
    }
  }
  EXPECT_EQ(generator.stats().sets_generated, 200u);
  EXPECT_GE(generator.stats().nodes_added, 200u);
  EXPECT_EQ(generator.stats().sentinel_hits, 0u);
}

TEST(VanillaIcGeneratorTest, BasicInvariants) {
  const Graph graph = TestWcGraph();
  VanillaIcGenerator generator(graph);
  ExpectBasicInvariants(generator, graph, 1);
}

TEST(SubsimIcGeneratorTest, BasicInvariants) {
  const Graph graph = TestWcGraph();
  SubsimIcGenerator generator(graph);
  ExpectBasicInvariants(generator, graph, 2);
}

TEST(LtGeneratorTest, BasicInvariants) {
  const Graph graph = TestWcGraph();  // WC weights sum to exactly 1 per node
  auto generator = LtGenerator::Create(graph);
  ASSERT_TRUE(generator.ok());
  ExpectBasicInvariants(**generator, graph, 3);
}

TEST(LtGeneratorTest, RejectsOverweightedGraph) {
  GraphBuilder builder(3);
  builder.AddEdge(0, 2, 0.8);
  builder.AddEdge(1, 2, 0.8);  // sums to 1.6 > 1
  Result<Graph> graph = std::move(builder).Build();
  ASSERT_TRUE(graph.ok());
  EXPECT_FALSE(LtGenerator::Create(*graph).ok());
}

TEST(LtGeneratorTest, RrSetsArePathsToRoot) {
  // Under LT each node keeps at most one live in-edge, so a reverse
  // traversal can never branch: set size == path length.
  const Graph graph = TestWcGraph();
  auto generator = LtGenerator::Create(graph);
  ASSERT_TRUE(generator.ok());
  Rng rng(4);
  std::vector<NodeId> out;
  for (int i = 0; i < 100; ++i) {
    (*generator)->Generate(rng, &out);
    // No duplicates (checked indirectly: set of members matches size).
    std::set<NodeId> unique(out.begin(), out.end());
    EXPECT_EQ(unique.size(), out.size());
  }
}

TEST(GeneratorTest, ZeroWeightGraphYieldsSingletons) {
  EdgeList list = MakeComplete(10);  // weights default to 0
  Result<Graph> graph = BuildGraph(std::move(list));
  ASSERT_TRUE(graph.ok());
  SubsimIcGenerator subsim(*graph);
  VanillaIcGenerator vanilla(*graph);
  Rng rng(5);
  std::vector<NodeId> out;
  for (int i = 0; i < 50; ++i) {
    subsim.Generate(rng, &out);
    EXPECT_EQ(out.size(), 1u);
    vanilla.Generate(rng, &out);
    EXPECT_EQ(out.size(), 1u);
  }
}

TEST(GeneratorTest, FullWeightPathReachesEverythingUpstream) {
  // Path 0->1->2->3 with weight 1: RR set of root r is {0..r}.
  EdgeList list = MakePath(4);
  for (Edge& e : list.edges) {
    e.weight = 1.0;
  }
  Result<Graph> graph = BuildGraph(std::move(list));
  ASSERT_TRUE(graph.ok());
  SubsimIcGenerator generator(*graph);
  Rng rng(6);
  std::vector<NodeId> out;
  for (int i = 0; i < 100; ++i) {
    generator.Generate(rng, &out);
    const NodeId root = out[0];
    EXPECT_EQ(out.size(), root + 1u);
    std::set<NodeId> unique(out.begin(), out.end());
    for (NodeId v = 0; v <= root; ++v) {
      EXPECT_TRUE(unique.count(v));
    }
  }
}

TEST(SentinelTest, RootInSentinelSetStopsImmediately) {
  const Graph graph = TestWcGraph();
  SubsimIcGenerator generator(graph);
  std::vector<NodeId> sentinels;
  for (NodeId v = 0; v < graph.num_nodes(); ++v) {
    sentinels.push_back(v);  // every node is a sentinel
  }
  generator.SetSentinels(sentinels);
  Rng rng(7);
  std::vector<NodeId> out;
  for (int i = 0; i < 50; ++i) {
    EXPECT_TRUE(generator.Generate(rng, &out));
    EXPECT_EQ(out.size(), 1u);
  }
  EXPECT_EQ(generator.stats().sentinel_hits, 50u);
}

TEST(SentinelTest, HitSetsContainTheSentinel) {
  const Graph graph = TestWcGraph();
  for (GeneratorKind kind : {GeneratorKind::kVanillaIc,
                             GeneratorKind::kSubsimIc, GeneratorKind::kLt}) {
    auto generator = MakeRrGenerator(kind, graph);
    ASSERT_TRUE(generator.ok());
    const std::vector<NodeId> sentinels = {3, 77, 123};
    (*generator)->SetSentinels(sentinels);
    Rng rng(8);
    std::vector<NodeId> out;
    int hits = 0;
    for (int i = 0; i < 500; ++i) {
      const bool hit = (*generator)->Generate(rng, &out);
      const bool contains_sentinel =
          std::any_of(out.begin(), out.end(), [&](NodeId v) {
            return v == 3 || v == 77 || v == 123;
          });
      EXPECT_EQ(hit, contains_sentinel)
          << GeneratorKindName(kind) << " set " << i;
      hits += hit ? 1 : 0;
    }
    EXPECT_GT(hits, 0) << GeneratorKindName(kind);
  }
}

TEST(SentinelTest, ClearingSentinelsRestoresFullGeneration) {
  const Graph graph = TestWcGraph();
  SubsimIcGenerator generator(graph);
  generator.SetSentinels(std::vector<NodeId>{0, 1, 2});
  Rng rng(9);
  std::vector<NodeId> out;
  generator.Generate(rng, &out);
  generator.SetSentinels({});
  for (int i = 0; i < 100; ++i) {
    EXPECT_FALSE(generator.Generate(rng, &out));
  }
}

TEST(SentinelTest, SentinelsShrinkAverageSetSize) {
  // High-influence setting: sentinel truncation must visibly shrink sets.
  // Undirected attachment so the accumulated-degree hubs are reachable in
  // the reverse direction too (a directed-BA hub has huge in-degree but
  // tiny out-degree and would almost never appear in an RR set).
  Result<EdgeList> list = GenerateBarabasiAlbert(2000, 3, true, 10);
  ASSERT_TRUE(list.ok());
  WeightModelParams params;
  params.wc_variant_theta = 3.0;
  const Graph graph = WeightedGraph(std::move(list).value(),
                                    WeightModel::kWcVariant, params);

  SubsimIcGenerator generator(graph);
  Rng rng(11);
  std::vector<NodeId> out;

  auto average_size = [&](int count) {
    std::uint64_t total = 0;
    for (int i = 0; i < count; ++i) {
      generator.Generate(rng, &out);
      total += out.size();
    }
    return static_cast<double>(total) / count;
  };

  const double plain_avg = average_size(600);
  // Sentinels: the seed-clique hubs (high degree, likely hit).
  generator.SetSentinels(std::vector<NodeId>{0, 1, 2, 3});
  const double sentinel_avg = average_size(600);
  EXPECT_LT(sentinel_avg, plain_avg * 0.7)
      << "plain=" << plain_avg << " sentinel=" << sentinel_avg;
}

TEST(GeneratorStatsTest, EdgesExaminedTracksWork) {
  const Graph graph = TestWcGraph();
  VanillaIcGenerator vanilla(graph);
  // Disable the small-degree fallback: this test measures the skip
  // kernels' examination savings on a low-degree graph.
  SubsimIcGenerator subsim(graph, /*naive_fallback_degree=*/0);
  Rng rng1(12);
  Rng rng2(12);
  std::vector<NodeId> out;
  for (int i = 0; i < 500; ++i) {
    vanilla.Generate(rng1, &out);
    subsim.Generate(rng2, &out);
  }
  // SUBSIM examines only sampled landings; vanilla examines every in-edge
  // of every activated node. Under WC the gap is roughly the average
  // degree.
  EXPECT_LT(subsim.stats().edges_examined,
            vanilla.stats().edges_examined / 2);
  vanilla.ResetStats();
  EXPECT_EQ(vanilla.stats().sets_generated, 0u);
}

TEST(GeneratorFactoryTest, ParseRoundTrip) {
  for (GeneratorKind kind : {GeneratorKind::kVanillaIc,
                             GeneratorKind::kSubsimIc, GeneratorKind::kLt}) {
    const auto parsed = ParseGeneratorKind(GeneratorKindName(kind));
    ASSERT_TRUE(parsed.ok());
    EXPECT_EQ(*parsed, kind);
  }
  EXPECT_FALSE(ParseGeneratorKind("nope").ok());
}

TEST(GeneratorFactoryTest, FillAppendsToCollection) {
  const Graph graph = TestWcGraph();
  auto generator = MakeRrGenerator(GeneratorKind::kSubsimIc, graph);
  ASSERT_TRUE(generator.ok());
  RrCollection collection(graph.num_nodes());
  Rng rng(13);
  (*generator)->Fill(rng, 100, &collection);
  EXPECT_EQ(collection.num_sets(), 100u);
  (*generator)->Fill(rng, 50, &collection);
  EXPECT_EQ(collection.num_sets(), 150u);
}

}  // namespace
}  // namespace subsim
