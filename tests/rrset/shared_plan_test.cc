// The per-graph sampling state contract: SUBSIM's node plans and LT's pick
// records are built once
// per graph, on first use, and shared by every generator, kernel, fill,
// store and solve over that graph; a moved graph keeps its state; a new
// graph gets its own. Revised-Greedy's zero-gain order follows the same
// contract.
#include <gtest/gtest.h>

#include <array>
#include <cstdint>
#include <memory>
#include <span>
#include <string>
#include <utility>
#include <vector>

#include "subsim/algo/registry.h"
#include "subsim/coverage/max_coverage.h"
#include "subsim/graph/generators.h"
#include "subsim/graph/graph_builder.h"
#include "subsim/graph/graph_update.h"
#include "subsim/graph/weight_models.h"
#include "subsim/rrset/generator_factory.h"
#include "subsim/rrset/lt_generator.h"
#include "subsim/rrset/parallel_fill.h"
#include "subsim/rrset/sample_store.h"
#include "subsim/rrset/subsim_ic_generator.h"

namespace subsim {
namespace {

/// Exponential weights, each in-row normalized to sum 1: SUBSIM takes the
/// sorted general-IC path on every skewed row, and the graph is a valid LT
/// instance whose skewed rows get alias tables.
Graph SkewedGraph(std::uint64_t seed) {
  Result<EdgeList> list = GenerateBarabasiAlbert(1500, 6, false, seed);
  EXPECT_TRUE(list.ok());
  WeightModelParams params;
  params.seed = seed;
  EXPECT_TRUE(
      AssignWeights(WeightModel::kExponential, params, &list.value()).ok());
  Result<Graph> graph = BuildGraph(std::move(list).value());
  EXPECT_TRUE(graph.ok());
  return std::move(graph).value();
}

/// Plans built by every constructor run so far, per kind.
struct PlanCounts {
  std::uint64_t subsim = SubsimExpandCore::constructions();
  std::uint64_t lt = LtEdgePicker::constructions();
};

RrCollection Fill(const Graph& graph, GeneratorKind kind, FillKernel kernel,
                  unsigned threads, std::size_t count = 600) {
  RrCollection collection(graph.num_nodes());
  RngStream rng = MakeRngStream(29, 1);
  const Status status = FillCollection({.kind = kind,
                                        .graph = &graph,
                                        .rng = &rng,
                                        .count = count,
                                        .num_threads = threads,
                                        .sentinels = {},
                                        .obs = {},
                                        .kernel = kernel},
                                       &collection);
  EXPECT_TRUE(status.ok()) << status.ToString();
  return collection;
}

void ExpectIdentical(const RrCollection& a, const RrCollection& b) {
  ASSERT_EQ(a.num_sets(), b.num_sets());
  for (RrId id = 0; id < a.num_sets(); ++id) {
    ASSERT_EQ(a.View(id).ToVector(), b.View(id).ToVector()) << "set " << id;
    ASSERT_EQ(a.HitSentinel(id), b.HitSentinel(id)) << "set " << id;
  }
}

TEST(SharedPlanTest, FillsAndGeneratorsShareOnePlanPerGraph) {
  const Graph graph = SkewedGraph(3);
  const PlanCounts before;
  Fill(graph, GeneratorKind::kSubsimIc, FillKernel::kBatched, 3);
  Fill(graph, GeneratorKind::kSubsimIc, FillKernel::kScalar, 2);
  Result<std::unique_ptr<RrGenerator>> first =
      MakeRrGenerator(GeneratorKind::kSubsimIc, graph);
  Result<std::unique_ptr<RrGenerator>> second =
      MakeRrGenerator(GeneratorKind::kSubsimIc, graph);
  ASSERT_TRUE(first.ok());
  ASSERT_TRUE(second.ok());

  const SubsimExpandCore* plan = &SubsimExpandCore::Shared(graph);
  EXPECT_EQ(&static_cast<const SubsimIcGenerator&>(**first).core(), plan);
  EXPECT_EQ(&static_cast<const SubsimIcGenerator&>(**second).core(), plan);
  EXPECT_EQ(SubsimExpandCore::constructions() - before.subsim, 1u);

  // Two LT fills and two LT generators: one picker.
  Fill(graph, GeneratorKind::kLt, FillKernel::kBatched, 3);
  Fill(graph, GeneratorKind::kLt, FillKernel::kScalar, 2);
  ASSERT_TRUE(MakeRrGenerator(GeneratorKind::kLt, graph).ok());
  ASSERT_TRUE(MakeRrGenerator(GeneratorKind::kLt, graph).ok());
  Result<const LtEdgePicker*> picker = LtEdgePicker::Shared(graph);
  ASSERT_TRUE(picker.ok());
  EXPECT_EQ(*LtEdgePicker::Shared(graph), *picker);
  EXPECT_EQ(LtEdgePicker::constructions() - before.lt, 1u);

  // A second graph gets state of its own.
  const Graph other = SkewedGraph(3);
  Fill(other, GeneratorKind::kSubsimIc, FillKernel::kBatched, 1);
  Fill(other, GeneratorKind::kLt, FillKernel::kBatched, 1);
  EXPECT_NE(&SubsimExpandCore::Shared(other), plan);
  EXPECT_NE(*LtEdgePicker::Shared(other), *picker);
  EXPECT_EQ(SubsimExpandCore::constructions() - before.subsim, 2u);
  EXPECT_EQ(LtEdgePicker::constructions() - before.lt, 2u);

  // Vanilla IC has no per-graph state, and a non-default naive fallback
  // plans privately, leaving the shared plan alone.
  Fill(graph, GeneratorKind::kVanillaIc, FillKernel::kBatched, 2);
  const SubsimIcGenerator private_plan(graph, /*naive_fallback_degree=*/0);
  EXPECT_NE(&private_plan.core(), plan);
  EXPECT_EQ(&SubsimExpandCore::Shared(graph), plan);
  EXPECT_EQ(SubsimExpandCore::constructions() - before.subsim, 3u);
  EXPECT_EQ(LtEdgePicker::constructions() - before.lt, 2u);
}

TEST(SharedPlanTest, MovedGraphKeepsItsStateAndFillsIdentically) {
  for (GeneratorKind kind : {GeneratorKind::kSubsimIc, GeneratorKind::kLt}) {
    SCOPED_TRACE(GeneratorKindName(kind));
    Graph original = SkewedGraph(5);
    const Graph unmoved = SkewedGraph(5);
    Fill(original, kind, FillKernel::kBatched, 1);  // builds the state
    const void* state_before =
        kind == GeneratorKind::kSubsimIc
            ? static_cast<const void*>(&SubsimExpandCore::Shared(original))
            : static_cast<const void*>(*LtEdgePicker::Shared(original));
    const PlanCounts before;

    Graph constructed = std::move(original);
    Graph moved;
    moved = std::move(constructed);
    const void* state_after =
        kind == GeneratorKind::kSubsimIc
            ? static_cast<const void*>(&SubsimExpandCore::Shared(moved))
            : static_cast<const void*>(*LtEdgePicker::Shared(moved));
    EXPECT_EQ(state_after, state_before);

    for (FillKernel kernel : {FillKernel::kScalar, FillKernel::kBatched}) {
      SCOPED_TRACE(FillKernelName(kernel));
      ExpectIdentical(Fill(moved, kind, kernel, 2),
                      Fill(unmoved, kind, kernel, 2));
    }
    // Only `unmoved` planned: the move carried the built state along.
    const PlanCounts after;
    EXPECT_EQ(after.subsim - before.subsim,
              kind == GeneratorKind::kSubsimIc ? 1u : 0u);
    EXPECT_EQ(after.lt - before.lt, kind == GeneratorKind::kLt ? 1u : 0u);
  }
}

TEST(SharedPlanTest, EachSolveBuildsAGraphsPlanOnceAtAnyThreadCount) {
  for (const std::string name : {"opim-c", "imm", "tim+", "ssa", "hist"}) {
    for (GeneratorKind kind : {GeneratorKind::kSubsimIc, GeneratorKind::kLt}) {
      for (unsigned threads : {1u, 4u}) {
        SCOPED_TRACE(name + " " + GeneratorKindName(kind) + " threads " +
                     std::to_string(threads));
        const Graph graph = SkewedGraph(11);
        const Result<std::unique_ptr<ImAlgorithm>> algorithm =
            MakeImAlgorithm(name);
        ASSERT_TRUE(algorithm.ok());
        ImOptions options;
        options.k = 5;
        options.epsilon = 0.3;
        options.generator = kind;
        options.num_threads = threads;
        const PlanCounts before;
        const Result<ImResult> result = (*algorithm)->Run(graph, options);
        ASSERT_TRUE(result.ok()) << result.status().ToString();
        const PlanCounts after;
        EXPECT_EQ(after.subsim - before.subsim,
                  kind == GeneratorKind::kSubsimIc ? 1u : 0u);
        EXPECT_EQ(after.lt - before.lt, kind == GeneratorKind::kLt ? 1u : 0u);
      }
    }
  }
}

TEST(SharedPlanTest, StoresBuildNoGeneratorOfTheirOwn) {
  const Graph graph = SkewedGraph(13);
  const PlanCounts before;
  std::vector<std::unique_ptr<SampleStore>> stores;
  for (std::uint64_t seed = 1; seed <= 4; ++seed) {
    Result<std::unique_ptr<SampleStore>> store = SampleStore::Create(
        graph, GeneratorKind::kSubsimIc,
        {MakeRngStream(seed, 1), MakeRngStream(seed, 2)});
    ASSERT_TRUE(store.ok());
    ASSERT_TRUE((*store)->EnsureSets(0, 300).ok());
    ASSERT_TRUE((*store)->EnsureSets(1, 200).ok());
    stores.push_back(std::move(store).value());
  }
  EXPECT_EQ(SubsimExpandCore::constructions() - before.subsim, 1u);

  // Repairing all four stores onto the successor graph plans it once.
  UpdateBatch batch;
  const EdgeList edges = graph.ToEdgeList();
  batch.ops.push_back({EdgeOpKind::kSetWeight, edges.edges[0].src,
                       edges.edges[0].dst, edges.edges[0].weight * 0.5});
  Result<EdgeUpdateResult> updated = ApplyEdgeUpdates(graph, batch);
  ASSERT_TRUE(updated.ok());
  for (const auto& store : stores) {
    ASSERT_TRUE(SampleStore::CreateRepaired(updated->graph, *store,
                                            updated->dirty_nodes, {})
                    .ok());
  }
  EXPECT_EQ(SubsimExpandCore::constructions() - before.subsim, 2u);
  EXPECT_EQ(LtEdgePicker::constructions() - before.lt, 0u);
}

TEST(SharedPlanTest, LtRejectionIsCachedWithTheGraph) {
  Result<EdgeList> list = GenerateBarabasiAlbert(200, 4, false, 17);
  ASSERT_TRUE(list.ok());
  for (Edge& e : list->edges) {
    e.weight = 0.9;  // every row with two or more in-edges sums past 1
  }
  Result<Graph> graph = BuildGraph(std::move(list).value());
  ASSERT_TRUE(graph.ok());
  const PlanCounts before;
  for (int attempt = 0; attempt < 2; ++attempt) {
    EXPECT_EQ(PrepareSamplingState(GeneratorKind::kLt, *graph).code(),
              StatusCode::kInvalidArgument);
    EXPECT_FALSE(SampleStore::Create(*graph, GeneratorKind::kLt,
                                     {MakeRngStream(1, 1),
                                      MakeRngStream(1, 2)})
                     .ok());
    RrCollection collection(graph->num_nodes());
    RngStream rng = MakeRngStream(1, 1);
    FillRequest request;
    request.kind = GeneratorKind::kLt;
    request.graph = &*graph;
    request.rng = &rng;
    request.count = 10;
    EXPECT_FALSE(FillCollection(request, &collection).ok());
  }
  EXPECT_EQ(LtEdgePicker::constructions() - before.lt, 0u);
  EXPECT_TRUE(PrepareSamplingState(GeneratorKind::kSubsimIc, *graph).ok());
  EXPECT_TRUE(PrepareSamplingState(GeneratorKind::kVanillaIc, *graph).ok());
}

TEST(SharedPlanTest, HistSolvesBuildTheZeroGainOrderOncePerGraph) {
  // k far above the nodes a first-round HIST store covers, so its
  // Revised-Greedy calls run into the zero-gain tail.
  const auto solve = [](const Graph& graph) {
    const Result<std::unique_ptr<ImAlgorithm>> hist = MakeImAlgorithm("hist");
    ASSERT_TRUE(hist.ok());
    ImOptions options;
    options.k = 400;
    options.epsilon = 0.5;
    const Result<ImResult> result = (*hist)->Run(graph, options);
    ASSERT_TRUE(result.ok()) << result.status().ToString();
  };
  const Graph graph = SkewedGraph(19);
  const std::uint64_t before = ZeroGainOrderConstructions();
  solve(graph);
  EXPECT_EQ(ZeroGainOrderConstructions() - before, 1u);
  const NodeId* order = ZeroGainOrder(graph).data();
  solve(graph);
  EXPECT_EQ(ZeroGainOrderConstructions() - before, 1u);
  EXPECT_EQ(ZeroGainOrder(graph).data(), order);

  const Graph other = SkewedGraph(19);
  solve(other);
  EXPECT_EQ(ZeroGainOrderConstructions() - before, 2u);
  EXPECT_NE(ZeroGainOrder(other).data(), order);

  // The order: every node once, out-degree descending, then id descending.
  const std::span<const NodeId> sorted = ZeroGainOrder(graph);
  ASSERT_EQ(sorted.size(), graph.num_nodes());
  std::vector<std::uint8_t> seen(graph.num_nodes(), 0);
  for (std::size_t i = 0; i < sorted.size(); ++i) {
    ASSERT_EQ(seen[sorted[i]]++, 0) << "node " << sorted[i] << " repeats";
    if (i > 0) {
      const NodeId a = sorted[i - 1];
      const NodeId b = sorted[i];
      EXPECT_TRUE(graph.OutDegree(a) > graph.OutDegree(b) ||
                  (graph.OutDegree(a) == graph.OutDegree(b) && a > b))
          << "position " << i;
    }
  }
}

}  // namespace
}  // namespace subsim
