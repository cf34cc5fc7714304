// End-to-end guarantees: on tiny graphs where the optimum is computable
// exactly, every algorithm's seed set must achieve the certified
// (1 - 1/e - eps) fraction of OPT; across the full pipeline (generate ->
// weight -> IM -> evaluate) results must be consistent.

#include <gtest/gtest.h>

#include <memory>
#include <string>

#include "subsim/algo/registry.h"
#include "subsim/eval/exact_spread.h"
#include "subsim/eval/spread_estimator.h"
#include "subsim/graph/generators.h"
#include "subsim/graph/graph_builder.h"
#include "subsim/graph/graph_io.h"
#include "subsim/graph/weight_models.h"
#include "subsim/util/math.h"

namespace subsim {
namespace {

/// A 9-node, 12-edge graph, small enough for exact OPT via enumeration yet
/// with real structure (two hubs, a chain, an isolated pocket).
Graph TinyBenchmarkGraph() {
  EdgeList list;
  list.num_nodes = 9;
  list.edges = {{0, 1, 0.8}, {0, 2, 0.8}, {0, 3, 0.4}, {4, 3, 0.6},
                {4, 5, 0.7}, {4, 6, 0.3}, {1, 7, 0.5}, {5, 7, 0.2},
                {7, 8, 0.9}, {2, 8, 0.1}, {3, 6, 0.5}, {8, 6, 0.2}};
  Result<Graph> graph = BuildGraph(std::move(list));
  EXPECT_TRUE(graph.ok());
  return std::move(graph).value();
}

class ApproximationGuaranteeTest
    : public ::testing::TestWithParam<std::string> {};

TEST_P(ApproximationGuaranteeTest, SeedsAchieveCertifiedFractionOfOpt) {
  const Graph graph = TinyBenchmarkGraph();
  const std::uint32_t k = 2;
  const double eps = 0.2;

  const Result<ExactOptimum> optimum = ExactOptimalSeedSetIc(graph, k);
  ASSERT_TRUE(optimum.ok());
  ASSERT_GT(optimum->spread, 0.0);

  const auto algorithm = MakeImAlgorithm(GetParam());
  ASSERT_TRUE(algorithm.ok());
  ImOptions options;
  options.k = k;
  options.epsilon = eps;
  options.delta = 0.01;

  // The guarantee is probabilistic (1 - delta); verify across seeds and
  // require every run to clear the bound (failure probability per run is
  // far below 1% on this instance since the sample sizes are conservative).
  for (std::uint64_t seed : {1ull, 2ull, 3ull, 4ull, 5ull}) {
    options.rng_seed = seed;
    const Result<ImResult> result = (*algorithm)->Run(graph, options);
    ASSERT_TRUE(result.ok()) << result.status().ToString();
    const Result<double> spread = ExactSpreadIc(graph, result->seeds);
    ASSERT_TRUE(spread.ok());
    EXPECT_GE(*spread, (kOneMinusInvE - eps) * optimum->spread - 1e-9)
        << GetParam() << " seed " << seed << ": spread " << *spread
        << " vs OPT " << optimum->spread;
  }
}

INSTANTIATE_TEST_SUITE_P(AllAlgorithms, ApproximationGuaranteeTest,
                         ::testing::Values("imm", "opim-c", "ssa", "hist",
                                           "celf-mc"),
                         [](const auto& info) {
                           std::string name = info.param;
                           for (char& c : name) {
                             if (!std::isalnum(static_cast<unsigned char>(c))) c = '_';
                           }
                           return name;
                         });

TEST(EndToEndTest, FileToSeedsPipeline) {
  // Write an edge list, read it back, weight it, select seeds, evaluate.
  const std::string path = testing::TempDir() + "/pipeline.txt";
  {
    Result<EdgeList> list = GenerateBarabasiAlbert(400, 3, false, 13);
    ASSERT_TRUE(list.ok());
    ASSERT_TRUE(WriteEdgeListText(*list, path).ok());
  }
  Result<EdgeList> loaded = ReadEdgeListText(path);
  ASSERT_TRUE(loaded.ok());
  ASSERT_TRUE(
      AssignWeights(WeightModel::kWeightedCascade, {}, &loaded.value()).ok());
  Result<Graph> graph = BuildGraph(std::move(loaded).value());
  ASSERT_TRUE(graph.ok());

  const auto algorithm = MakeImAlgorithm("opim-c");
  ASSERT_TRUE(algorithm.ok());
  ImOptions options;
  options.k = 5;
  options.epsilon = 0.25;
  options.rng_seed = 21;
  const Result<ImResult> result = (*algorithm)->Run(*graph, options);
  ASSERT_TRUE(result.ok());

  SpreadEstimator estimator(*graph, CascadeModel::kIndependentCascade);
  Rng rng(22);
  const double spread = estimator.Estimate(result->seeds, 5000, rng).spread;
  EXPECT_GE(spread, 5.0);  // at least the seeds themselves
  // Estimated spread from RR coverage should agree with forward MC.
  EXPECT_NEAR(result->estimated_spread, spread,
              0.25 * spread + 5.0);
}

TEST(EndToEndTest, GreedyBeatsRandomSeeds) {
  Result<EdgeList> list = GenerateBarabasiAlbert(800, 4, false, 31);
  ASSERT_TRUE(list.ok());
  ASSERT_TRUE(
      AssignWeights(WeightModel::kWeightedCascade, {}, &list.value()).ok());
  Result<Graph> graph = BuildGraph(std::move(list).value());
  ASSERT_TRUE(graph.ok());

  const auto algorithm = MakeImAlgorithm("opim-c");
  ASSERT_TRUE(algorithm.ok());
  ImOptions options;
  options.k = 10;
  options.epsilon = 0.2;
  options.rng_seed = 41;
  const Result<ImResult> result = (*algorithm)->Run(*graph, options);
  ASSERT_TRUE(result.ok());

  std::vector<NodeId> random_seeds;
  Rng pick(77);
  while (random_seeds.size() < 10) {
    const NodeId v = static_cast<NodeId>(pick.UniformInt(graph->num_nodes()));
    if (std::find(random_seeds.begin(), random_seeds.end(), v) ==
        random_seeds.end()) {
      random_seeds.push_back(v);
    }
  }

  SpreadEstimator estimator(*graph, CascadeModel::kIndependentCascade);
  Rng rng(51);
  const double greedy_spread =
      estimator.Estimate(result->seeds, 5000, rng).spread;
  const double random_spread =
      estimator.Estimate(random_seeds, 5000, rng).spread;
  EXPECT_GT(greedy_spread, 1.3 * random_spread);
}

TEST(EndToEndTest, AllAlgorithmsAgreeOnEasyInstance) {
  // On a star-dominated graph every algorithm must find the dominant hub.
  EdgeList list = MakeStar(50);
  for (Edge& e : list.edges) {
    e.weight = 0.9;
  }
  Result<Graph> graph = BuildGraph(std::move(list));
  ASSERT_TRUE(graph.ok());

  for (const char* name : {"imm", "opim-c", "ssa", "hist"}) {
    const auto algorithm = MakeImAlgorithm(name);
    ASSERT_TRUE(algorithm.ok());
    ImOptions options;
    options.k = 1;
    options.epsilon = 0.3;
    options.rng_seed = 61;
    const Result<ImResult> result = (*algorithm)->Run(*graph, options);
    ASSERT_TRUE(result.ok()) << name;
    ASSERT_EQ(result->seeds.size(), 1u) << name;
    EXPECT_EQ(result->seeds[0], 0u) << name << " missed the hub";
  }
}

}  // namespace
}  // namespace subsim
