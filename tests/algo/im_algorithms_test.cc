// Behavioural tests shared by every IM algorithm: option validation,
// determinism, sane accounting, certified-bound consistency, and seed
// quality against a Monte-Carlo oracle on mid-size graphs.

#include <gtest/gtest.h>

#include <algorithm>
#include <memory>
#include <set>
#include <string>

#include "subsim/algo/registry.h"
#include "subsim/eval/spread_estimator.h"
#include "subsim/graph/generators.h"
#include "subsim/graph/graph_builder.h"
#include "subsim/graph/weight_models.h"
#include "subsim/util/math.h"

namespace subsim {
namespace {

Graph MidSizeWcGraph() {
  Result<EdgeList> list = GenerateBarabasiAlbert(1500, 4, false, 77);
  EXPECT_TRUE(list.ok());
  EXPECT_TRUE(AssignWeights(WeightModel::kWeightedCascade, {},
                            &list.value())
                  .ok());
  Result<Graph> graph = BuildGraph(std::move(list).value());
  EXPECT_TRUE(graph.ok());
  return std::move(graph).value();
}

class ImAlgorithmTest : public ::testing::TestWithParam<std::string> {
 protected:
  static const Graph& SharedGraph() {
    static const Graph* const kGraph = new Graph(MidSizeWcGraph());
    return *kGraph;
  }
};

TEST_P(ImAlgorithmTest, RegistryProvidesAlgorithm) {
  const auto algorithm = MakeImAlgorithm(GetParam());
  ASSERT_TRUE(algorithm.ok());
  EXPECT_STREQ((*algorithm)->name(), GetParam().c_str());
}

TEST_P(ImAlgorithmTest, RejectsInvalidOptions) {
  const auto algorithm = MakeImAlgorithm(GetParam());
  ASSERT_TRUE(algorithm.ok());
  const Graph& graph = SharedGraph();

  ImOptions options;
  options.k = 0;
  EXPECT_FALSE((*algorithm)->Run(graph, options).ok());

  options.k = graph.num_nodes() + 1;
  EXPECT_FALSE((*algorithm)->Run(graph, options).ok());

  options.k = 5;
  options.epsilon = 0.0;
  EXPECT_FALSE((*algorithm)->Run(graph, options).ok());

  options.epsilon = 0.7;  // >= 1 - 1/e
  EXPECT_FALSE((*algorithm)->Run(graph, options).ok());

  // The sketch-guided greedy is gone; asking for it is an error, not a
  // silent exact run.
  options.epsilon = 0.2;
  options.approx_coverage = true;
  const Result<ImResult> approx = (*algorithm)->Run(graph, options);
  ASSERT_FALSE(approx.ok());
  EXPECT_EQ(approx.status().code(), StatusCode::kInvalidArgument);
}

TEST_P(ImAlgorithmTest, ReturnsKDistinctValidSeeds) {
  if (GetParam() == "celf-mc") {
    GTEST_SKIP() << "simulation greedy is too slow on 1500 nodes";
  }
  const auto algorithm = MakeImAlgorithm(GetParam());
  ASSERT_TRUE(algorithm.ok());
  const Graph& graph = SharedGraph();

  ImOptions options;
  options.k = 10;
  options.epsilon = 0.2;
  options.rng_seed = 5;
  const Result<ImResult> result = (*algorithm)->Run(graph, options);
  ASSERT_TRUE(result.ok()) << result.status().ToString();

  EXPECT_EQ(result->seeds.size(), 10u);
  std::set<NodeId> unique(result->seeds.begin(), result->seeds.end());
  EXPECT_EQ(unique.size(), result->seeds.size());
  for (NodeId v : result->seeds) {
    EXPECT_LT(v, graph.num_nodes());
  }
  EXPECT_GT(result->num_rr_sets, 0u);
  EXPECT_GE(result->seconds, 0.0);
}

TEST_P(ImAlgorithmTest, DeterministicAcrossRuns) {
  if (GetParam() == "celf-mc") {
    GTEST_SKIP() << "simulation greedy is too slow on 1500 nodes";
  }
  const auto algorithm = MakeImAlgorithm(GetParam());
  ASSERT_TRUE(algorithm.ok());
  const Graph& graph = SharedGraph();

  ImOptions options;
  options.k = 8;
  options.epsilon = 0.25;
  options.rng_seed = 99;
  const Result<ImResult> a = (*algorithm)->Run(graph, options);
  const Result<ImResult> b = (*algorithm)->Run(graph, options);
  ASSERT_TRUE(a.ok());
  ASSERT_TRUE(b.ok());
  EXPECT_EQ(a->seeds, b->seeds);
  EXPECT_EQ(a->num_rr_sets, b->num_rr_sets);
}

TEST_P(ImAlgorithmTest, SubsimGeneratorGivesSameGuaranteeDifferentCost) {
  if (GetParam() == "celf-mc") {
    GTEST_SKIP() << "generator does not apply to simulation greedy";
  }
  const auto algorithm = MakeImAlgorithm(GetParam());
  ASSERT_TRUE(algorithm.ok());
  const Graph& graph = SharedGraph();

  ImOptions options;
  options.k = 10;
  options.epsilon = 0.2;
  options.rng_seed = 31;
  options.generator = GeneratorKind::kSubsimIc;
  const Result<ImResult> result = (*algorithm)->Run(graph, options);
  ASSERT_TRUE(result.ok());
  EXPECT_EQ(result->seeds.size(), 10u);

  // Seed quality should match the vanilla run within MC noise.
  options.generator = GeneratorKind::kVanillaIc;
  const Result<ImResult> vanilla = (*algorithm)->Run(graph, options);
  ASSERT_TRUE(vanilla.ok());

  SpreadEstimator estimator(graph, CascadeModel::kIndependentCascade);
  Rng rng(7);
  const double spread_subsim =
      estimator.Estimate(result->seeds, 3000, rng).spread;
  const double spread_vanilla =
      estimator.Estimate(vanilla->seeds, 3000, rng).spread;
  EXPECT_GT(spread_subsim, 0.85 * spread_vanilla);
}

INSTANTIATE_TEST_SUITE_P(AllAlgorithms, ImAlgorithmTest,
                         ::testing::Values("imm", "opim-c", "ssa", "hist",
                                           "celf-mc"),
                         [](const auto& info) {
                           std::string name = info.param;
                           for (char& c : name) { if (!std::isalnum(static_cast<unsigned char>(c))) c = '_'; }
                           return name;
                         });

TEST(ImRegistryTest, UnknownNameFails) {
  EXPECT_FALSE(MakeImAlgorithm("nonsense").ok());
}

TEST(ImRegistryTest, NamesListMatchesRegistry) {
  for (const std::string& name : ImAlgorithmNames()) {
    EXPECT_TRUE(MakeImAlgorithm(name).ok()) << name;
  }
}

TEST(CertifiedBoundsTest, OpimAndHistCertifyTargetRatio) {
  const Graph graph = MidSizeWcGraph();
  for (const char* name : {"opim-c", "hist"}) {
    const auto algorithm = MakeImAlgorithm(name);
    ASSERT_TRUE(algorithm.ok());
    ImOptions options;
    options.k = 10;
    options.epsilon = 0.3;
    options.rng_seed = 3;
    const Result<ImResult> result = (*algorithm)->Run(graph, options);
    ASSERT_TRUE(result.ok()) << name;
    EXPECT_GT(result->influence_lower_bound, 0.0) << name;
    EXPECT_GT(result->optimal_upper_bound, 0.0) << name;
    EXPECT_LE(result->influence_lower_bound,
              result->optimal_upper_bound * 1.0001)
        << name;
    EXPECT_GE(result->approx_ratio, kOneMinusInvE - options.epsilon - 1e-9)
        << name << ": certified ratio should meet the target on an easy "
                   "instance";
  }
}

TEST(CertifiedBoundsTest, BoundsBracketTrueSpread) {
  const Graph graph = MidSizeWcGraph();
  const auto algorithm = MakeImAlgorithm("opim-c");
  ASSERT_TRUE(algorithm.ok());
  ImOptions options;
  options.k = 5;
  options.epsilon = 0.2;
  options.rng_seed = 17;
  const Result<ImResult> result = (*algorithm)->Run(graph, options);
  ASSERT_TRUE(result.ok());

  SpreadEstimator estimator(graph, CascadeModel::kIndependentCascade);
  Rng rng(23);
  const SpreadEstimate estimate =
      estimator.Estimate(result->seeds, 20000, rng);
  // Lower bound holds for the selected set; upper bound holds for OPT >=
  // selected spread. Allow MC noise.
  EXPECT_LE(result->influence_lower_bound,
            estimate.spread + 6.0 * estimate.std_error + 1.0);
  EXPECT_GE(result->optimal_upper_bound,
            estimate.spread - 6.0 * estimate.std_error - 1.0);
}

TEST(LtModelTest, AlgorithmsRunUnderLtGenerator) {
  const Graph graph = MidSizeWcGraph();  // WC weights are LT-feasible
  for (const char* name : {"imm", "opim-c"}) {
    const auto algorithm = MakeImAlgorithm(name);
    ASSERT_TRUE(algorithm.ok());
    ImOptions options;
    options.k = 5;
    options.epsilon = 0.25;
    options.generator = GeneratorKind::kLt;
    options.rng_seed = 11;
    const Result<ImResult> result = (*algorithm)->Run(graph, options);
    ASSERT_TRUE(result.ok()) << name << ": " << result.status().ToString();
    EXPECT_EQ(result->seeds.size(), 5u);
  }
}

}  // namespace
}  // namespace subsim
