#include "subsim/graph/weight_models.h"

#include <gtest/gtest.h>

#include <map>
#include <vector>

#include "subsim/graph/generators.h"
#include "subsim/graph/graph_builder.h"

namespace subsim {
namespace {

EdgeList SmallTestGraph() {
  // 5 nodes; node 3 has in-degree 3, node 4 in-degree 1, node 1 in-degree 1.
  EdgeList list;
  list.num_nodes = 5;
  list.edges = {{0, 3, 0}, {1, 3, 0}, {2, 3, 0}, {3, 4, 0}, {0, 1, 0}};
  return list;
}

TEST(WeightModelsTest, WeightedCascadeIsInverseInDegree) {
  EdgeList list = SmallTestGraph();
  ASSERT_TRUE(AssignWeights(WeightModel::kWeightedCascade, {}, &list).ok());
  for (const Edge& e : list.edges) {
    if (e.dst == 3) {
      EXPECT_DOUBLE_EQ(e.weight, 1.0 / 3.0);
    } else {
      EXPECT_DOUBLE_EQ(e.weight, 1.0);
    }
  }
}

TEST(WeightModelsTest, LinearThresholdMatchesWeightedCascade) {
  EdgeList wc = SmallTestGraph();
  EdgeList lt = SmallTestGraph();
  ASSERT_TRUE(AssignWeights(WeightModel::kWeightedCascade, {}, &wc).ok());
  ASSERT_TRUE(AssignWeights(WeightModel::kLinearThreshold, {}, &lt).ok());
  for (std::size_t i = 0; i < wc.edges.size(); ++i) {
    EXPECT_DOUBLE_EQ(wc.edges[i].weight, lt.edges[i].weight);
  }
}

TEST(WeightModelsTest, UniformSetsConstantP) {
  EdgeList list = SmallTestGraph();
  WeightModelParams params;
  params.uniform_p = 0.05;
  ASSERT_TRUE(AssignWeights(WeightModel::kUniformIc, params, &list).ok());
  for (const Edge& e : list.edges) {
    EXPECT_DOUBLE_EQ(e.weight, 0.05);
  }
}

TEST(WeightModelsTest, UniformRejectsOutOfRangeP) {
  EdgeList list = SmallTestGraph();
  WeightModelParams params;
  params.uniform_p = 1.5;
  EXPECT_FALSE(AssignWeights(WeightModel::kUniformIc, params, &list).ok());
  params.uniform_p = -0.1;
  EXPECT_FALSE(AssignWeights(WeightModel::kUniformIc, params, &list).ok());
}

TEST(WeightModelsTest, WcVariantScalesAndClamps) {
  EdgeList list = SmallTestGraph();
  WeightModelParams params;
  params.wc_variant_theta = 2.0;
  ASSERT_TRUE(AssignWeights(WeightModel::kWcVariant, params, &list).ok());
  for (const Edge& e : list.edges) {
    if (e.dst == 3) {
      EXPECT_DOUBLE_EQ(e.weight, 2.0 / 3.0);
    } else {
      EXPECT_DOUBLE_EQ(e.weight, 1.0);  // clamped at 1
    }
  }
}

TEST(WeightModelsTest, WcVariantThetaOneIsWeightedCascade) {
  EdgeList variant = SmallTestGraph();
  EdgeList wc = SmallTestGraph();
  WeightModelParams params;
  params.wc_variant_theta = 1.0;
  ASSERT_TRUE(AssignWeights(WeightModel::kWcVariant, params, &variant).ok());
  ASSERT_TRUE(AssignWeights(WeightModel::kWeightedCascade, {}, &wc).ok());
  for (std::size_t i = 0; i < wc.edges.size(); ++i) {
    EXPECT_DOUBLE_EQ(variant.edges[i].weight, wc.edges[i].weight);
  }
}

void ExpectPerNodeInSumsEqualOne(const EdgeList& list) {
  std::map<NodeId, double> sums;
  for (const Edge& e : list.edges) {
    sums[e.dst] += e.weight;
  }
  for (const auto& [node, sum] : sums) {
    EXPECT_NEAR(sum, 1.0, 1e-9) << "node " << node;
  }
}

TEST(WeightModelsTest, ExponentialNormalizesPerNode) {
  EdgeList list = SmallTestGraph();
  WeightModelParams params;
  params.seed = 11;
  ASSERT_TRUE(AssignWeights(WeightModel::kExponential, params, &list).ok());
  ExpectPerNodeInSumsEqualOne(list);
  for (const Edge& e : list.edges) {
    EXPECT_GE(e.weight, 0.0);
    EXPECT_LE(e.weight, 1.0);
  }
}

TEST(WeightModelsTest, WeibullNormalizesPerNode) {
  EdgeList list = SmallTestGraph();
  WeightModelParams params;
  params.seed = 13;
  ASSERT_TRUE(AssignWeights(WeightModel::kWeibull, params, &list).ok());
  ExpectPerNodeInSumsEqualOne(list);
}

TEST(WeightModelsTest, SkewedModelsAreSkewed) {
  // On a larger graph, exponential weights into the same node should not be
  // all equal (that is the whole point of the skewed settings).
  Result<EdgeList> generated = GenerateErdosRenyi(200, 2000, 3);
  ASSERT_TRUE(generated.ok());
  EdgeList list = std::move(generated).value();
  WeightModelParams params;
  params.seed = 17;
  ASSERT_TRUE(AssignWeights(WeightModel::kExponential, params, &list).ok());
  Result<Graph> graph = BuildGraph(std::move(list));
  ASSERT_TRUE(graph.ok());
  int nonuniform = 0;
  for (NodeId v = 0; v < graph->num_nodes(); ++v) {
    if (graph->InDegree(v) >= 2 && !graph->InMeta(v).uniform()) {
      ++nonuniform;
    }
  }
  EXPECT_GT(nonuniform, 0);
}

TEST(WeightModelsTest, TrivalencyUsesThreeLevels) {
  Result<EdgeList> generated = GenerateErdosRenyi(100, 1000, 5);
  ASSERT_TRUE(generated.ok());
  EdgeList list = std::move(generated).value();
  WeightModelParams params;
  params.seed = 19;
  ASSERT_TRUE(AssignWeights(WeightModel::kTrivalency, params, &list).ok());
  std::map<double, int> histogram;
  for (const Edge& e : list.edges) {
    ++histogram[e.weight];
  }
  ASSERT_EQ(histogram.size(), 3u);
  EXPECT_TRUE(histogram.count(0.1));
  EXPECT_TRUE(histogram.count(0.01));
  EXPECT_TRUE(histogram.count(0.001));
}

TEST(WeightModelsTest, DeterministicGivenSeed) {
  EdgeList a = SmallTestGraph();
  EdgeList b = SmallTestGraph();
  WeightModelParams params;
  params.seed = 23;
  ASSERT_TRUE(AssignWeights(WeightModel::kWeibull, params, &a).ok());
  ASSERT_TRUE(AssignWeights(WeightModel::kWeibull, params, &b).ok());
  for (std::size_t i = 0; i < a.edges.size(); ++i) {
    EXPECT_DOUBLE_EQ(a.edges[i].weight, b.edges[i].weight);
  }
}

TEST(WeightModelsTest, ParseAndNameRoundTrip) {
  for (WeightModel model :
       {WeightModel::kWeightedCascade, WeightModel::kUniformIc,
        WeightModel::kWcVariant, WeightModel::kExponential,
        WeightModel::kWeibull, WeightModel::kTrivalency,
        WeightModel::kLinearThreshold}) {
    const Result<WeightModel> parsed = ParseWeightModel(WeightModelName(model));
    ASSERT_TRUE(parsed.ok());
    EXPECT_EQ(*parsed, model);
  }
  EXPECT_FALSE(ParseWeightModel("bogus").ok());
}

}  // namespace
}  // namespace subsim
