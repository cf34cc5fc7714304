#include "subsim/graph/graph_builder.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cstdint>
#include <span>
#include <string>
#include <tuple>
#include <utility>
#include <vector>

#include "subsim/graph/generators.h"
#include "subsim/graph/weight_models.h"

namespace subsim {
namespace {

TEST(GraphBuilderTest, EmptyGraph) {
  GraphBuilder builder(0);
  Result<Graph> graph = std::move(builder).Build();
  ASSERT_TRUE(graph.ok());
  EXPECT_EQ(graph->num_nodes(), 0u);
  EXPECT_EQ(graph->num_edges(), 0u);
  EXPECT_DOUBLE_EQ(graph->average_degree(), 0.0);
}

TEST(GraphBuilderTest, NodesWithoutEdges) {
  GraphBuilder builder(5);
  Result<Graph> graph = std::move(builder).Build();
  ASSERT_TRUE(graph.ok());
  EXPECT_EQ(graph->num_nodes(), 5u);
  for (NodeId v = 0; v < 5; ++v) {
    EXPECT_EQ(graph->OutDegree(v), 0u);
    EXPECT_EQ(graph->InDegree(v), 0u);
    EXPECT_DOUBLE_EQ(graph->InWeightSum(v), 0.0);
  }
}

TEST(GraphBuilderTest, AdjacencyIsConsistentBothDirections) {
  GraphBuilder builder(4);
  builder.AddEdge(0, 1, 0.5);
  builder.AddEdge(0, 2, 0.25);
  builder.AddEdge(1, 2, 1.0);
  builder.AddEdge(3, 0, 0.1);
  Result<Graph> graph = std::move(builder).Build();
  ASSERT_TRUE(graph.ok());

  EXPECT_EQ(graph->num_edges(), 4u);
  EXPECT_EQ(graph->OutDegree(0), 2u);
  EXPECT_EQ(graph->InDegree(2), 2u);
  EXPECT_EQ(graph->InDegree(0), 1u);

  // Out view of node 0.
  const auto out0 = graph->OutNeighbors(0);
  const auto w0 = graph->OutWeights(0);
  ASSERT_EQ(out0.size(), 2u);
  EXPECT_EQ(out0[0], 1u);
  EXPECT_DOUBLE_EQ(w0[0], 0.5);
  EXPECT_EQ(out0[1], 2u);
  EXPECT_DOUBLE_EQ(w0[1], 0.25);

  // In view of node 2: sources {0, 1} with weights {0.25, 1.0}.
  const auto in2 = graph->InNeighbors(2);
  const auto iw2 = graph->InWeights(2);
  ASSERT_EQ(in2.size(), 2u);
  double sum = 0.0;
  for (std::size_t i = 0; i < in2.size(); ++i) {
    if (in2[i] == 0) {
      EXPECT_DOUBLE_EQ(iw2[i], 0.25);
    } else {
      EXPECT_EQ(in2[i], 1u);
      EXPECT_DOUBLE_EQ(iw2[i], 1.0);
    }
    sum += iw2[i];
  }
  EXPECT_DOUBLE_EQ(graph->InWeightSum(2), sum);
}

TEST(GraphBuilderTest, RejectsOutOfRangeEndpoint) {
  GraphBuilder builder(3);
  builder.AddEdge(0, 3, 0.5);  // 3 is out of range
  const Result<Graph> graph = std::move(builder).Build();
  EXPECT_FALSE(graph.ok());
  EXPECT_EQ(graph.status().code(), StatusCode::kInvalidArgument);
}

TEST(GraphBuilderTest, RejectsWeightAboveOne) {
  GraphBuilder builder(2);
  builder.AddEdge(0, 1, 1.5);
  EXPECT_FALSE(std::move(builder).Build().ok());
}

TEST(GraphBuilderTest, RejectsNegativeWeight) {
  GraphBuilder builder(2);
  builder.AddEdge(0, 1, -0.1);
  EXPECT_FALSE(std::move(builder).Build().ok());
}

TEST(GraphBuilderTest, RejectsNonFiniteWeight) {
  GraphBuilder builder(2);
  builder.AddEdge(0, 1, std::numeric_limits<double>::quiet_NaN());
  EXPECT_FALSE(std::move(builder).Build().ok());
}

TEST(GraphBuilderTest, SelfLoopsRemovedByDefault) {
  GraphBuilder builder(2);
  builder.AddEdge(0, 0, 0.5);
  builder.AddEdge(0, 1, 0.5);
  Result<Graph> graph = std::move(builder).Build();
  ASSERT_TRUE(graph.ok());
  EXPECT_EQ(graph->num_edges(), 1u);
}

TEST(GraphBuilderTest, SortInEdgesByWeightDescending) {
  // The default build orders a skewed row by weight, descending.
  GraphBuilder builder(4);
  builder.AddEdge(0, 3, 0.2);
  builder.AddEdge(1, 3, 0.9);
  builder.AddEdge(2, 3, 0.5);
  Result<Graph> graph = std::move(builder).Build();
  ASSERT_TRUE(graph.ok());
  const auto weights = graph->InWeights(3);
  ASSERT_EQ(weights.size(), 3u);
  EXPECT_DOUBLE_EQ(weights[0], 0.9);
  EXPECT_DOUBLE_EQ(weights[1], 0.5);
  EXPECT_DOUBLE_EQ(weights[2], 0.2);
  const auto sources = graph->InNeighbors(3);
  EXPECT_EQ(sources[0], 1u);
  EXPECT_EQ(sources[1], 2u);
  EXPECT_EQ(sources[2], 0u);
}

TEST(GraphBuilderTest, UniformInWeightsDetection) {
  GraphBuilder builder(4);
  builder.AddEdge(0, 2, 0.5);
  builder.AddEdge(1, 2, 0.5);
  builder.AddEdge(0, 3, 0.5);
  builder.AddEdge(1, 3, 0.25);
  Result<Graph> graph = std::move(builder).Build();
  ASSERT_TRUE(graph.ok());
  EXPECT_TRUE(graph->InMeta(2).uniform());
  EXPECT_FALSE(graph->InMeta(3).uniform());
  EXPECT_TRUE(graph->InMeta(0).uniform());  // no in-edges: trivially true
}

std::uint64_t Bits(double x) { return std::bit_cast<std::uint64_t>(x); }

// Every weight model on a BA graph: the edge list survives a round trip
// bit for bit, and each in-row (sources, weights read through `InMeta` or
// `InWeights`, weight sum) matches a reference CSR built straight from the
// edge list: a skewed row in (weight desc, source asc) order, a uniform
// row in insertion order.
TEST(GraphBuilderTest, ToEdgeListRoundTrips) {
  const WeightModel kModels[] = {
      WeightModel::kWeightedCascade, WeightModel::kUniformIc,
      WeightModel::kWcVariant,       WeightModel::kExponential,
      WeightModel::kWeibull,         WeightModel::kTrivalency,
      WeightModel::kLinearThreshold,
  };
  for (const WeightModel model : kModels) {
    SCOPED_TRACE(WeightModelName(model));
    Result<EdgeList> generated = GenerateBarabasiAlbert(300, 3, true, 5);
    ASSERT_TRUE(generated.ok());
    EdgeList original = std::move(generated).value();
    WeightModelParams params;
    params.wc_variant_theta = 2.0;  // clamps some rows at 1
    params.seed = 23;
    ASSERT_TRUE(AssignWeights(model, params, &original).ok());
    Result<Graph> graph = BuildGraph(original);
    ASSERT_TRUE(graph.ok());

    // ToEdgeList returns the input multiset, weights bit for bit.
    const auto key = [](const Edge& e) {
      return std::tuple(e.src, e.dst, Bits(e.weight));
    };
    const auto by_key = [&](const Edge& a, const Edge& b) {
      return key(a) < key(b);
    };
    EdgeList round = graph->ToEdgeList();
    EXPECT_EQ(round.num_nodes, original.num_nodes);
    std::vector<Edge> expected = original.edges;
    std::sort(expected.begin(), expected.end(), by_key);
    std::sort(round.edges.begin(), round.edges.end(), by_key);
    ASSERT_EQ(round.edges.size(), expected.size());
    for (std::size_t i = 0; i < expected.size(); ++i) {
      EXPECT_EQ(key(round.edges[i]), key(expected[i]));
    }

    // Reference CSR: in-edges in edge-list order, then (weight desc,
    // source asc) on skewed rows.
    std::vector<std::vector<std::pair<double, NodeId>>> rows(
        original.num_nodes);
    for (const Edge& e : original.edges) {
      rows[e.dst].emplace_back(e.weight, e.src);
    }
    for (NodeId v = 0; v < original.num_nodes; ++v) {
      auto& row = rows[v];
      const bool uniform = std::all_of(
          row.begin(), row.end(),
          [&](const auto& p) { return p.first == row.front().first; });
      if (!uniform) {
        std::sort(row.begin(), row.end(), [](const auto& a, const auto& b) {
          if (a.first != b.first) return a.first > b.first;
          return a.second < b.second;
        });
      }
      ASSERT_EQ(graph->InDegree(v), row.size());
      const auto sources = graph->InNeighbors(v);
      ASSERT_EQ(sources.size(), row.size());
      const InRowMeta& meta = graph->InMeta(v);
      ASSERT_EQ(meta.uniform(), uniform) << "node " << v;
      const auto weights =
          uniform ? std::span<const double>{} : graph->InWeights(v);
      double sum = 0.0;
      for (std::size_t i = 0; i < row.size(); ++i) {
        EXPECT_EQ(sources[i], row[i].second) << "node " << v;
        const double w = uniform ? meta.uniform_weight : weights[i];
        EXPECT_EQ(Bits(w), Bits(row[i].first)) << "node " << v;
        sum += row[i].first;
      }
      EXPECT_EQ(Bits(graph->InWeightSum(v)), Bits(sum)) << "node " << v;
    }
  }
}

TEST(GraphBuilderTest, BuildGraphFromGeneratedShapes) {
  for (EdgeList list : {MakePath(6), MakeCycle(5), MakeStar(7),
                        MakeComplete(4), MakeBipartite(3, 4)}) {
    for (Edge& e : list.edges) {
      e.weight = 0.5;
    }
    const NodeId n = list.num_nodes;
    const std::size_t m = list.edges.size();
    Result<Graph> graph = BuildGraph(std::move(list));
    ASSERT_TRUE(graph.ok());
    EXPECT_EQ(graph->num_nodes(), n);
    EXPECT_EQ(graph->num_edges(), m);
  }
}

}  // namespace
}  // namespace subsim
