// Distributional correctness of RR-set generation — the properties the
// whole RIS framework rests on:
//  * Lemma 1: Pr[u in random RR set] = I({u}) / n, checked against exact
//    influence probabilities from live-edge enumeration;
//  * the SUBSIM generator (all strategies) produces the same distribution
//    as the vanilla generator;
//  * LT RR sets realize the LT live-edge distribution.

#include <gtest/gtest.h>

#include <cmath>
#include <vector>

#include "subsim/eval/exact_spread.h"
#include "subsim/graph/generators.h"
#include "subsim/graph/graph_builder.h"
#include "subsim/graph/weight_models.h"
#include "subsim/rrset/lt_generator.h"
#include "subsim/rrset/subsim_ic_generator.h"
#include "subsim/rrset/vanilla_ic_generator.h"

namespace subsim {
namespace {

/// Per-node empirical membership frequency over `trials` RR sets.
std::vector<double> MembershipFrequencies(RrGenerator& generator, NodeId n,
                                          int trials, std::uint64_t seed) {
  Rng rng(seed);
  std::vector<NodeId> out;
  std::vector<int> counts(n, 0);
  for (int t = 0; t < trials; ++t) {
    generator.Generate(rng, &out);
    for (NodeId v : out) {
      ++counts[v];
    }
  }
  std::vector<double> freq(n);
  for (NodeId v = 0; v < n; ++v) {
    freq[v] = static_cast<double>(counts[v]) / trials;
  }
  return freq;
}

/// Exact Pr[u in random RR set] = (1/n) sum_v Pr[u -> v] under IC.
std::vector<double> ExactMembershipProbabilities(const Graph& graph) {
  const NodeId n = graph.num_nodes();
  std::vector<double> probs(n, 0.0);
  for (NodeId u = 0; u < n; ++u) {
    double sum = 0.0;
    for (NodeId v = 0; v < n; ++v) {
      const Result<double> p = ExactInfluenceProbabilityIc(graph, u, v);
      EXPECT_TRUE(p.ok());
      sum += *p;
    }
    probs[u] = sum / n;
  }
  return probs;
}

void ExpectFrequenciesMatch(const std::vector<double>& freq,
                            const std::vector<double>& expected, int trials,
                            const std::string& label) {
  ASSERT_EQ(freq.size(), expected.size());
  for (std::size_t v = 0; v < freq.size(); ++v) {
    const double p = expected[v];
    const double sigma = std::sqrt(p * (1.0 - p) / trials);
    EXPECT_NEAR(freq[v], p, 5.0 * sigma + 2.0 / trials)
        << label << " node " << v;
  }
}

Graph SmallSkewedGraph() {
  // 6 nodes, 10 edges, assorted weights exercising every sampling plan:
  // uniform rows, skewed rows, a weight-1 edge and a weight-0 edge.
  EdgeList list;
  list.num_nodes = 6;
  list.edges = {{0, 1, 0.8}, {2, 1, 0.8},  {1, 2, 0.5},  {3, 2, 0.2},
                {4, 2, 0.1}, {2, 3, 1.0},  {4, 3, 0.35}, {5, 4, 0.6},
                {0, 5, 0.0}, {3, 5, 0.45}};
  Result<Graph> graph = BuildGraph(std::move(list));
  EXPECT_TRUE(graph.ok());
  return std::move(graph).value();
}

constexpr int kTrials = 300000;

TEST(RrDistributionTest, VanillaMatchesExactInfluence) {
  const Graph graph = SmallSkewedGraph();
  VanillaIcGenerator generator(graph);
  const auto freq =
      MembershipFrequencies(generator, graph.num_nodes(), kTrials, 1);
  ExpectFrequenciesMatch(freq, ExactMembershipProbabilities(graph), kTrials,
                         "vanilla");
}

TEST(RrDistributionTest, SubsimSortedMatchesExactInfluence) {
  // Weight-sorted build: skewed rows use the index-free sorted kernel.
  const Graph graph = SmallSkewedGraph();
  SubsimIcGenerator generator(graph, /*naive_fallback_degree=*/0);
  const auto freq =
      MembershipFrequencies(generator, graph.num_nodes(), kTrials, 3);
  ExpectFrequenciesMatch(freq, ExactMembershipProbabilities(graph), kTrials,
                         "subsim-sorted");
}

TEST(RrDistributionTest, UniformWcFastPathMatchesExactInfluence) {
  // WC weights make every in-list uniform, driving the geometric-skip plan.
  EdgeList list = MakeCycle(5);
  for (Edge& e : list.edges) {
    e.weight = 0.0;
  }
  list.edges.push_back(Edge{0, 2, 0.0});
  list.edges.push_back(Edge{3, 1, 0.0});
  ASSERT_TRUE(
      AssignWeights(WeightModel::kWeightedCascade, {}, &list).ok());
  Result<Graph> graph = BuildGraph(std::move(list));
  ASSERT_TRUE(graph.ok());

  SubsimIcGenerator subsim(*graph, /*naive_fallback_degree=*/0);
  const auto freq =
      MembershipFrequencies(subsim, graph->num_nodes(), kTrials, 4);
  ExpectFrequenciesMatch(freq, ExactMembershipProbabilities(*graph), kTrials,
                         "subsim-wc");
}

TEST(RrDistributionTest, VanillaAndSubsimAgreeOnLargerGraph) {
  // Too large for exact enumeration: compare the two generators against
  // each other instead.
  Result<EdgeList> list = GenerateErdosRenyi(60, 400, 5);
  ASSERT_TRUE(list.ok());
  WeightModelParams params;
  params.seed = 5;
  ASSERT_TRUE(
      AssignWeights(WeightModel::kExponential, params, &list.value()).ok());
  Result<Graph> graph = BuildGraph(std::move(list).value());
  ASSERT_TRUE(graph.ok());

  VanillaIcGenerator vanilla(*graph);
  SubsimIcGenerator subsim(*graph, /*naive_fallback_degree=*/0);
  const int trials = 200000;
  const auto freq_vanilla =
      MembershipFrequencies(vanilla, graph->num_nodes(), trials, 6);
  const auto freq_subsim =
      MembershipFrequencies(subsim, graph->num_nodes(), trials, 7);
  for (NodeId v = 0; v < graph->num_nodes(); ++v) {
    const double p = 0.5 * (freq_vanilla[v] + freq_subsim[v]);
    const double sigma = std::sqrt(2.0 * p * (1.0 - p) / trials);
    EXPECT_NEAR(freq_vanilla[v], freq_subsim[v], 5.0 * sigma + 3.0 / trials)
        << "node " << v;
  }
}

TEST(RrDistributionTest, LtPathMatchesHandComputedProbabilities) {
  // Path 0 -> 1 -> 2 with weight 0.6 on each edge. Under LT's live-edge
  // view each node keeps its single in-edge with probability 0.6, so
  //   Pr[0 in RR] = (1 + 0.6 + 0.36) / 3,
  //   Pr[1 in RR] = (0 + 1 + 0.6) / 3,
  //   Pr[2 in RR] = 1/3.
  EdgeList list = MakePath(3);
  for (Edge& e : list.edges) {
    e.weight = 0.6;
  }
  Result<Graph> graph = BuildGraph(std::move(list));
  ASSERT_TRUE(graph.ok());
  auto generator = LtGenerator::Create(*graph);
  ASSERT_TRUE(generator.ok());

  const auto freq = MembershipFrequencies(**generator, 3, kTrials, 8);
  const std::vector<double> expected = {(1.0 + 0.6 + 0.36) / 3.0,
                                        (1.0 + 0.6) / 3.0, 1.0 / 3.0};
  ExpectFrequenciesMatch(freq, expected, kTrials, "lt-path");
}

TEST(RrDistributionTest, LtStarWithSkewedWeightsUsesAliasPath) {
  // Node 3 has in-neighbors {0, 1, 2} with weights {0.5, 0.3, 0.1}; under
  // LT the live in-edge of 3 is u with probability w_u (no edge: 0.1).
  // Pr[u in RR] = (Pr[u in RR(u)] + Pr[u in RR(3)]) / 4 = (1 + w_u) / 4.
  EdgeList list;
  list.num_nodes = 4;
  list.edges = {{0, 3, 0.5}, {1, 3, 0.3}, {2, 3, 0.1}};
  Result<Graph> graph = BuildGraph(std::move(list));
  ASSERT_TRUE(graph.ok());
  auto generator = LtGenerator::Create(*graph);
  ASSERT_TRUE(generator.ok());

  const auto freq = MembershipFrequencies(**generator, 4, kTrials, 9);
  const std::vector<double> expected = {1.5 / 4.0, 1.3 / 4.0, 1.1 / 4.0,
                                        1.0 / 4.0};
  ExpectFrequenciesMatch(freq, expected, kTrials, "lt-star");
}

}  // namespace
}  // namespace subsim
