// Distributional check for the SUBSIM generator's kTakeAll plan (uniform
// in-weights equal to 1, as produced by the WC variant's min{1, theta/d}
// clamp) and for mixed graphs where clamped and unclamped nodes coexist:
// the SUBSIM generator must agree with the vanilla generator everywhere.

#include <gtest/gtest.h>

#include <cmath>
#include <vector>

#include "subsim/eval/exact_spread.h"
#include "subsim/graph/graph_builder.h"
#include "subsim/graph/weight_models.h"
#include "subsim/rrset/subsim_ic_generator.h"
#include "subsim/rrset/vanilla_ic_generator.h"

namespace subsim {
namespace {

std::vector<double> Frequencies(RrGenerator& generator, NodeId n, int trials,
                                std::uint64_t seed) {
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

TEST(TakeAllDistributionTest, WeightOneEdgesMatchExactInfluence) {
  // Mixed graph: node 2's in-edges are clamped to 1 (kTakeAll), node 4's
  // are fractional-uniform (kUniformSkip), node 5's are skewed (kGeneral,
  // the sorted index-free sampler).
  EdgeList list;
  list.num_nodes = 6;
  list.edges = {{0, 2, 1.0}, {1, 2, 1.0}, {2, 4, 0.4}, {3, 4, 0.4},
                {0, 5, 0.7}, {4, 5, 0.2}, {2, 3, 0.5}};
  Result<Graph> graph = BuildGraph(std::move(list));
  ASSERT_TRUE(graph.ok());

  constexpr int kTrials = 200000;
  SubsimIcGenerator subsim(*graph, /*naive_fallback_degree=*/0);
  const auto freq = Frequencies(subsim, 6, kTrials, 1);

  for (NodeId u = 0; u < 6; ++u) {
    double expected = 0.0;
    for (NodeId v = 0; v < 6; ++v) {
      const Result<double> p = ExactInfluenceProbabilityIc(*graph, u, v);
      ASSERT_TRUE(p.ok());
      expected += *p;
    }
    expected /= 6.0;
    const double sigma = std::sqrt(expected * (1.0 - expected) / kTrials);
    EXPECT_NEAR(freq[u], expected, 5.0 * sigma + 2.0 / kTrials)
        << "node " << u;
  }
}

TEST(TakeAllDistributionTest, WcVariantClampAgreesAcrossGenerators) {
  // WC-variant with theta = 3 on a small dense graph: low-degree nodes get
  // clamped weight-1 in-edges, high-degree nodes get 3/d < 1 — covering
  // kTakeAll and kUniformSkip together. Compare SUBSIM against vanilla.
  EdgeList list;
  list.num_nodes = 12;
  for (NodeId u = 0; u < 12; ++u) {
    for (NodeId d = 1; d <= 1 + u % 5; ++d) {
      list.edges.push_back(
          Edge{u, static_cast<NodeId>((u + d) % 12), 0.0});
    }
  }
  WeightModelParams params;
  params.wc_variant_theta = 3.0;
  ASSERT_TRUE(AssignWeights(WeightModel::kWcVariant, params, &list).ok());
  Result<Graph> graph = BuildGraph(std::move(list));
  ASSERT_TRUE(graph.ok());

  constexpr int kTrials = 200000;
  VanillaIcGenerator vanilla(*graph);
  SubsimIcGenerator subsim(*graph, /*naive_fallback_degree=*/0);
  const auto freq_vanilla =
      Frequencies(vanilla, graph->num_nodes(), kTrials, 2);
  const auto freq_subsim =
      Frequencies(subsim, graph->num_nodes(), kTrials, 3);
  for (NodeId v = 0; v < graph->num_nodes(); ++v) {
    const double p = 0.5 * (freq_vanilla[v] + freq_subsim[v]);
    const double sigma = std::sqrt(2.0 * p * (1.0 - p) / kTrials);
    EXPECT_NEAR(freq_vanilla[v], freq_subsim[v], 5.0 * sigma + 3.0 / kTrials)
        << "node " << v;
  }
}

TEST(TakeAllDistributionTest, FallbackThresholdDoesNotChangeDistribution) {
  // The small-degree naive fallback is a pure performance plan: identical
  // distribution with the fallback on and off.
  EdgeList list;
  list.num_nodes = 8;
  list.edges = {{0, 1, 0.5}, {2, 1, 0.3}, {3, 1, 0.2}, {1, 4, 0.6},
                {5, 4, 0.6}, {4, 6, 1.0}, {6, 7, 0.25}};
  Result<Graph> graph = BuildGraph(std::move(list));
  ASSERT_TRUE(graph.ok());

  constexpr int kTrials = 200000;
  SubsimIcGenerator with_fallback(*graph, /*naive_fallback_degree=*/16);
  SubsimIcGenerator without_fallback(*graph, /*naive_fallback_degree=*/0);
  const auto freq_a = Frequencies(with_fallback, 8, kTrials, 4);
  const auto freq_b = Frequencies(without_fallback, 8, kTrials, 5);
  for (NodeId v = 0; v < 8; ++v) {
    const double p = 0.5 * (freq_a[v] + freq_b[v]);
    const double sigma = std::sqrt(2.0 * p * (1.0 - p) / kTrials);
    EXPECT_NEAR(freq_a[v], freq_b[v], 5.0 * sigma + 3.0 / kTrials)
        << "node " << v;
  }
}

}  // namespace
}  // namespace subsim
