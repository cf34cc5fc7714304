// Statistical harness for the generator instrumentation: the numbers the
// metrics registry reports must be *correct*, not just monotone. (One
// counter, LT's `rr.prefetch_lines`, is pinned by an exact identity.)
//
// On a WC-weighted Erdős–Rényi graph (every in-list uniform, so SUBSIM
// runs the geometric-skip plan) two identities pin the counters down:
//
//  * `rr.set_size` histogram: SUBSIM samples the same RR-set distribution
//    as the vanilla generator (paper Section 3), so the metrics-reported
//    histogram must match the vanilla generator's empirical sizes within
//    chi-square tolerance.
//
//  * `rr.geometric_skips`: the skip kernel draws exactly emits+1
//    geometric samples per call (documented on SampleUniformSubsetSkips).
//    Under WC weights each in-list has p = 1/indeg, so a processed node
//    emits Binomial(indeg, 1/indeg) live edges — expectation exactly 1 —
//    and every added node is processed exactly once (the cycle backbone
//    keeps indeg >= 1 everywhere). Hence E[skips] = 2 * nodes_added.

#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <cmath>
#include <cstdint>
#include <vector>

#include "subsim/graph/generators.h"
#include "subsim/graph/graph_builder.h"
#include "subsim/graph/weight_models.h"
#include "subsim/obs/metrics.h"
#include "subsim/obs/obs_context.h"
#include "subsim/rrset/parallel_fill.h"
#include "subsim/rrset/rr_collection.h"
#include "subsim/rrset/subsim_ic_generator.h"
#include "subsim/rrset/vanilla_ic_generator.h"

namespace subsim {
namespace {

constexpr NodeId kNodes = 200;
constexpr int kSets = 20000;

/// ER graph with a cycle backbone (indeg >= 1 everywhere) under WC
/// weights: every in-list is uniform with p = 1/indeg.
Graph WcErdosRenyiGraph() {
  Result<EdgeList> er = GenerateErdosRenyi(kNodes, 1200, 11);
  EXPECT_TRUE(er.ok());
  EdgeList list = std::move(er).value();
  for (NodeId v = 0; v < kNodes; ++v) {
    list.edges.push_back(Edge{v, (v + 1) % kNodes, 0.0});
  }
  EXPECT_TRUE(
      AssignWeights(WeightModel::kWeightedCascade, {}, &list).ok());
  Result<Graph> graph = BuildGraph(std::move(list));
  EXPECT_TRUE(graph.ok());
  return std::move(graph).value();
}

/// Two-sample chi-square over the log2 buckets, pooling sparse tail cells
/// so every cell has enough mass for the asymptotic to hold. With equal
/// sample counts the statistic is sum (a-b)^2 / (a+b).
double TwoSampleChiSquare(
    const std::array<std::uint64_t, HistogramSnapshot::kNumBuckets>& a,
    const std::array<std::uint64_t, HistogramSnapshot::kNumBuckets>& b,
    int* degrees_of_freedom) {
  double statistic = 0.0;
  int cells = 0;
  double pooled_a = 0.0;
  double pooled_b = 0.0;
  for (std::size_t i = 0; i < a.size(); ++i) {
    pooled_a += static_cast<double>(a[i]);
    pooled_b += static_cast<double>(b[i]);
    if (pooled_a + pooled_b >= 16.0) {
      const double diff = pooled_a - pooled_b;
      statistic += diff * diff / (pooled_a + pooled_b);
      ++cells;
      pooled_a = pooled_b = 0.0;
    }
  }
  if (pooled_a + pooled_b > 0.0) {  // leftover tail mass
    const double diff = pooled_a - pooled_b;
    statistic += diff * diff / (pooled_a + pooled_b);
    ++cells;
  }
  *degrees_of_freedom = cells > 1 ? cells - 1 : 1;
  return statistic;
}

TEST(MetricsStatisticalTest, SetSizeHistogramMatchesVanillaEmpirical) {
  const Graph graph = WcErdosRenyiGraph();

  // SUBSIM fill with metrics attached: sizes land in `rr.set_size`.
  MetricsRegistry registry;
  SubsimIcGenerator subsim(graph, /*naive_fallback_degree=*/0);
  RrCollection collection(kNodes);
  Rng subsim_rng(21);
  subsim.Fill(subsim_rng, kSets, &collection,
              ObsContext{&registry, nullptr});
  const MetricsSnapshot snapshot = registry.Snapshot();
  const HistogramSnapshot sizes = snapshot.histograms.at("rr.set_size");
  ASSERT_EQ(sizes.count, static_cast<std::uint64_t>(kSets));
  EXPECT_EQ(snapshot.counters.at("rr.sets_generated"),
            static_cast<std::uint64_t>(kSets));
  EXPECT_EQ(snapshot.counters.at("rr.nodes_added"), sizes.sum);

  // Vanilla reference: bucket the empirical sizes with the same scheme.
  VanillaIcGenerator vanilla(graph);
  std::array<std::uint64_t, HistogramSnapshot::kNumBuckets> reference{};
  std::vector<NodeId> out;
  Rng vanilla_rng(22);
  for (int i = 0; i < kSets; ++i) {
    vanilla.Generate(vanilla_rng, &out);
    ++reference[MetricsRegistry::HistogramHandle::BucketIndex(out.size())];
  }

  int df = 0;
  const double statistic =
      TwoSampleChiSquare(sizes.buckets, reference, &df);
  // ~5-sigma acceptance band for a chi-square with df degrees of freedom
  // (mean df, variance 2*df): loose enough never to flake on a fixed
  // seed, tight enough that a mis-counted histogram (off-by-one bucket,
  // dropped sets) fails by orders of magnitude.
  EXPECT_LT(statistic, df + 5.0 * std::sqrt(2.0 * df) + 10.0)
      << "df=" << df;
}

TEST(MetricsStatisticalTest, GeometricSkipCountMatchesExpectation) {
  const Graph graph = WcErdosRenyiGraph();

  MetricsRegistry registry;
  SubsimIcGenerator subsim(graph, /*naive_fallback_degree=*/0);
  RrCollection collection(kNodes);
  Rng rng(31);
  subsim.Fill(rng, kSets, &collection, ObsContext{&registry, nullptr});
  const MetricsSnapshot snapshot = registry.Snapshot();

  const std::uint64_t skips = snapshot.counters.at("rr.geometric_skips");
  const std::uint64_t nodes = snapshot.counters.at("rr.nodes_added");
  // draws = emits + 1 per call, one call per added node, E[emits] = 1
  // under WC: E[skips] = 2 * nodes_added. The emit count concentrates
  // hard over ~nodes_added Binomial summands, so 2% is many sigma.
  EXPECT_NEAR(static_cast<double>(skips), 2.0 * static_cast<double>(nodes),
              0.02 * 2.0 * static_cast<double>(nodes));

  // The uniform-skip plan never runs rejection sampling.
  EXPECT_EQ(snapshot.counters.at("rr.rejection_accepts"), 0u);

  // Cross-generator sanity: vanilla explores the same distribution, so
  // total nodes agree within a few percent at this sample count.
  VanillaIcGenerator vanilla(graph);
  std::vector<NodeId> out;
  Rng vanilla_rng(32);
  std::uint64_t vanilla_nodes = 0;
  for (int i = 0; i < kSets; ++i) {
    vanilla.Generate(vanilla_rng, &out);
    vanilla_nodes += out.size();
  }
  EXPECT_NEAR(static_cast<double>(nodes),
              static_cast<double>(vanilla_nodes),
              0.05 * static_cast<double>(vanilla_nodes));
}

/// Denser ER graph whose every in-degree clears the SUBSIM naive-fallback
/// threshold (16): a `FillCollection` SUBSIM fill — which uses the default
/// fallback — then runs the geometric-skip plan for *every* processed
/// node, so the skip-count identity applies to both kernels.
Graph DenseWcErdosRenyiGraph() {
  Result<EdgeList> er = GenerateErdosRenyi(kNodes, 8000, 13);
  EXPECT_TRUE(er.ok());
  EdgeList list = std::move(er).value();
  for (NodeId v = 0; v < kNodes; ++v) {
    list.edges.push_back(Edge{v, (v + 1) % kNodes, 0.0});
  }
  EXPECT_TRUE(AssignWeights(WeightModel::kWeightedCascade, {}, &list).ok());
  Result<Graph> graph = BuildGraph(std::move(list));
  EXPECT_TRUE(graph.ok());
  for (NodeId v = 0; v < kNodes; ++v) {
    EXPECT_GE(graph.value().InNeighbors(v).size(),
              static_cast<std::size_t>(
                  SubsimIcGenerator::kDefaultNaiveFallbackDegree))
        << "node " << v << " would take the naive plan";
  }
  return std::move(graph).value();
}

MetricsSnapshot FillSnapshot(const Graph& graph, FillKernel kernel,
                             std::uint64_t seed, std::size_t count) {
  MetricsRegistry registry;
  RrCollection collection(graph.num_nodes());
  RngStream rng = MakeRngStream(seed, 1);
  FillRequest request;
  request.kind = GeneratorKind::kSubsimIc;
  request.graph = &graph;
  request.rng = &rng;
  request.count = count;
  request.obs = ObsContext{&registry, nullptr};
  request.kernel = kernel;
  EXPECT_TRUE(FillCollection(request, &collection).ok());
  return registry.Snapshot();
}

TEST(MetricsStatisticalTest, BatchedSetSizesMatchScalarDistribution) {
  // Independent seeds on purpose: with a shared seed the streams are
  // byte-identical (pinned elsewhere), which would make this vacuous.
  // Sampled independently, the two kernels must still draw from the same
  // RR-size distribution — a chi-square over the `rr.set_size` histogram
  // catches a batched kernel that is subtly wrong but self-consistent.
  const Graph graph = DenseWcErdosRenyiGraph();
  const HistogramSnapshot scalar =
      FillSnapshot(graph, FillKernel::kScalar, 61, kSets)
          .histograms.at("rr.set_size");
  const HistogramSnapshot batched =
      FillSnapshot(graph, FillKernel::kBatched, 62, kSets)
          .histograms.at("rr.set_size");
  ASSERT_EQ(scalar.count, static_cast<std::uint64_t>(kSets));
  ASSERT_EQ(batched.count, static_cast<std::uint64_t>(kSets));

  int df = 0;
  const double statistic =
      TwoSampleChiSquare(scalar.buckets, batched.buckets, &df);
  EXPECT_LT(statistic, df + 5.0 * std::sqrt(2.0 * df) + 10.0) << "df=" << df;
}

TEST(MetricsStatisticalTest, BatchedCountersExactlyEqualScalarSameSeed) {
  // Same seed: byte-identical streams mean the semantic counters — and
  // the skip draws behind them — must agree *exactly*, not statistically.
  const Graph graph = DenseWcErdosRenyiGraph();
  const MetricsSnapshot scalar =
      FillSnapshot(graph, FillKernel::kScalar, 71, 4000);
  const MetricsSnapshot batched =
      FillSnapshot(graph, FillKernel::kBatched, 71, 4000);
  for (const char* key :
       {"rr.sets_generated", "rr.nodes_added", "rr.edges_examined",
        "rr.geometric_skips", "rr.rejection_accepts", "rr.sentinel_hits"}) {
    EXPECT_EQ(scalar.counters.at(key), batched.counters.at(key)) << key;
  }
  EXPECT_EQ(scalar.histograms.at("rr.set_size").buckets,
            batched.histograms.at("rr.set_size").buckets);

  // Kernel-implementation counters are the one place the kernels differ.
  EXPECT_EQ(scalar.counters.at("rr.batch_chunks"), 0u);
  EXPECT_GT(batched.counters.at("rr.batch_chunks"), 0u);
  EXPECT_GT(batched.counters.at("rr.prefetch_lines"), 0u);

  // Every in-degree clears the fallback threshold, so each processed node
  // is one skip-kernel call: draws = emits + 1, E[emits] = 1 under WC,
  // hence skips == 2 * nodes_added in expectation (2% is many sigma at
  // this sample size) — for the batched kernel just like the scalar one.
  const double nodes =
      static_cast<double>(batched.counters.at("rr.nodes_added"));
  const double skips =
      static_cast<double>(batched.counters.at("rr.geometric_skips"));
  EXPECT_NEAR(skips, 2.0 * nodes, 0.02 * 2.0 * nodes);
}

TEST(MetricsStatisticalTest, AttachingMetricsDoesNotPerturbRngStream) {
  const Graph graph = WcErdosRenyiGraph();

  SubsimIcGenerator plain(graph, 0);
  RrCollection plain_sets(kNodes);
  Rng plain_rng(41);
  plain.Fill(plain_rng, 500, &plain_sets);

  MetricsRegistry registry;
  SubsimIcGenerator instrumented(graph, 0);
  RrCollection obs_sets(kNodes);
  Rng obs_rng(41);
  instrumented.Fill(obs_rng, 500, &obs_sets,
                    ObsContext{&registry, nullptr});

  ASSERT_EQ(plain_sets.num_sets(), obs_sets.num_sets());
  for (std::size_t i = 0; i < plain_sets.num_sets(); ++i) {
    const auto a = plain_sets.View(static_cast<RrId>(i)).ToVector();
    const auto b = obs_sets.View(static_cast<RrId>(i)).ToVector();
    ASSERT_EQ(a.size(), b.size()) << "set " << i;
    for (std::size_t j = 0; j < a.size(); ++j) {
      ASSERT_EQ(a[j], b[j]) << "set " << i << " pos " << j;
    }
  }
}

TEST(MetricsStatisticalTest, LtPrefetchLinesCountInSourceRowsOnly) {
  // An LT pick reads a row's in-sources and never its in-weights (a skewed
  // row samples from its alias table), so the batched LT kernel prefetches
  // the source row of each member exactly once — at its commit — and
  // nothing else: `rr.prefetch_lines` is exactly the sum of those rows'
  // leading lines, capped at two, even on a graph whose rows are all
  // skewed.
  Result<EdgeList> list = GenerateBarabasiAlbert(1500, 6, false, 23);
  ASSERT_TRUE(list.ok());
  ASSERT_TRUE(
      AssignWeights(WeightModel::kExponential, {}, &list.value()).ok());
  Result<Graph> graph = BuildGraph(std::move(list).value());
  ASSERT_TRUE(graph.ok());

  MetricsRegistry registry;
  RrCollection collection(graph->num_nodes());
  RngStream rng = MakeRngStream(31, 1);
  FillRequest request;
  request.kind = GeneratorKind::kLt;
  request.graph = &*graph;
  request.rng = &rng;
  request.count = 3000;
  request.obs = ObsContext{&registry, nullptr};
  request.kernel = FillKernel::kBatched;
  ASSERT_TRUE(FillCollection(request, &collection).ok());

  const auto leading_lines = [](std::uint64_t bytes) {
    return std::min<std::uint64_t>(2, (bytes + 63) / 64);
  };
  std::uint64_t expected = 0;
  std::uint64_t weight_lines = 0;  // what prefetching in-weights would add
  for (RrId id = 0; id < collection.num_sets(); ++id) {
    collection.View(id).ForEachNode([&](NodeId v) {
      const std::uint64_t degree = graph->InDegree(v);
      expected += leading_lines(degree * sizeof(NodeId));
      if (!graph->InMeta(v).uniform()) {
        weight_lines += leading_lines(degree * sizeof(double));
      }
    });
  }
  EXPECT_GT(weight_lines, expected / 2);
  EXPECT_EQ(registry.Snapshot().counters.at("rr.prefetch_lines"), expected);
}

}  // namespace
}  // namespace subsim
