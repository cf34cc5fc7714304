// Differential testing of the CELF lazy greedy against the textbook
// full-scan reference: identical seeds, gains, and prefixes across
// randomized instances and option combinations, on full collections and on
// prefix views, and past the last positive gain into the zero-gain tail.
// The CELF correctness argument (a popped entry with an unchanged key
// dominates all stale keys) is exactly what this verifies empirically.
// The singleton pass reads the sets themselves, so delta-varint
// collections and prefixes far shorter than their collection are covered
// too, as is a tail through many out-degree ties. Λ^u, which the fast
// version tracks from kept marginals and the reference recounts at every
// prefix, is compared on every case.

#include <gtest/gtest.h>

#include <cstddef>
#include <cstdint>
#include <iterator>
#include <tuple>
#include <utility>
#include <vector>

#include "subsim/coverage/max_coverage.h"
#include "subsim/coverage/reference_greedy.h"
#include "subsim/graph/generators.h"
#include "subsim/graph/graph_builder.h"
#include "subsim/graph/weight_models.h"
#include "subsim/rrset/subsim_ic_generator.h"
#include "subsim/rrset/vanilla_ic_generator.h"

namespace subsim {
namespace {

/// Instance shapes: (RR sets drawn, k). The dense shapes give every seed a
/// positive gain; the sparse ones (60 sets, k past every positive-coverage
/// node) run the greedy into its zero-gain tail, where the order falls back
/// to (out-degree, id).
struct Shape {
  std::size_t num_sets;
  std::uint32_t k;
};
constexpr Shape kShapes[] = {{800, 1}, {800, 5}, {800, 25}, {60, 150},
                             {60, 500}};

/// A fresh collection holding copies of the first `num_sets` sets of
/// `collection`, sentinel flags included.
RrCollection CopyPrefix(const RrCollection& collection, std::size_t num_sets,
                        RrEncoding encoding = RrEncoding::kRaw) {
  RrCollection copy(collection.num_graph_nodes(), encoding);
  for (std::size_t id = 0; id < num_sets; ++id) {
    const RrId rr = static_cast<RrId>(id);
    copy.Add(collection.View(rr).ToVector(), collection.HitSentinel(rr));
  }
  copy.IndexNewSets();
  return copy;
}

void ExpectSameResult(const CoverageGreedyResult& fast,
                      const CoverageGreedyResult& reference) {
  EXPECT_EQ(fast.seeds, reference.seeds);
  EXPECT_EQ(fast.gains, reference.gains);
  EXPECT_EQ(fast.coverage_prefix, reference.coverage_prefix);
  EXPECT_EQ(fast.considered_sets, reference.considered_sets);
  EXPECT_EQ(fast.coverage_upper_bound, reference.coverage_upper_bound);
  EXPECT_EQ(fast.upper_bound_top_count, reference.upper_bound_top_count);
}

class GreedyDifferentialTest
    : public ::testing::TestWithParam<
          std::tuple<int, std::size_t, bool, bool, bool>> {};

TEST_P(GreedyDifferentialTest, CelfMatchesReference) {
  const auto [seed, shape_index, tie_break, exclude_hits, exclude_nodes] =
      GetParam();
  const Shape shape = kShapes[shape_index];

  Result<EdgeList> list = GenerateBarabasiAlbert(400, 3, true, seed);
  ASSERT_TRUE(list.ok());
  WeightModelParams params;
  params.wc_variant_theta = 1.5;
  ASSERT_TRUE(
      AssignWeights(WeightModel::kWcVariant, params, &list.value()).ok());
  Result<Graph> graph = BuildGraph(std::move(list).value());
  ASSERT_TRUE(graph.ok());

  SubsimIcGenerator generator(*graph);
  if (exclude_hits) {
    // Install sentinels so some sets carry the hit flag.
    generator.SetSentinels(std::vector<NodeId>{0, 1, 2});
  }
  RrCollection collection(graph->num_nodes());
  Rng rng(seed * 7919 + 13);
  generator.Fill(rng, shape.num_sets, &collection);

  CoverageGreedyOptions options;
  options.k = shape.k;
  options.tie_break_by_out_degree = tie_break;
  options.graph = tie_break ? &*graph : nullptr;
  options.exclude_sentinel_hit_sets = exclude_hits;
  const std::vector<NodeId> excluded = {5, 6};
  if (exclude_nodes) {
    options.excluded_nodes = excluded;
  }

  const CoverageGreedyResult fast = RunCoverageGreedy(collection, options);
  ExpectSameResult(fast, RunReferenceCoverageGreedy(collection, options));
  if (shape.k > shape.num_sets) {
    // At most one positive gain per set: the tail was reached.
    ASSERT_FALSE(fast.gains.empty());
    EXPECT_EQ(fast.gains.back(), 0u);
  }

  // Prefix views must select exactly what a collection holding only the
  // prefix would.
  for (const std::size_t p : {std::size_t{0}, shape.num_sets / 4,
                              shape.num_sets / 2, shape.num_sets - 1}) {
    SCOPED_TRACE(::testing::Message() << "prefix " << p);
    ExpectSameResult(RunCoverageGreedy(collection.Prefix(p), options),
                     RunReferenceCoverageGreedy(CopyPrefix(collection, p),
                                                options));
  }
}

INSTANTIATE_TEST_SUITE_P(
    Randomized, GreedyDifferentialTest,
    ::testing::Combine(::testing::Values(1, 2, 3, 4, 5),  // instance seed
                       ::testing::Range<std::size_t>(0, std::size(kShapes)),
                       ::testing::Bool(),                 // tie-break
                       ::testing::Bool(),                 // exclude hits
                       ::testing::Bool()));               // exclude nodes

TEST(GreedyDifferentialTest, VanillaGeneratorInstancesAgreeToo) {
  Result<EdgeList> list = GenerateErdosRenyi(300, 2400, 17);
  ASSERT_TRUE(list.ok());
  ASSERT_TRUE(
      AssignWeights(WeightModel::kWeightedCascade, {}, &list.value()).ok());
  Result<Graph> graph = BuildGraph(std::move(list).value());
  ASSERT_TRUE(graph.ok());

  VanillaIcGenerator generator(*graph);
  RrCollection collection(graph->num_nodes());
  Rng rng(18);
  generator.Fill(rng, 1500, &collection);

  CoverageGreedyOptions options;
  options.k = 40;
  const CoverageGreedyResult fast = RunCoverageGreedy(collection, options);
  const CoverageGreedyResult reference =
      RunReferenceCoverageGreedy(collection, options);
  EXPECT_EQ(fast.seeds, reference.seeds);
  EXPECT_EQ(fast.gains, reference.gains);
}

// The singleton pass reads the view's sets rather than the index: it must
// decode delta-varint sets to the same coverages, and read no set past a
// short prefix of a long collection, over the whole option grid. k = 5
// stays within the positive gains; k = 150 runs a 30-set prefix deep into
// the zero-gain tail.
class GreedyViewDifferentialTest
    : public ::testing::TestWithParam<std::tuple<int, bool, bool, bool>> {};

TEST_P(GreedyViewDifferentialTest, EncodingsAndShortPrefixesMatchReference) {
  const auto [seed, tie_break, exclude_hits, exclude_nodes] = GetParam();
  Result<EdgeList> list = GenerateBarabasiAlbert(400, 3, true, seed);
  ASSERT_TRUE(list.ok());
  WeightModelParams params;
  params.wc_variant_theta = 1.5;
  ASSERT_TRUE(
      AssignWeights(WeightModel::kWcVariant, params, &list.value()).ok());
  Result<Graph> graph = BuildGraph(std::move(list).value());
  ASSERT_TRUE(graph.ok());

  SubsimIcGenerator generator(*graph);
  if (exclude_hits) {
    generator.SetSentinels(std::vector<NodeId>{0, 1, 2});
  }
  RrCollection raw(graph->num_nodes());
  Rng rng(seed * 104729 + 7);
  generator.Fill(rng, 2000, &raw);
  const RrCollection varint =
      CopyPrefix(raw, raw.num_sets(), RrEncoding::kDeltaVarint);

  const std::vector<NodeId> excluded = {5, 6, 7};
  for (const std::uint32_t k : {5u, 150u}) {
    CoverageGreedyOptions options;
    options.k = k;
    options.tie_break_by_out_degree = tie_break;
    options.graph = tie_break ? &*graph : nullptr;
    options.exclude_sentinel_hit_sets = exclude_hits;
    if (exclude_nodes) {
      options.excluded_nodes = excluded;
    }
    for (const std::size_t p : {std::size_t{1}, std::size_t{30},
                                std::size_t{2000}}) {
      SCOPED_TRACE(::testing::Message() << "k " << k << " prefix " << p);
      const CoverageGreedyResult reference =
          RunReferenceCoverageGreedy(CopyPrefix(raw, p), options);
      {
        SCOPED_TRACE("raw");
        ExpectSameResult(RunCoverageGreedy(raw.Prefix(p), options), reference);
      }
      {
        SCOPED_TRACE("delta-varint");
        ExpectSameResult(RunCoverageGreedy(varint.Prefix(p), options),
                         reference);
      }
    }
  }
}

INSTANTIATE_TEST_SUITE_P(
    Grid, GreedyViewDifferentialTest,
    ::testing::Combine(::testing::Values(1, 2, 3),  // instance seed
                       ::testing::Bool(),           // tie-break
                       ::testing::Bool(),           // exclude hits
                       ::testing::Bool()));         // exclude nodes

TEST(GreedyDifferentialTest, ZeroGainTailOrdersOutDegreeTiesById) {
  // Out-degrees take only the values 0..3, so hundreds of nodes tie on
  // out-degree and the tail's order inside each tie is the id alone.
  constexpr NodeId kNodes = 600;
  GraphBuilder builder(kNodes);
  for (NodeId v = 0; v < kNodes; ++v) {
    for (NodeId j = 1; j <= v % 4; ++j) {
      builder.AddEdge(v, (v + 7 * j) % kNodes, 0.25);
    }
  }
  Result<Graph> graph = std::move(builder).Build();
  ASSERT_TRUE(graph.ok());

  // Twenty small sets: a handful of positive gains, then the tail.
  RrCollection collection(kNodes);
  for (NodeId i = 0; i < 20; ++i) {
    const std::vector<NodeId> set = {(i * 37) % kNodes, (i * 37 + 1) % kNodes};
    collection.Add(set, /*hit_sentinel=*/i % 5 == 0);
  }
  collection.IndexNewSets();

  const std::vector<NodeId> excluded = {599, 598, 3, 37};
  for (const bool tie_break : {false, true}) {
    for (const bool exclude : {false, true}) {
      SCOPED_TRACE(::testing::Message()
                   << "tie-break " << tie_break << " exclude " << exclude);
      CoverageGreedyOptions options;
      options.k = kNodes;  // every selectable node: the whole tail
      options.tie_break_by_out_degree = tie_break;
      options.graph = tie_break ? &*graph : nullptr;
      options.exclude_sentinel_hit_sets = exclude;
      if (exclude) {
        options.excluded_nodes = excluded;
      }
      const CoverageGreedyResult fast = RunCoverageGreedy(collection, options);
      ExpectSameResult(fast, RunReferenceCoverageGreedy(collection, options));
      EXPECT_EQ(fast.seeds.size(), kNodes - options.excluded_nodes.size());
      options.k = 60;  // a tail that stops part-way through a tie
      ExpectSameResult(RunCoverageGreedy(collection, options),
                       RunReferenceCoverageGreedy(collection, options));
    }
  }
}

}  // namespace
}  // namespace subsim
