// Differential testing of the CELF lazy greedy against the textbook
// full-scan reference: identical seeds, gains, and prefixes across
// randomized instances and option combinations, on full collections and on
// prefix views, and past the last positive gain into the zero-gain tail.
// The CELF correctness argument (a popped entry with an unchanged key
// dominates all stale keys) is exactly what this verifies empirically.

#include <gtest/gtest.h>

#include <cstddef>
#include <iterator>
#include <tuple>
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
RrCollection CopyPrefix(const RrCollection& collection,
                        std::size_t num_sets) {
  RrCollection copy(collection.num_graph_nodes());
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
  EXPECT_EQ(fast.top_k_singleton_sum, reference.top_k_singleton_sum);
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

}  // namespace
}  // namespace subsim
