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
// prefix, is compared on every case. The last cases aim at the fast
// version's own shortcuts: views on both sides of its dense/sparse
// singleton rule, hundreds of nodes tied exactly at a heap band's
// threshold, and banded nodes that fall to 0 before the zero-gain tail.

#include <gtest/gtest.h>

#include <algorithm>
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
#include "subsim/random/rng.h"
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

// The singleton pass reads row lengths off the index when the view holds
// many memberships per node (taking back the sets past its prefix and the
// sentinel-hit sets), and counts the view's memberships otherwise. One
// collection, viewed at prefixes from n/64 memberships to the whole
// 3000-set collection, puts views on both sides of that rule, with and
// without exclusions: short prefixes are sparse, the longest dense, and a
// 1/10 prefix holds many memberships but many more past it.
class GreedyDenseSparseDifferentialTest
    : public ::testing::TestWithParam<std::tuple<int, bool, bool, bool>> {};

TEST_P(GreedyDenseSparseDifferentialTest, EveryPrefixMatchesReference) {
  const auto [seed, tie_break, exclude_hits, exclude_nodes] = GetParam();
  Result<EdgeList> list = GenerateBarabasiAlbert(400, 3, true, seed);
  ASSERT_TRUE(list.ok());
  WeightModelParams params;
  params.wc_variant_theta = 1.5;
  ASSERT_TRUE(
      AssignWeights(WeightModel::kWcVariant, params, &list.value()).ok());
  Result<Graph> graph = BuildGraph(std::move(list).value());
  ASSERT_TRUE(graph.ok());
  const NodeId n = graph->num_nodes();

  SubsimIcGenerator generator(*graph);
  if (exclude_hits) {
    // Two low-degree sentinels: few sets hit them, so views that drop
    // the hit sets still fall on both sides of the rule.
    generator.SetSentinels(std::vector<NodeId>{350, 390});
  }
  RrCollection collection(n);
  Rng rng(seed * 6151 + 3);
  generator.Fill(rng, 3000, &collection);
  ASSERT_GT(collection.total_nodes(), 4u * n);

  std::vector<std::size_t> prefixes;
  for (const std::uint64_t target :
       {std::uint64_t{n} / 64, std::uint64_t{n} / 16, std::uint64_t{n} / 8,
        std::uint64_t{n} / 4, std::uint64_t{n} / 2, std::uint64_t{n},
        std::uint64_t{4} * n}) {
    std::size_t p = 1;
    while (collection.Prefix(p).total_nodes() < target) {
      ++p;
    }
    prefixes.push_back(p);
  }
  for (const std::size_t tenths : {1, 5, 9, 10}) {
    prefixes.push_back(collection.num_sets() * tenths / 10);
  }

  const std::vector<NodeId> excluded = {5, 6, 7, 250};
  for (const std::uint32_t k : {10u, 150u}) {
    CoverageGreedyOptions options;
    options.k = k;
    options.tie_break_by_out_degree = tie_break;
    options.graph = tie_break ? &*graph : nullptr;
    options.exclude_sentinel_hit_sets = exclude_hits;
    if (exclude_nodes) {
      options.excluded_nodes = excluded;
    }
    for (const std::size_t p : prefixes) {
      SCOPED_TRACE(::testing::Message()
                   << "k " << k << " prefix " << p << " memberships "
                   << collection.Prefix(p).total_nodes());
      ExpectSameResult(RunCoverageGreedy(collection.Prefix(p), options),
                       RunReferenceCoverageGreedy(CopyPrefix(collection, p),
                                                  options));
    }
  }
}

INSTANTIATE_TEST_SUITE_P(
    Grid, GreedyDenseSparseDifferentialTest,
    ::testing::Combine(::testing::Values(1, 2, 3),  // instance seed
                       ::testing::Bool(),           // tie-break
                       ::testing::Bool(),           // exclude hits
                       ::testing::Bool()));         // exclude nodes

/// `num_sets` sets of `size` distinct nodes drawn uniformly from `n`, so
/// singleton coverages are small integers shared by hundreds of nodes.
RrCollection UniformSets(NodeId n, std::size_t num_sets, std::size_t size,
                         std::uint64_t seed) {
  RrCollection collection(n);
  Rng rng(seed);
  for (std::size_t i = 0; i < num_sets; ++i) {
    std::vector<NodeId> set;
    while (set.size() < size) {
      const NodeId v = static_cast<NodeId>(rng.UniformInt(n));
      if (std::find(set.begin(), set.end(), v) == set.end()) {
        set.push_back(v);
      }
    }
    collection.Add(set, /*hit_sentinel=*/i % 7 == 0);
  }
  collection.IndexNewSets();
  return collection;
}

/// Out-degrees (v * 7) % 3: a third of the nodes at each of 0, 1 and 2, so
/// the out-degree tie-break leaves ids to settle most ties.
Graph ThreeDegreeGraph(NodeId n) {
  GraphBuilder builder(n);
  for (NodeId v = 0; v < n; ++v) {
    for (NodeId j = 1; j <= (v * 7) % 3; ++j) {
      builder.AddEdge(v, (v + 11 * j) % n, 0.5);
    }
  }
  return std::move(builder).Build().value();
}

// 1500 sets of 10 nodes over 3000 nodes: each node sits in about 5 sets,
// so every marginal level from 3 to 7 holds 300-530 nodes. With k = 25 to
// 400 the heap's first band (4k + 256 nodes) ends inside one of those
// levels, and selections take band nodes down onto the level just below
// its threshold, where hundreds of nodes outside the band already sit.
// Selecting one of the band's before admitting the next band picks the
// wrong member of the tie: a copy that admits one level late fails here
// under both tie-breaks. k = 3000 runs into the zero-gain tail.
TEST(GreedyDifferentialTest, TiesAtBandThresholdsMatchReference) {
  constexpr NodeId kNodes = 3000;
  const Graph graph = ThreeDegreeGraph(kNodes);
  const RrCollection collection = UniformSets(kNodes, 1500, 10, 99);
  // The same 1500 sets followed by 1500 more.
  const RrCollection longer = UniformSets(kNodes, 3000, 10, 99);
  const std::vector<NodeId> excluded = {0, 1, 2, 1500};
  for (const bool tie_break : {false, true}) {
    for (const bool exclude : {false, true}) {
      for (const std::uint32_t k : {25u, 50u, 100u, 200u, 400u, 3000u}) {
        SCOPED_TRACE(::testing::Message() << "tie-break " << tie_break
                                          << " exclude " << exclude << " k "
                                          << k);
        CoverageGreedyOptions options;
        options.k = k;
        options.tie_break_by_out_degree = tie_break;
        options.graph = tie_break ? &graph : nullptr;
        options.exclude_sentinel_hit_sets = exclude;
        if (exclude) {
          options.excluded_nodes = excluded;
        }
        ExpectSameResult(RunCoverageGreedy(collection, options),
                         RunReferenceCoverageGreedy(collection, options));
        // The same sets as the first half of a longer collection: a
        // sparse singleton pass over the same ties.
        ExpectSameResult(RunCoverageGreedy(longer.Prefix(1500), options),
                         RunReferenceCoverageGreedy(collection, options));
      }
    }
  }
}

// k past every positive-marginal node: the first band holds every one of
// them, most fall to 0 as their sets are covered, and each must still be
// taken in the zero-gain tail in (out-degree, id) order, not skipped for
// having been in the heap.
TEST(GreedyDifferentialTest, BandedNodesAtZeroReachTheTail) {
  constexpr NodeId kNodes = 3000;
  const Graph graph = ThreeDegreeGraph(kNodes);
  const RrCollection collection = UniformSets(kNodes, 150, 3, 7);
  const std::vector<NodeId> excluded = {3, 4};
  for (const bool tie_break : {false, true}) {
    for (const bool exclude : {false, true}) {
      SCOPED_TRACE(::testing::Message() << "tie-break " << tie_break
                                        << " exclude " << exclude);
      CoverageGreedyOptions options;
      options.k = 1000;
      options.tie_break_by_out_degree = tie_break;
      options.graph = tie_break ? &graph : nullptr;
      options.exclude_sentinel_hit_sets = exclude;
      if (exclude) {
        options.excluded_nodes = excluded;
      }
      const CoverageGreedyResult fast = RunCoverageGreedy(collection, options);
      ExpectSameResult(fast, RunReferenceCoverageGreedy(collection, options));
      ASSERT_EQ(fast.seeds.size(), 1000u);
      EXPECT_EQ(fast.gains.back(), 0u);
    }
  }
}

}  // namespace
}  // namespace subsim
