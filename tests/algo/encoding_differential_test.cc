// Storage-encoding invariance, end to end: every RR-based algorithm must
// select the same seeds and draw the same number of RR sets whether the
// arena stores raw discovery order or delta-varint blocks, across
// generator kinds and thread counts. The encoding is a pure storage knob —
// the sample stream and the inverted index never change — so any
// divergence here means a decode bug, not a tuning difference.

#include <gtest/gtest.h>

#include <cstdint>
#include <string>
#include <tuple>
#include <vector>

#include "subsim/algo/registry.h"
#include "subsim/graph/generators.h"
#include "subsim/graph/graph_builder.h"
#include "subsim/graph/weight_models.h"
#include "subsim/rrset/rr_encoding.h"

namespace subsim {
namespace {

Graph DiffGraph() {
  Result<EdgeList> list = GenerateBarabasiAlbert(800, 4, false, 19);
  EXPECT_TRUE(list.ok());
  EXPECT_TRUE(
      AssignWeights(WeightModel::kWeightedCascade, {}, &list.value()).ok());
  Result<Graph> graph = BuildGraph(std::move(list).value());
  EXPECT_TRUE(graph.ok());
  return std::move(graph).value();
}

const Graph& SharedDiffGraph() {
  static const Graph* const kGraph = new Graph(DiffGraph());
  return *kGraph;
}

using DiffCase = std::tuple<std::string, GeneratorKind, unsigned>;

class EncodingDifferentialTest
    : public ::testing::TestWithParam<DiffCase> {};

TEST_P(EncodingDifferentialTest, SeedsInvariantUnderEncoding) {
  const auto& [name, kind, threads] = GetParam();
  const auto algorithm = MakeImAlgorithm(name);
  ASSERT_TRUE(algorithm.ok());
  const Graph& graph = SharedDiffGraph();

  ImOptions options;
  options.k = 8;
  options.epsilon = 0.25;
  options.rng_seed = 1234;
  options.generator = kind;
  options.num_threads = threads;

  options.rr_encoding = RrEncoding::kRaw;
  const Result<ImResult> raw = (*algorithm)->Run(graph, options);
  ASSERT_TRUE(raw.ok()) << raw.status().ToString();

  options.rr_encoding = RrEncoding::kDeltaVarint;
  const Result<ImResult> delta = (*algorithm)->Run(graph, options);
  ASSERT_TRUE(delta.ok()) << delta.status().ToString();

  EXPECT_EQ(raw->seeds, delta->seeds);
  EXPECT_EQ(raw->num_rr_sets, delta->num_rr_sets);
  EXPECT_DOUBLE_EQ(raw->influence_lower_bound, delta->influence_lower_bound);
  EXPECT_DOUBLE_EQ(raw->optimal_upper_bound, delta->optimal_upper_bound);
}

INSTANTIATE_TEST_SUITE_P(
    AlgoByGeneratorByThreads, EncodingDifferentialTest,
    ::testing::Combine(
        ::testing::Values("imm", "opim-c", "ssa", "hist"),
        ::testing::Values(GeneratorKind::kVanillaIc,
                          GeneratorKind::kSubsimIc),
        ::testing::Values(1u, 8u)),
    [](const auto& info) {
      std::string name = std::get<0>(info.param);
      for (char& c : name) {
        if (!std::isalnum(static_cast<unsigned char>(c))) {
          c = '_';
        }
      }
      name += std::get<1>(info.param) == GeneratorKind::kSubsimIc
                  ? "_subsim"
                  : "_vanilla";
      name += "_t" + std::to_string(std::get<2>(info.param));
      return name;
    });

TEST(EncodingDifferentialTest, LtGeneratorAlsoInvariant) {
  // LT RR sets have a different shape (single live in-neighbour walks);
  // cover the third generator on one algorithm rather than the full grid.
  const Graph& graph = SharedDiffGraph();
  const auto algorithm = MakeImAlgorithm("imm");
  ASSERT_TRUE(algorithm.ok());
  ImOptions options;
  options.k = 5;
  options.epsilon = 0.3;
  options.rng_seed = 77;
  options.generator = GeneratorKind::kLt;

  options.rr_encoding = RrEncoding::kRaw;
  const Result<ImResult> raw = (*algorithm)->Run(graph, options);
  ASSERT_TRUE(raw.ok());
  options.rr_encoding = RrEncoding::kDeltaVarint;
  const Result<ImResult> delta = (*algorithm)->Run(graph, options);
  ASSERT_TRUE(delta.ok());
  EXPECT_EQ(raw->seeds, delta->seeds);
  EXPECT_EQ(raw->num_rr_sets, delta->num_rr_sets);
}

}  // namespace
}  // namespace subsim
