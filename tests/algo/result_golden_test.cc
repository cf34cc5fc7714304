// Golden checksums of what the RIS algorithms return.
//
// Each case pins one cold `ImAlgorithm::Run` on a fixed WC graph at a fixed
// rng seed: an FNV-1a hash of its ordered seeds, `num_rr_sets`,
// `total_rr_nodes` and `sentinel_size`. Only integers are hashed, so a libm
// that rounds a bound differently cannot move a constant unless it changes
// a decision. A change here means an algorithm now returns something else
// for the same input; refactors and deletions must leave every constant as
// it is.
#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "subsim/algo/registry.h"
#include "subsim/graph/generators.h"
#include "subsim/graph/graph_builder.h"
#include "subsim/graph/weight_models.h"

namespace subsim {
namespace {

const Graph& SharedWcGraph() {
  static const Graph* const kGraph = [] {
    Result<EdgeList> list = GenerateBarabasiAlbert(800, 4, true, 13);
    EXPECT_TRUE(list.ok());
    EXPECT_TRUE(
        AssignWeights(WeightModel::kWeightedCascade, {}, &list.value()).ok());
    Result<Graph> graph = BuildGraph(std::move(list).value());
    EXPECT_TRUE(graph.ok());
    return new Graph(std::move(graph).value());
  }();
  return *kGraph;
}

/// FNV-1a over the result's integer fields: the seed count, the seeds in
/// selection order, then the RR accounting.
std::uint64_t ResultChecksum(const ImResult& result) {
  std::uint64_t hash = 1469598103934665603ull;  // FNV-1a offset basis
  const auto mix = [&hash](std::uint64_t v) {
    for (int i = 0; i < 8; ++i) {
      hash ^= (v >> (8 * i)) & 0xff;
      hash *= 1099511628211ull;  // FNV-1a prime
    }
  };
  mix(result.seeds.size());
  for (const NodeId v : result.seeds) {
    mix(v);
  }
  mix(result.num_rr_sets);
  mix(result.total_rr_nodes);
  mix(result.sentinel_size);
  return hash;
}

struct GoldenCase {
  const char* algo;
  GeneratorKind generator;
  std::uint64_t rng_seed;
  std::uint64_t checksum;
};

std::string CaseName(const ::testing::TestParamInfo<GoldenCase>& info) {
  std::string name = info.param.algo;
  for (char& c : name) {
    if (c == '-') {
      c = '_';
    }
  }
  name += info.param.generator == GeneratorKind::kSubsimIc ? "_subsim"
                                                           : "_vanilla";
  return name + "_seed" + std::to_string(info.param.rng_seed);
}

class ResultGoldenTest : public ::testing::TestWithParam<GoldenCase> {};

TEST_P(ResultGoldenTest, ColdRunMatchesGolden) {
  const GoldenCase& golden = GetParam();
  const Result<std::unique_ptr<ImAlgorithm>> algorithm =
      MakeImAlgorithm(golden.algo);
  ASSERT_TRUE(algorithm.ok());
  ImOptions options;
  options.k = 8;
  options.epsilon = 0.2;
  options.rng_seed = golden.rng_seed;
  options.generator = golden.generator;
  const Result<ImResult> result = (*algorithm)->Run(SharedWcGraph(), options);
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  EXPECT_EQ(ResultChecksum(*result), golden.checksum)
      << "num_rr_sets " << result->num_rr_sets << ", total_rr_nodes "
      << result->total_rr_nodes << ", sentinel_size "
      << result->sentinel_size;
}

constexpr GeneratorKind kVanilla = GeneratorKind::kVanillaIc;
constexpr GeneratorKind kSubsim = GeneratorKind::kSubsimIc;

INSTANTIATE_TEST_SUITE_P(
    RisAlgorithms, ResultGoldenTest,
    ::testing::Values(
        GoldenCase{"imm", kVanilla, 5, 10501156764772427941ull},
        GoldenCase{"imm", kSubsim, 5, 4368829673493669374ull},
        GoldenCase{"imm", kVanilla, 29, 4687470475877249154ull},
        GoldenCase{"imm", kSubsim, 29, 12317976628615037100ull},
        GoldenCase{"opim-c", kVanilla, 5, 3096824742626983868ull},
        GoldenCase{"opim-c", kSubsim, 5, 10214287047949513279ull},
        GoldenCase{"opim-c", kVanilla, 29, 11816250089900941798ull},
        GoldenCase{"opim-c", kSubsim, 29, 13521205038134625720ull},
        GoldenCase{"ssa", kVanilla, 5, 4467906279827307811ull},
        GoldenCase{"ssa", kSubsim, 5, 17923142922143913859ull},
        GoldenCase{"ssa", kVanilla, 29, 7078649668767234679ull},
        GoldenCase{"ssa", kSubsim, 29, 17801725584115876525ull},
        GoldenCase{"hist", kVanilla, 5, 3004196244869370956ull},
        GoldenCase{"hist", kSubsim, 5, 13046773229566301320ull},
        GoldenCase{"hist", kVanilla, 29, 11066134542749375161ull},
        GoldenCase{"hist", kSubsim, 29, 10309727586800256126ull}),
    CaseName);

}  // namespace
}  // namespace subsim
