// Golden-checksum regression tests for the ordered RR sample streams.
//
// The FNV-1a checksum of a fill's concatenated (size, nodes...) stream is
// a portable constant: it depends only on the counter-based substreams and
// the generators' draw order, never on thread count, kernel, or platform.
// A change here means the published sample stream changed for everyone —
// goldens, cached sketches, and any recorded benchmark numbers are
// invalidated. Bump the constants only with a deliberate stream-breaking
// change (and say so in the commit message).
#include <cstdint>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "subsim/graph/generators.h"
#include "subsim/graph/graph_builder.h"
#include "subsim/graph/weight_models.h"
#include "subsim/rrset/parallel_fill.h"

namespace subsim {
namespace {

/// The graph axis. WC pins the uniform-row fast paths; the others pin
/// streams that read per-edge in-weights (skewed rows).
enum class GoldenGraph {
  kWc,           // every in-row uniform
  kTrivalency,   // skewed rows: SUBSIM's sorted index-free sampler
  kExponential,  // skewed rows summing to 1: LT alias tables
};

Graph BuildGoldenGraph(GoldenGraph which) {
  Result<EdgeList> list = GenerateBarabasiAlbert(1200, 4, true, 7);
  EXPECT_TRUE(list.ok());
  WeightModel model = WeightModel::kWeightedCascade;
  switch (which) {
    case GoldenGraph::kWc:
      break;
    case GoldenGraph::kTrivalency:
      model = WeightModel::kTrivalency;
      break;
    case GoldenGraph::kExponential:
      model = WeightModel::kExponential;
      break;
  }
  WeightModelParams params;
  params.seed = 11;
  EXPECT_TRUE(AssignWeights(model, params, &list.value()).ok());
  Result<Graph> graph = BuildGraph(std::move(list).value());
  EXPECT_TRUE(graph.ok());
  return std::move(graph).value();
}

const Graph& SharedGraph(GoldenGraph which) {
  static const Graph* const kGraphs[] = {
      new Graph(BuildGoldenGraph(GoldenGraph::kWc)),
      new Graph(BuildGoldenGraph(GoldenGraph::kTrivalency)),
      new Graph(BuildGoldenGraph(GoldenGraph::kExponential)),
  };
  return *kGraphs[static_cast<int>(which)];
}

/// FNV-1a over the fill's ordered stream: for each set, its size then its
/// nodes in traversal order. Folding the sizes in pins the set boundaries,
/// not just the node concatenation.
std::uint64_t StreamChecksum(const RrCollection& collection) {
  std::uint64_t hash = 1469598103934665603ull;  // FNV-1a offset basis
  const auto mix = [&hash](std::uint64_t v) {
    for (int i = 0; i < 8; ++i) {
      hash ^= (v >> (8 * i)) & 0xff;
      hash *= 1099511628211ull;  // FNV-1a prime
    }
  };
  for (RrId id = 0; id < collection.num_sets(); ++id) {
    const RrSetView set = collection.View(id);
    mix(set.size());
    set.ForEachNode([&](NodeId v) { mix(v); });
  }
  return hash;
}

std::uint64_t FillChecksum(GoldenGraph which, GeneratorKind kind,
                           FillKernel kernel) {
  const Graph& graph = SharedGraph(which);
  RrCollection collection(graph.num_nodes());
  RngStream rng = MakeRngStream(91, 1);
  FillRequest request;
  request.kind = kind;
  request.graph = &graph;
  request.rng = &rng;
  request.count = 2000;
  request.kernel = kernel;
  EXPECT_TRUE(FillCollection(request, &collection).ok());
  return StreamChecksum(collection);
}

struct GoldenCase {
  GoldenGraph graph;
  GeneratorKind kind;
  std::uint64_t checksum;
};

const char* KindName(GeneratorKind kind) {
  switch (kind) {
    case GeneratorKind::kVanillaIc:
      return "vanilla_ic";
    case GeneratorKind::kSubsimIc:
      return "subsim_ic";
    case GeneratorKind::kLt:
      return "lt";
  }
  return "unknown";
}

std::string CaseName(const ::testing::TestParamInfo<GoldenCase>& info) {
  switch (info.param.graph) {
    case GoldenGraph::kWc:
      return KindName(info.param.kind);
    case GoldenGraph::kTrivalency:
      return std::string("trivalency_") + KindName(info.param.kind);
    case GoldenGraph::kExponential:
      return std::string("exponential_") + KindName(info.param.kind);
  }
  return "unknown";
}

class RrStreamGoldenTest : public ::testing::TestWithParam<GoldenCase> {};

TEST_P(RrStreamGoldenTest, ScalarStreamMatchesGolden) {
  EXPECT_EQ(FillChecksum(GetParam().graph, GetParam().kind,
                         FillKernel::kScalar),
            GetParam().checksum);
}

TEST_P(RrStreamGoldenTest, BatchedStreamMatchesGolden) {
  EXPECT_EQ(FillChecksum(GetParam().graph, GetParam().kind,
                         FillKernel::kBatched),
            GetParam().checksum);
}

INSTANTIATE_TEST_SUITE_P(
    AllGenerators, RrStreamGoldenTest,
    ::testing::Values(
        GoldenCase{GoldenGraph::kWc, GeneratorKind::kVanillaIc,
                   12126458736621571501ull},
        GoldenCase{GoldenGraph::kWc, GeneratorKind::kSubsimIc,
                   13173061486508634654ull},
        GoldenCase{GoldenGraph::kWc, GeneratorKind::kLt,
                   14175589049819948338ull}),
    CaseName);

INSTANTIATE_TEST_SUITE_P(
    SkewedWeights, RrStreamGoldenTest,
    ::testing::Values(
        GoldenCase{GoldenGraph::kTrivalency, GeneratorKind::kVanillaIc,
                   11058420350337226886ull},
        GoldenCase{GoldenGraph::kTrivalency, GeneratorKind::kSubsimIc,
                   11829104392577524652ull},
        GoldenCase{GoldenGraph::kExponential, GeneratorKind::kLt,
                   8796951554699504084ull}),
    CaseName);

}  // namespace
}  // namespace subsim
