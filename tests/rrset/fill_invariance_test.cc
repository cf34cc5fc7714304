// Thread-invariance suite: the contract that `num_threads` is a pure
// execution knob. Every RR sample stream — and therefore every selected
// seed set — must be byte-identical for any thread count, including
// 0 (auto-detect). CI runs this binary under SUBSIM_TEST_THREADS=1 and
// =4 to pin the sweep on known counts; the env value is appended to the
// default {1, 2, 5, 0} sweep.
#include <cstdlib>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "subsim/algo/registry.h"
#include "subsim/graph/generators.h"
#include "subsim/graph/graph_builder.h"
#include "subsim/graph/weight_models.h"
#include "subsim/rrset/parallel_fill.h"
#include "index_equality.h"

namespace subsim {
namespace {

Graph WcGraph() {
  Result<EdgeList> list = GenerateBarabasiAlbert(1200, 4, true, 7);
  EXPECT_TRUE(list.ok());
  EXPECT_TRUE(
      AssignWeights(WeightModel::kWeightedCascade, {}, &list.value()).ok());
  Result<Graph> graph = BuildGraph(std::move(list).value());
  EXPECT_TRUE(graph.ok());
  return std::move(graph).value();
}

std::vector<unsigned> ThreadSweep() {
  std::vector<unsigned> sweep = {1, 2, 5, 0};
  if (const char* env = std::getenv("SUBSIM_TEST_THREADS")) {
    const int extra = std::atoi(env);
    if (extra > 0) {
      sweep.push_back(static_cast<unsigned>(extra));
    }
  }
  return sweep;
}

RrCollection FillWith(const Graph& graph, GeneratorKind kind,
                      unsigned num_threads,
                      std::span<const NodeId> sentinels = {}) {
  RrCollection collection(graph.num_nodes());
  RngStream rng = MakeRngStream(91, 1);
  FillRequest request;
  request.kind = kind;
  request.graph = &graph;
  request.rng = &rng;
  request.count = 3000;
  request.num_threads = num_threads;
  request.sentinels = sentinels;
  EXPECT_TRUE(FillCollection(request, &collection).ok());
  return collection;
}

void ExpectIdentical(const RrCollection& a, const RrCollection& b) {
  ASSERT_EQ(a.num_sets(), b.num_sets());
  ASSERT_EQ(a.total_nodes(), b.total_nodes());
  ASSERT_EQ(a.num_hit_sentinel(), b.num_hit_sentinel());
  for (RrId id = 0; id < a.num_sets(); ++id) {
    const auto sa = a.View(id).ToVector();
    const auto sb = b.View(id).ToVector();
    ASSERT_EQ(sa.size(), sb.size()) << "set " << id;
    for (std::size_t i = 0; i < sa.size(); ++i) {
      ASSERT_EQ(sa[i], sb[i]) << "set " << id << " pos " << i;
    }
  }
  ASSERT_NO_FATAL_FAILURE(ExpectSameIndex(a, b));
}

const Graph& SharedGraph() {
  static const Graph* const kGraph = new Graph(WcGraph());
  return *kGraph;
}

class FillInvarianceTest : public ::testing::TestWithParam<GeneratorKind> {};

TEST_P(FillInvarianceTest, CollectionsIdenticalAcrossThreadCounts) {
  const Graph& graph = SharedGraph();
  const RrCollection reference = FillWith(graph, GetParam(), 1);
  for (unsigned threads : ThreadSweep()) {
    SCOPED_TRACE("threads=" + std::to_string(threads));
    ExpectIdentical(reference, FillWith(graph, GetParam(), threads));
  }
}

TEST_P(FillInvarianceTest, SentinelFillsIdenticalAcrossThreadCounts) {
  // The HIST sentinel phase fills with hit-and-stop truncation; the
  // truncated streams must be as invariant as the plain ones.
  const Graph& graph = SharedGraph();
  std::vector<NodeId> sentinels;
  for (NodeId v = 0; v < graph.num_nodes(); v += 11) {
    sentinels.push_back(v);
  }
  const RrCollection reference = FillWith(graph, GetParam(), 1, sentinels);
  EXPECT_GT(reference.num_hit_sentinel(), 0u);
  for (unsigned threads : ThreadSweep()) {
    SCOPED_TRACE("threads=" + std::to_string(threads));
    ExpectIdentical(reference, FillWith(graph, GetParam(), threads, sentinels));
  }
}

INSTANTIATE_TEST_SUITE_P(AllGenerators, FillInvarianceTest,
                         ::testing::Values(GeneratorKind::kVanillaIc,
                                           GeneratorKind::kSubsimIc,
                                           GeneratorKind::kLt),
                         [](const auto& info) {
                           switch (info.param) {
                             case GeneratorKind::kVanillaIc:
                               return "vanilla_ic";
                             case GeneratorKind::kSubsimIc:
                               return "subsim_ic";
                             case GeneratorKind::kLt:
                               return "lt";
                           }
                           return "unknown";
                         });

class AlgorithmInvarianceTest : public ::testing::TestWithParam<std::string> {
};

TEST_P(AlgorithmInvarianceTest, SelectedSeedsIdenticalAcrossThreadCounts) {
  const auto algorithm = MakeImAlgorithm(GetParam());
  ASSERT_TRUE(algorithm.ok());
  const Graph& graph = SharedGraph();

  ImOptions options;
  options.k = 8;
  options.epsilon = 0.3;
  options.rng_seed = 13;

  options.num_threads = 1;
  const Result<ImResult> reference = (*algorithm)->Run(graph, options);
  ASSERT_TRUE(reference.ok()) << reference.status().ToString();

  for (unsigned threads : ThreadSweep()) {
    SCOPED_TRACE("threads=" + std::to_string(threads));
    options.num_threads = threads;
    const Result<ImResult> result = (*algorithm)->Run(graph, options);
    ASSERT_TRUE(result.ok()) << result.status().ToString();
    EXPECT_EQ(reference->seeds, result->seeds);
    EXPECT_EQ(reference->num_rr_sets, result->num_rr_sets);
    EXPECT_EQ(reference->total_rr_nodes, result->total_rr_nodes);
    EXPECT_DOUBLE_EQ(reference->estimated_spread, result->estimated_spread);
  }
}

INSTANTIATE_TEST_SUITE_P(AllRrAlgorithms, AlgorithmInvarianceTest,
                         ::testing::Values("imm", "tim+", "opim-c", "ssa",
                                           "hist"),
                         [](const auto& info) {
                           std::string name = info.param;
                           for (char& c : name) {
                             if (!std::isalnum(static_cast<unsigned char>(c))) {
                               c = '_';
                             }
                           }
                           return name;
                         });

}  // namespace
}  // namespace subsim
