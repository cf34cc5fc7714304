// Differential kernel-equivalence suite: the scalar per-set generators
// are the reference semantics, and the frontier-batched kernel must
// reproduce their output *byte for byte* — same nodes, same within-set
// order, same sentinel hits — for every generator kind, with and without
// sentinels, at every thread count. This is the contract that makes
// `FillKernel` a pure execution knob (and lets `kAuto` default to the
// batched kernel without changing a single published number). CI runs
// this binary in Release and ASan+UBSan with SUBSIM_TEST_THREADS=1 and
// =4 appended to the default sweep.
#include <algorithm>
#include <cstdlib>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "subsim/algo/registry.h"
#include "subsim/graph/generators.h"
#include "subsim/graph/graph_builder.h"
#include "subsim/graph/weight_models.h"
#include "subsim/rrset/batch_kernel.h"
#include "subsim/rrset/generator_factory.h"
#include "subsim/rrset/parallel_fill.h"

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

// Exponential weights (per-node rescaled to sum 1) make most in-rows
// skew-weighted, driving the kSmallNaive / kGeneral plans the WC graph
// never exercises — while staying LT-legal (in-sums are exactly 1).
Graph SkewedGraph() {
  Result<EdgeList> list = GenerateBarabasiAlbert(900, 5, true, 19);
  EXPECT_TRUE(list.ok());
  WeightModelParams params;
  params.seed = 23;
  EXPECT_TRUE(
      AssignWeights(WeightModel::kExponential, params, &list.value()).ok());
  Result<Graph> graph = BuildGraph(std::move(list).value());
  EXPECT_TRUE(graph.ok());
  return std::move(graph).value();
}

// High influence, HIST's regime: RR sets average hundreds of nodes, so
// the batched kernel's in-flight sets share many of the nodes they visit.
// The IC kinds read WC-variant weights (theta = 1.5, supercritical on this
// graph). LT caps a node's in-weights at a sum of 1, so it reads WC
// weights on a denser directed graph, where a live-edge walk runs until
// it revisits a node.
Graph HighInfluenceGraph(GeneratorKind kind) {
  const bool lt = kind == GeneratorKind::kLt;
  Result<EdgeList> list = lt ? GenerateErdosRenyi(40000, 400000, 29)
                             : GenerateBarabasiAlbert(3000, 4, true, 7);
  EXPECT_TRUE(list.ok());
  WeightModelParams params;
  params.wc_variant_theta = 1.5;
  EXPECT_TRUE(AssignWeights(lt ? WeightModel::kLinearThreshold
                               : WeightModel::kWcVariant,
                            params, &list.value())
                  .ok());
  Result<Graph> graph = BuildGraph(std::move(list).value());
  EXPECT_TRUE(graph.ok());
  return std::move(graph).value();
}

const Graph& SharedWcGraph() {
  static const Graph* const kGraph = new Graph(WcGraph());
  return *kGraph;
}

const Graph& SharedSkewedGraph() {
  static const Graph* const kGraph = new Graph(SkewedGraph());
  return *kGraph;
}

const Graph& SharedHighInfluenceGraph(GeneratorKind kind) {
  if (kind == GeneratorKind::kLt) {
    static const Graph* const kLtGraph =
        new Graph(HighInfluenceGraph(GeneratorKind::kLt));
    return *kLtGraph;
  }
  static const Graph* const kIcGraph =
      new Graph(HighInfluenceGraph(GeneratorKind::kSubsimIc));
  return *kIcGraph;
}

std::vector<unsigned> ThreadSweep() {
  std::vector<unsigned> sweep = {1, 2, 8};
  if (const char* env = std::getenv("SUBSIM_TEST_THREADS")) {
    const int extra = std::atoi(env);
    if (extra > 0) {
      sweep.push_back(static_cast<unsigned>(extra));
    }
  }
  return sweep;
}

RrCollection FillWith(const Graph& graph, GeneratorKind kind,
                      FillKernel kernel, unsigned num_threads,
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
  request.kernel = kernel;
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
}

std::vector<NodeId> EveryNthNode(const Graph& graph, NodeId n) {
  std::vector<NodeId> sentinels;
  for (NodeId v = 0; v < graph.num_nodes(); v += n) {
    sentinels.push_back(v);
  }
  return sentinels;
}

std::vector<NodeId> EveryEleventhNode(const Graph& graph) {
  return EveryNthNode(graph, 11);
}

// Sparse enough that many high-influence sets still grow to hundreds of
// nodes before a sentinel stops them.
std::vector<NodeId> SparseSentinels(const Graph& graph) {
  return EveryNthNode(graph, 499);
}

class KernelEquivalenceTest : public ::testing::TestWithParam<GeneratorKind> {
};

TEST_P(KernelEquivalenceTest, BatchedMatchesScalarOnWcGraph) {
  const Graph& graph = SharedWcGraph();
  const RrCollection reference =
      FillWith(graph, GetParam(), FillKernel::kScalar, 1);
  for (unsigned threads : ThreadSweep()) {
    SCOPED_TRACE("threads=" + std::to_string(threads));
    ExpectIdentical(reference,
                    FillWith(graph, GetParam(), FillKernel::kBatched, threads));
  }
}

TEST_P(KernelEquivalenceTest, BatchedMatchesScalarOnSkewedGraph) {
  const Graph& graph = SharedSkewedGraph();
  const RrCollection reference =
      FillWith(graph, GetParam(), FillKernel::kScalar, 1);
  for (unsigned threads : ThreadSweep()) {
    SCOPED_TRACE("threads=" + std::to_string(threads));
    ExpectIdentical(reference,
                    FillWith(graph, GetParam(), FillKernel::kBatched, threads));
  }
}

TEST_P(KernelEquivalenceTest, BatchedMatchesScalarWithSentinels) {
  // Sentinel fills flip the batched kernels onto their inline (stop-aware)
  // expansion paths; truncation must land on the identical node.
  const Graph& graph = SharedWcGraph();
  const std::vector<NodeId> sentinels = EveryEleventhNode(graph);
  const RrCollection reference =
      FillWith(graph, GetParam(), FillKernel::kScalar, 1, sentinels);
  EXPECT_GT(reference.num_hit_sentinel(), 0u);
  for (unsigned threads : ThreadSweep()) {
    SCOPED_TRACE("threads=" + std::to_string(threads));
    ExpectIdentical(reference, FillWith(graph, GetParam(),
                                        FillKernel::kBatched, threads,
                                        sentinels));
  }
}

TEST_P(KernelEquivalenceTest, BatchedMatchesScalarWithSentinelsSkewed) {
  const Graph& graph = SharedSkewedGraph();
  const std::vector<NodeId> sentinels = EveryEleventhNode(graph);
  const RrCollection reference =
      FillWith(graph, GetParam(), FillKernel::kScalar, 1, sentinels);
  EXPECT_GT(reference.num_hit_sentinel(), 0u);
  for (unsigned threads : ThreadSweep()) {
    SCOPED_TRACE("threads=" + std::to_string(threads));
    ExpectIdentical(reference, FillWith(graph, GetParam(),
                                        FillKernel::kBatched, threads,
                                        sentinels));
  }
}

TEST_P(KernelEquivalenceTest, BatchedMatchesScalarOnHighInfluenceGraph) {
  const Graph& graph = SharedHighInfluenceGraph(GetParam());
  const RrCollection reference =
      FillWith(graph, GetParam(), FillKernel::kScalar, 1);
  EXPECT_GE(reference.average_size(), 200.0);
  for (unsigned threads : ThreadSweep()) {
    SCOPED_TRACE("threads=" + std::to_string(threads));
    ExpectIdentical(reference,
                    FillWith(graph, GetParam(), FillKernel::kBatched, threads));
  }
}

TEST_P(KernelEquivalenceTest, BatchedMatchesScalarWithSentinelsHighInfluence) {
  const Graph& graph = SharedHighInfluenceGraph(GetParam());
  const std::vector<NodeId> sentinels = SparseSentinels(graph);
  const RrCollection reference =
      FillWith(graph, GetParam(), FillKernel::kScalar, 1, sentinels);
  EXPECT_GT(reference.num_hit_sentinel(), 0u);
  EXPECT_LT(reference.num_hit_sentinel(), reference.num_sets());
  for (unsigned threads : ThreadSweep()) {
    SCOPED_TRACE("threads=" + std::to_string(threads));
    ExpectIdentical(reference, FillWith(graph, GetParam(),
                                        FillKernel::kBatched, threads,
                                        sentinels));
  }
}

// One kernel across many chunks, as a fill worker uses it. A set that left
// its lane's visited bit on a node would hide that node from every later
// set seeded into the same lane, so the chunks vary in size (fewer and
// more sets than there are lanes) and switch sentinels on and off, and
// every set must still match the scalar generator on its own substream.
TEST_P(KernelEquivalenceTest, OneKernelAcrossManyChunksMatchesScalar) {
  const Graph& graph = SharedHighInfluenceGraph(GetParam());
  const std::vector<NodeId> sentinels = SparseSentinels(graph);
  Result<std::unique_ptr<RrGenerator>> scalar =
      MakeRrGenerator(GetParam(), graph);
  ASSERT_TRUE(scalar.ok());
  // SUBSIM-NOLINT-NEXTLINE(fill-entry-point): tests one kernel's chunk-to-chunk state
  auto batched = BatchRrKernel::Create(GetParam(), graph);
  ASSERT_TRUE(batched.ok());

  constexpr std::uint64_t kBaseSeed = 0x5eed;
  std::uint64_t first_index = 0;
  std::vector<NodeId> nodes;
  std::vector<std::uint32_t> sizes;
  std::vector<std::uint8_t> hits;
  std::vector<NodeId> expected;
  std::size_t hit_sets = 0;
  for (std::size_t chunk = 0; chunk < 24; ++chunk) {
    SCOPED_TRACE("chunk=" + std::to_string(chunk));
    const std::span<const NodeId> installed =
        chunk % 3 == 1 ? std::span<const NodeId>(sentinels)
                       : std::span<const NodeId>();
    (*scalar)->SetSentinels(installed);
    (*batched)->SetSentinels(installed);
    const std::size_t count = 1 + (chunk * 37) % 97;
    nodes.clear();
    sizes.clear();
    hits.clear();
    // SUBSIM-NOLINT-NEXTLINE(fill-entry-point): tests one kernel's chunk-to-chunk state
    (*batched)->GenerateChunk(kBaseSeed, first_index, count,
                              {&nodes, &sizes, &hits});
    ASSERT_EQ(sizes.size(), count);
    std::size_t offset = 0;
    for (std::size_t i = 0; i < count; ++i) {
      Rng rng = Rng::Substream(kBaseSeed, first_index + i);
      const bool hit = (*scalar)->Generate(rng, &expected);
      ASSERT_EQ(sizes[i], expected.size()) << "set " << first_index + i;
      ASSERT_TRUE(std::equal(expected.begin(), expected.end(),
                             nodes.begin() + offset))
          << "set " << first_index + i;
      ASSERT_EQ(hits[i] != 0, hit) << "set " << first_index + i;
      offset += sizes[i];
      hit_sets += hit ? 1 : 0;
    }
    first_index += count;
  }
  EXPECT_GT(hit_sets, 0u);
}

TEST_P(KernelEquivalenceTest, AutoResolvesToBatched) {
  EXPECT_EQ(ResolveFillKernel(FillKernel::kAuto), FillKernel::kBatched);
  const Graph& graph = SharedWcGraph();
  ExpectIdentical(FillWith(graph, GetParam(), FillKernel::kAuto, 1),
                  FillWith(graph, GetParam(), FillKernel::kBatched, 1));
}

INSTANTIATE_TEST_SUITE_P(AllGenerators, KernelEquivalenceTest,
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

// End-to-end: every registered RR-based algorithm must select the same
// seed set (and report the same spread and set counts) whichever kernel
// generated its samples — the kernel can never leak into results.
class AlgorithmKernelEquivalenceTest
    : public ::testing::TestWithParam<std::string> {};

TEST_P(AlgorithmKernelEquivalenceTest, SelectedSeedsIdenticalAcrossKernels) {
  const auto algorithm = MakeImAlgorithm(GetParam());
  ASSERT_TRUE(algorithm.ok());
  const Graph& graph = SharedWcGraph();

  ImOptions options;
  options.k = 8;
  options.epsilon = 0.3;
  options.rng_seed = 13;

  options.fill_kernel = FillKernel::kScalar;
  const Result<ImResult> reference = (*algorithm)->Run(graph, options);
  ASSERT_TRUE(reference.ok()) << reference.status().ToString();

  for (FillKernel kernel : {FillKernel::kBatched, FillKernel::kAuto}) {
    SCOPED_TRACE(std::string("kernel=") + FillKernelName(kernel));
    options.fill_kernel = kernel;
    const Result<ImResult> result = (*algorithm)->Run(graph, options);
    ASSERT_TRUE(result.ok()) << result.status().ToString();
    EXPECT_EQ(reference->seeds, result->seeds);
    EXPECT_EQ(reference->num_rr_sets, result->num_rr_sets);
    EXPECT_EQ(reference->total_rr_nodes, result->total_rr_nodes);
    EXPECT_DOUBLE_EQ(reference->estimated_spread, result->estimated_spread);
  }
}

INSTANTIATE_TEST_SUITE_P(AllRrAlgorithms, AlgorithmKernelEquivalenceTest,
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
