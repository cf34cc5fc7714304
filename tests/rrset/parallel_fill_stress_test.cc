// Stress test for the chunked FillCollection scheduler aimed at
// ThreadSanitizer builds (-DSUBSIM_SANITIZE=thread): it sweeps thread
// counts, races several fills against one shared graph, and checks that
// the counter-based substreams keep every thread count byte-identical.
// It also races the first Revised-Greedy calls on a fresh graph against
// the lazy build of the graph's zero-gain order.
#include "subsim/rrset/parallel_fill.h"

#include <gtest/gtest.h>

#include <algorithm>
// SUBSIM-NOLINT-NEXTLINE(raw-thread): stress test races FillCollection on purpose
#include <thread>
#include <vector>

#include "subsim/coverage/max_coverage.h"
#include "subsim/graph/generators.h"
#include "subsim/graph/graph_builder.h"
#include "subsim/graph/weight_models.h"

namespace subsim {
namespace {

Graph StressGraph() {
  Result<EdgeList> list = GenerateBarabasiAlbert(2000, 5, true, 17);
  EXPECT_TRUE(list.ok());
  EXPECT_TRUE(
      AssignWeights(WeightModel::kWeightedCascade, {}, &list.value()).ok());
  Result<Graph> graph = BuildGraph(std::move(list).value());
  EXPECT_TRUE(graph.ok());
  return std::move(graph).value();
}

std::vector<unsigned> ThreadCounts() {
  // SUBSIM-NOLINT-NEXTLINE(raw-thread): probing core count, not spawning
  unsigned hardware = std::thread::hardware_concurrency();
  if (hardware == 0) {
    hardware = 2;
  }
  return {1u, 2u, hardware, 0u};  // 0 = auto-detect, same stream contract
}

RrCollection Fill(const Graph& graph, GeneratorKind kind, std::uint64_t seed,
                  unsigned threads, std::size_t count,
                  std::span<const NodeId> sentinels = {}) {
  RrCollection collection(graph.num_nodes());
  RngStream rng = MakeRngStream(seed, 1);
  FillRequest request;
  request.kind = kind;
  request.graph = &graph;
  request.rng = &rng;
  request.count = count;
  request.num_threads = threads;
  request.sentinels = sentinels;
  EXPECT_TRUE(FillCollection(request, &collection).ok());
  EXPECT_EQ(rng.next_index, count);
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

TEST(ParallelFillStressTest, ByteIdenticalAcrossThreadCounts) {
  // The headline contract: each RR set is a pure function of
  // (base_seed, set_index), so the thread count cannot leak into results.
  const Graph graph = StressGraph();
  for (GeneratorKind kind :
       {GeneratorKind::kVanillaIc, GeneratorKind::kSubsimIc}) {
    const RrCollection reference = Fill(graph, kind, 23, 1, 1500);
    EXPECT_EQ(reference.num_sets(), 1500u);
    EXPECT_GE(reference.total_nodes(), 1500u);  // every set has its root
    for (unsigned threads : ThreadCounts()) {
      SCOPED_TRACE(threads);
      ExpectIdentical(reference, Fill(graph, kind, 23, threads, 1500));
    }
  }
}

TEST(ParallelFillStressTest, DistinctSeedsDiverge) {
  const Graph graph = StressGraph();
  const RrCollection a = Fill(graph, GeneratorKind::kSubsimIc, 41, 2, 1200);
  const RrCollection b = Fill(graph, GeneratorKind::kSubsimIc, 42, 2, 1200);
  ASSERT_EQ(a.num_sets(), b.num_sets());
  std::size_t differing = 0;
  for (RrId id = 0; id < a.num_sets(); ++id) {
    const auto sa = a.View(id).ToVector();
    const auto sb = b.View(id).ToVector();
    if (sa.size() != sb.size() ||
        !std::equal(sa.begin(), sa.end(), sb.begin())) {
      ++differing;
    }
  }
  EXPECT_GT(differing, 0u);
}

/// Races several FillCollection invocations of `kind` on one shared
/// (read-only) graph, then checks each against the same fill run alone.
void RaceFills(const Graph& graph, GeneratorKind kind) {
  const std::size_t count = 800;
  const unsigned kConcurrentFills = 4;

  std::vector<RrCollection> results;
  results.reserve(kConcurrentFills);
  for (unsigned i = 0; i < kConcurrentFills; ++i) {
    results.emplace_back(graph.num_nodes());
  }
  {
    // SUBSIM-NOLINT-NEXTLINE(raw-thread): races whole FillCollection calls
    std::vector<std::thread> fills;
    fills.reserve(kConcurrentFills);
    for (unsigned i = 0; i < kConcurrentFills; ++i) {
      fills.emplace_back([&graph, &results, kind, count, i] {
        RngStream rng = MakeRngStream(100 + i, 1);
        FillRequest request;
        request.kind = kind;
        request.graph = &graph;
        request.rng = &rng;
        request.count = count;
        request.num_threads = 2;
        const Status status = FillCollection(request, &results[i]);
        EXPECT_TRUE(status.ok()) << status.ToString();
      });
    }
    // SUBSIM-NOLINT-NEXTLINE(raw-thread): joining the racing fills
    for (std::thread& t : fills) {
      t.join();
    }
  }
  for (unsigned i = 0; i < kConcurrentFills; ++i) {
    ASSERT_EQ(results[i].num_sets(), count) << "fill " << i;
    // Each concurrent result must equal the same fill run in isolation.
    const RrCollection isolated = Fill(graph, kind, 100 + i, 2, count);
    ExpectIdentical(results[i], isolated);
  }
}

TEST(ParallelFillStressTest, ConcurrentFillsShareGraphSafely) {
  // Under TSan this exercises graph reads, generator construction, chunk
  // claiming, and the substream derivation from every worker thread at
  // once; determinism must survive.
  RaceFills(StressGraph(), GeneratorKind::kSubsimIc);

  // The first fills on a fresh graph also race the lazy build of its
  // shared sampling state (Graph::Derived): SUBSIM's plans over skewed
  // rows (exponential weights) and LT's pick records with their alias
  // tables.
  for (GeneratorKind kind : {GeneratorKind::kVanillaIc,
                             GeneratorKind::kSubsimIc, GeneratorKind::kLt}) {
    SCOPED_TRACE(GeneratorKindName(kind));
    Result<EdgeList> list = GenerateBarabasiAlbert(2000, 5, false, 19);
    ASSERT_TRUE(list.ok());
    ASSERT_TRUE(
        AssignWeights(WeightModel::kExponential, {}, &list.value()).ok());
    Result<Graph> fresh = BuildGraph(std::move(list).value());
    ASSERT_TRUE(fresh.ok());
    RaceFills(*fresh, kind);
  }
}

TEST(ParallelFillStressTest, ConcurrentRevisedGreedyRacesZeroGainOrderBuild) {
  // Revised-Greedy's zero-gain order is built lazily once per graph
  // (Graph::Derived). The first greedy calls on a fresh graph race that
  // build: all must see the one order and select identically.
  const Graph graph = StressGraph();
  const RrCollection sets = Fill(graph, GeneratorKind::kSubsimIc, 91, 2, 40);
  CoverageGreedyOptions options;
  options.k = 300;  // past every positive gain of 40 sets
  options.tie_break_by_out_degree = true;
  options.graph = &graph;
  const std::uint64_t before = ZeroGainOrderConstructions();

  const unsigned kRacers = 4;
  std::vector<CoverageGreedyResult> results(kRacers);
  {
    // SUBSIM-NOLINT-NEXTLINE(raw-thread): races the order's lazy build
    std::vector<std::thread> racers;
    racers.reserve(kRacers);
    for (unsigned i = 0; i < kRacers; ++i) {
      racers.emplace_back([&sets, &options, &results, i] {
        results[i] = RunCoverageGreedy(sets, options);
      });
    }
    // SUBSIM-NOLINT-NEXTLINE(raw-thread): joining the racing greedy calls
    for (std::thread& t : racers) {
      t.join();
    }
  }
  EXPECT_EQ(ZeroGainOrderConstructions() - before, 1u);
  const CoverageGreedyResult reference = RunCoverageGreedy(sets, options);
  ASSERT_EQ(reference.seeds.size(), options.k);
  EXPECT_EQ(reference.gains.back(), 0u);
  for (unsigned i = 0; i < kRacers; ++i) {
    EXPECT_EQ(results[i].seeds, reference.seeds) << "racer " << i;
    EXPECT_EQ(results[i].gains, reference.gains) << "racer " << i;
  }
}

TEST(ParallelFillStressTest, SentinelHitsIdenticalAcrossThreadCounts) {
  // Sentinel truncation interacts with the scheduler (hit sets are short,
  // so chunks finish at very different speeds); the streams must still be
  // exactly invariant, not merely statistically close.
  const Graph graph = StressGraph();
  std::vector<NodeId> sentinels;
  for (NodeId v = 0; v < 50; ++v) {
    sentinels.push_back(v);
  }
  const RrCollection reference =
      Fill(graph, GeneratorKind::kSubsimIc, 55, 1, 1000, sentinels);
  EXPECT_GT(reference.num_hit_sentinel(), 0u);
  EXPECT_LE(reference.num_hit_sentinel(), 1000u);
  for (unsigned threads : ThreadCounts()) {
    SCOPED_TRACE(threads);
    ExpectIdentical(reference, Fill(graph, GeneratorKind::kSubsimIc, 55,
                                    threads, 1000, sentinels));
  }
}

TEST(ParallelFillStressTest, ConcurrentBatchedFillsMatchScalarReference) {
  // The batched kernel keeps mutable per-kernel state (visited lane masks,
  // lane scratch, chunk arena); every worker owns a private kernel, so racing
  // whole batched fills — each itself multi-threaded — on one shared graph
  // must be data-race-free under TSan and byte-identical to the scalar
  // reference computed in isolation.
  const Graph graph = StressGraph();
  const std::size_t count = 700;
  const GeneratorKind kinds[] = {GeneratorKind::kVanillaIc,
                                 GeneratorKind::kSubsimIc, GeneratorKind::kLt,
                                 GeneratorKind::kVanillaIc};
  const unsigned kConcurrentFills = 4;

  std::vector<RrCollection> results;
  results.reserve(kConcurrentFills);
  for (unsigned i = 0; i < kConcurrentFills; ++i) {
    results.emplace_back(graph.num_nodes());
  }
  {
    // SUBSIM-NOLINT-NEXTLINE(raw-thread): races whole batched fills
    std::vector<std::thread> fills;
    fills.reserve(kConcurrentFills);
    for (unsigned i = 0; i < kConcurrentFills; ++i) {
      fills.emplace_back([&graph, &results, &kinds, count, i] {
        RngStream rng = MakeRngStream(200 + i, 1);
        FillRequest request;
        request.kind = kinds[i];
        request.graph = &graph;
        request.rng = &rng;
        request.count = count;
        request.num_threads = 3;
        request.kernel = FillKernel::kBatched;
        const Status status = FillCollection(request, &results[i]);
        EXPECT_TRUE(status.ok()) << status.ToString();
      });
    }
    // SUBSIM-NOLINT-NEXTLINE(raw-thread): joining the racing fills
    for (std::thread& t : fills) {
      t.join();
    }
  }
  for (unsigned i = 0; i < kConcurrentFills; ++i) {
    ASSERT_EQ(results[i].num_sets(), count) << "fill " << i;
    RrCollection isolated(graph.num_nodes());
    RngStream rng = MakeRngStream(200 + i, 1);
    FillRequest request;
    request.kind = kinds[i];
    request.graph = &graph;
    request.rng = &rng;
    request.count = count;
    request.num_threads = 1;
    request.kernel = FillKernel::kScalar;
    ASSERT_TRUE(FillCollection(request, &isolated).ok());
    ExpectIdentical(results[i], isolated);
  }
}

TEST(ParallelFillStressTest, ManySmallFillsKeepCursorConsistent) {
  // Hammer the scheduler with fills smaller than, equal to, and barely
  // above one chunk; the concatenation must equal one big fill.
  const Graph graph = StressGraph();
  const std::size_t pieces[] = {1, 63, 64, 65, 7, 128, 300, 62, 2, 318};
  RrCollection split(graph.num_nodes());
  RngStream rng = MakeRngStream(77, 1);
  std::size_t total = 0;
  for (std::size_t piece : pieces) {
    FillRequest request;
    request.kind = GeneratorKind::kSubsimIc;
    request.graph = &graph;
    request.rng = &rng;
    request.count = piece;
    request.num_threads = 4;
    ASSERT_TRUE(FillCollection(request, &split).ok());
    total += piece;
    ASSERT_EQ(rng.next_index, total);
  }
  ExpectIdentical(split, Fill(graph, GeneratorKind::kSubsimIc, 77, 2, total));
}

}  // namespace
}  // namespace subsim
