// Micro-benchmarks (google-benchmark) for the hot kernels: RNG draws,
// geometric skips, alias-table sampling, subset sampling, RR-set
// generation (single-set and whole-fill, scalar vs batched kernel), and the
// exact greedy max-coverage pass over a fixed RR store.
// Useful for catching regressions in the primitives the figure-level
// numbers are built from.
//
// `--smoke` switches to a self-checking mode for CI: it times scalar vs
// batched fills per generator kind (min over repetitions), verifies the
// two kernels produce byte-identical collections, and fails if the
// batched kernel is slower than the scalar one, on a DRAM-resident graph
// and on a high-influence one whose RR sets run to hundreds of nodes. It
// also fails if storing and indexing a fill in an `RrCollection` costs
// too much next to the generation alone, if a fill into an unindexed
// collection costs about as much as one into an indexed collection, or if
// a fill pays for the graph's sampling plans again once they are built:
// per fill, or per worker thread. Last, it fails if a greedy call over a
// short prefix of a large store costs more than a small fraction of one
// over the whole store.

#include <benchmark/benchmark.h>

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstring>
#include <memory>
#include <utility>
#include <vector>

#include "subsim/benchsup/datasets.h"
#include "subsim/benchsup/experiment.h"
#include "subsim/coverage/max_coverage.h"
#include "subsim/graph/generators.h"
#include "subsim/graph/graph_builder.h"
#include "subsim/graph/weight_models.h"
#include "subsim/random/alias_table.h"
#include "subsim/random/geometric.h"
#include "subsim/random/rng.h"
#include "subsim/rrset/batch_kernel.h"
#include "subsim/rrset/parallel_fill.h"
#include "subsim/rrset/subsim_ic_generator.h"
#include "subsim/rrset/vanilla_ic_generator.h"
#include "subsim/sampling/inline_sampling.h"
#include "subsim/util/check.h"

namespace subsim {
namespace {

void BM_RngNextU64(benchmark::State& state) {
  Rng rng(1);
  for (auto _ : state) {
    benchmark::DoNotOptimize(rng.NextU64());
  }
}
BENCHMARK(BM_RngNextU64);

void BM_RngUniformInt(benchmark::State& state) {
  Rng rng(1);
  for (auto _ : state) {
    benchmark::DoNotOptimize(rng.UniformInt(1000000));
  }
}
BENCHMARK(BM_RngUniformInt);

void BM_GeometricSample(benchmark::State& state) {
  Rng rng(1);
  const double inv_log_q = GeometricInvLogQ(0.01);
  for (auto _ : state) {
    benchmark::DoNotOptimize(SampleGeometricFast(rng, inv_log_q));
  }
}
BENCHMARK(BM_GeometricSample);

void BM_AliasTableSample(benchmark::State& state) {
  std::vector<double> weights(state.range(0));
  Rng init(2);
  for (auto& w : weights) {
    w = init.NextDouble() + 0.01;
  }
  AliasTable table(weights);
  Rng rng(3);
  for (auto _ : state) {
    benchmark::DoNotOptimize(table.Sample(rng));
  }
}
BENCHMARK(BM_AliasTableSample)->Arg(16)->Arg(4096);

enum class SubsetKernel { kNaive, kGeometric };

/// One subset sample of h elements, all with probability 2/h, per
/// iteration.
void BM_SubsetSampler(benchmark::State& state, SubsetKernel kernel) {
  const std::size_t h = state.range(0);
  const std::vector<double> probs(h, 2.0 / static_cast<double>(h));
  const double inv_log_q = GeometricInvLogQ(probs.front());
  Rng rng(4);
  std::vector<std::uint32_t> out;
  const auto emit = [&out](std::uint32_t i) { out.push_back(i); };
  for (auto _ : state) {
    out.clear();
    switch (kernel) {
      case SubsetKernel::kNaive:
        SampleSubsetNaive(probs, rng, emit);
        break;
      case SubsetKernel::kGeometric:
        SampleUniformSubsetSkips(h, inv_log_q, rng, emit);
        break;
    }
    benchmark::DoNotOptimize(out.data());
  }
}
BENCHMARK_CAPTURE(BM_SubsetSampler, naive, SubsetKernel::kNaive)
    ->Arg(64)
    ->Arg(4096);
BENCHMARK_CAPTURE(BM_SubsetSampler, geometric, SubsetKernel::kGeometric)
    ->Arg(64)
    ->Arg(4096);

const Graph& BenchGraph() {
  static const Graph* const kGraph = [] {
    Result<EdgeList> list = GenerateBarabasiAlbert(50000, 10, false, 5);
    const Status weights =
        AssignWeights(WeightModel::kWeightedCascade, {}, &list.value());
    SUBSIM_CHECK(weights.ok(), "bench graph weights: %s",
                 weights.ToString().c_str());
    return new Graph(BuildGraph(std::move(list).value()).value());
  }();
  return *kGraph;
}

/// DRAM-resident WC graph for the fill benchmarks and the smoke guard:
/// 8M nodes / 80M edges puts the traversal working set (in-sources +
/// per-node descriptors + visited masks, ~500 MB) beyond any L3, which
/// is the regime the batched kernel is built for — its speedup is
/// memory-level parallelism across lanes, so on a cache-resident graph
/// (`BenchGraph`) it merely ties the scalar kernel while paying its
/// pipeline overhead. Built lazily: only the fill benchmarks and
/// `--smoke` pay the ~15 s construction.
const Graph& DramFillGraph() {
  static const Graph* const kGraph = [] {
    Result<EdgeList> list = GenerateBarabasiAlbert(8000000, 10, false, 5);
    const Status weights =
        AssignWeights(WeightModel::kWeightedCascade, {}, &list.value());
    SUBSIM_CHECK(weights.ok(), "fill graph weights: %s",
                 weights.ToString().c_str());
    return new Graph(BuildGraph(std::move(list).value()).value());
  }();
  return *kGraph;
}

void BM_RrGenerateVanilla(benchmark::State& state) {
  VanillaIcGenerator generator(BenchGraph());
  Rng rng(6);
  std::vector<NodeId> out;
  for (auto _ : state) {
    generator.Generate(rng, &out);
    benchmark::DoNotOptimize(out.data());
  }
}
BENCHMARK(BM_RrGenerateVanilla);

void BM_RrGenerateSubsim(benchmark::State& state) {
  SubsimIcGenerator generator(BenchGraph());
  Rng rng(6);
  std::vector<NodeId> out;
  for (auto _ : state) {
    generator.Generate(rng, &out);
    benchmark::DoNotOptimize(out.data());
  }
}
BENCHMARK(BM_RrGenerateSubsim);

// Whole-fill throughput, scalar vs batched kernel on the same stream —
// the pair of numbers behind the batched kernel's speedup claim. Runs on
// the DRAM-resident graph; expect ~1.4x for vanilla WC. Manual timing
// covers the `FillCollection` call only: constructing an `RrCollection`
// zero-fills its per-node index table (8M + 1 offsets and 8M merge counts,
// 96 MB; ~50 ms to build and free on a 4-vCPU Xeon VM), the same in both
// arms and scaling with the graph, not the fill, so wall-clocking it would
// bury the kernel difference. The
// per-fill kernel setup (worker scratch, lane masks) and the per-fill
// index merge stay inside the timed region and are amortized over a
// realistic per-fill set count: IMM-style theta on a graph this size is
// hundreds of thousands of sets.
void BM_Fill(benchmark::State& state, GeneratorKind kind, FillKernel kernel) {
  const Graph& graph = DramFillGraph();
  constexpr std::size_t kSetsPerIteration = 131072;
  std::uint64_t sets = 0;
  for (auto _ : state) {
    RrCollection collection(graph.num_nodes());
    RngStream stream = MakeRngStream(11, 1);
    const auto start = std::chrono::steady_clock::now();
    const Status status = FillCollection(
        {.kind = kind, .graph = &graph, .rng = &stream,
         .count = kSetsPerIteration, .num_threads = 1, .sentinels = {},
         .obs = {}, .kernel = kernel},
        &collection);
    const std::chrono::duration<double> elapsed =
        std::chrono::steady_clock::now() - start;
    SUBSIM_CHECK(status.ok(), "bench fill: %s", status.ToString().c_str());
    benchmark::DoNotOptimize(collection.total_nodes());
    state.SetIterationTime(elapsed.count());
    sets += kSetsPerIteration;
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(sets));
}
BENCHMARK_CAPTURE(BM_Fill, vanilla_scalar, GeneratorKind::kVanillaIc,
                  FillKernel::kScalar)
    ->UseManualTime();
BENCHMARK_CAPTURE(BM_Fill, vanilla_batched, GeneratorKind::kVanillaIc,
                  FillKernel::kBatched)
    ->UseManualTime();
BENCHMARK_CAPTURE(BM_Fill, subsim_scalar, GeneratorKind::kSubsimIc,
                  FillKernel::kScalar)
    ->UseManualTime();
BENCHMARK_CAPTURE(BM_Fill, subsim_batched, GeneratorKind::kSubsimIc,
                  FillKernel::kBatched)
    ->UseManualTime();
BENCHMARK_CAPTURE(BM_Fill, lt_scalar, GeneratorKind::kLt, FillKernel::kScalar)
    ->UseManualTime();
BENCHMARK_CAPTURE(BM_Fill, lt_batched, GeneratorKind::kLt,
                  FillKernel::kBatched)
    ->UseManualTime();

// Exact greedy (`RunCoverageGreedy`, one OPIM-C round's selection) over a
// fixed store, so the coverage layer has a number outside the trajectory
// benchmark. Two regimes: ~3-node vanilla WC sets on a 1M-node graph, where
// most nodes appear in no set and per-node set-up dominates; and SUBSIM
// sets on the 100K-node `pokec-s` stand-in, where the index is
// cache-resident and the lazy heap does the work. The graph is dropped once
// the store is filled.
const RrCollection* BuildGreedyStore(Result<EdgeList> list,
                                     GeneratorKind kind, std::size_t count) {
  SUBSIM_CHECK(list.ok(), "greedy store graph: %s",
               list.status().ToString().c_str());
  const Status weights =
      AssignWeights(WeightModel::kWeightedCascade, {}, &list.value());
  SUBSIM_CHECK(weights.ok(), "greedy store weights: %s",
               weights.ToString().c_str());
  const Graph graph = BuildGraph(std::move(list).value()).value();
  auto* store = new RrCollection(graph.num_nodes());
  RngStream stream = MakeRngStream(13, 1);
  const Status status = FillCollection(
      {.kind = kind, .graph = &graph, .rng = &stream, .count = count,
       .num_threads = 1, .sentinels = {}, .obs = {},
       .kernel = FillKernel::kAuto},
      store);
  SUBSIM_CHECK(status.ok(), "greedy store fill: %s",
               status.ToString().c_str());
  return store;
}

const RrCollection& SparseGreedyStore() {
  static const RrCollection* const kStore =
      BuildGreedyStore(GenerateBarabasiAlbert(1000000, 10, false, 5),
                       GeneratorKind::kVanillaIc, 20000);
  return *kStore;
}

const RrCollection& CacheResidentGreedyStore() {
  static const RrCollection* const kStore = BuildGreedyStore(
      MakeDataset(FindDataset("pokec-s").value(), 1.0, 7),
      GeneratorKind::kSubsimIc, 100000);
  return *kStore;
}

void BM_CoverageGreedy(benchmark::State& state,
                       const RrCollection& (*store)()) {
  const RrCollection& sets = store();
  CoverageGreedyOptions options;
  options.k = static_cast<std::uint32_t>(state.range(0));
  for (auto _ : state) {
    const CoverageGreedyResult result = RunCoverageGreedy(sets, options);
    benchmark::DoNotOptimize(result.seeds.data());
  }
  state.counters["sets"] = static_cast<double>(sets.num_sets());
  state.counters["avg_set_size"] = sets.average_size();
}
BENCHMARK_CAPTURE(BM_CoverageGreedy, vanilla_1m_nodes, &SparseGreedyStore)
    ->Arg(50)
    ->Arg(2000)
    ->Unit(benchmark::kMillisecond);
BENCHMARK_CAPTURE(BM_CoverageGreedy, subsim_100k_nodes,
                  &CacheResidentGreedyStore)
    ->Arg(50)
    ->Arg(2000)
    ->Unit(benchmark::kMillisecond);

// ---------------------------------------------------------------------------
// --smoke: CI guard. Byte-identity plus a "batched must not be slower"
// assertion per generator kind, on min-over-reps single-thread timings.

/// Times one fill of `count` sets from stream (11, 1) into `collection`.
double TimeFillIntoSeconds(const Graph& graph, GeneratorKind kind,
                           FillKernel kernel, std::size_t count,
                           unsigned num_threads, RrCollection* collection) {
  RngStream stream = MakeRngStream(11, 1);
  const auto start = std::chrono::steady_clock::now();
  const Status status = FillCollection(
      {.kind = kind, .graph = &graph, .rng = &stream, .count = count,
       .num_threads = num_threads, .sentinels = {}, .obs = {},
       .kernel = kernel},
      collection);
  const auto stop = std::chrono::steady_clock::now();
  SUBSIM_CHECK(status.ok(), "smoke fill: %s", status.ToString().c_str());
  return std::chrono::duration<double>(stop - start).count();
}

double TimeFillSeconds(const Graph& graph, GeneratorKind kind,
                       FillKernel kernel, std::size_t count,
                       unsigned num_threads = 1) {
  RrCollection collection(graph.num_nodes());
  return TimeFillIntoSeconds(graph, kind, kernel, count, num_threads,
                             &collection);
}

/// The batched kernel alone: construction plus one `GenerateChunk` over
/// the same `count` sets a `TimeFillSeconds` fill stores, into flat vectors.
/// The store guard's baseline, so it calls the kernel directly.
double TimeGenerateSeconds(const Graph& graph, GeneratorKind kind,
                           std::size_t count) {
  std::vector<NodeId> nodes;
  std::vector<std::uint32_t> sizes;
  std::vector<std::uint8_t> hits;
  const BatchChunkSink sink{&nodes, &sizes, &hits};
  const std::uint64_t base_seed = MakeRngStream(11, 1).base_seed;
  const auto start = std::chrono::steady_clock::now();
  // SUBSIM-NOLINT-NEXTLINE(fill-entry-point): generation-only baseline
  auto kernel = BatchRrKernel::Create(kind, graph);
  SUBSIM_CHECK(kernel.ok(), "smoke kernel: %s",
               kernel.status().ToString().c_str());
  // SUBSIM-NOLINT-NEXTLINE(fill-entry-point): generation-only baseline
  (*kernel)->GenerateChunk(base_seed, 0, count, sink);
  const auto stop = std::chrono::steady_clock::now();
  benchmark::DoNotOptimize(nodes.data());
  return std::chrono::duration<double>(stop - start).count();
}

bool CollectionsIdentical(const RrCollection& a, const RrCollection& b) {
  if (a.num_sets() != b.num_sets()) {
    return false;
  }
  for (RrId id = 0; id < a.num_sets(); ++id) {
    const auto sa = a.View(id).ToVector();
    const auto sb = b.View(id).ToVector();
    if (sa.size() != sb.size() ||
        !std::equal(sa.begin(), sa.end(), sb.begin()) ||
        a.HitSentinel(id) != b.HitSentinel(id)) {
      return false;
    }
  }
  return true;
}

/// HIST's high-influence regime: the pokec-s stand-in with the WC-variant
/// theta that `bench_trajectory`'s hist-hi workload pins, where untruncated
/// SUBSIM sets average ~400 nodes (against ~1 on `DramFillGraph`).
/// Many in-flight sets share nodes here, so this is the graph on which a
/// batched visited test that is inexact for shared nodes pays most.
const Graph& HighInfluenceGraph() {
  static const Graph* const kGraph = [] {
    WeightModelParams params;
    params.wc_variant_theta = 1.1875;
    Result<Graph> graph = BuildDatasetGraph(
        "pokec-s", 1.0, 7, WeightModel::kWcVariant, params);
    SUBSIM_CHECK(graph.ok(), "hi-influence graph: %s",
                 graph.status().ToString().c_str());
    return new Graph(std::move(graph).value());
  }();
  return *kGraph;
}

/// Exponential weights, each in-row normalized to sum 1, so LT's plan
/// holds one `AliasTable` per skewed row: the graph's sampling state costs
/// O(m) heap allocations to build. (SUBSIM's plan is one O(n) pass, too
/// cheap next to a 64-set fill for the warm/cold ratio to show sharing.)
Graph SkewedPlanGraph() {
  Result<EdgeList> list = GenerateBarabasiAlbert(200000, 10, false, 5);
  const Status weights =
      AssignWeights(WeightModel::kExponential, {}, &list.value());
  SUBSIM_CHECK(weights.ok(), "plan graph weights: %s",
               weights.ToString().c_str());
  return BuildGraph(std::move(list).value()).value();
}

/// Plan guards: the graph's sampling plans are built once per graph and
/// shared, so (1) a small fill on a graph whose plans exist costs a
/// fraction of the first fill, which builds them, and (2) more fill
/// threads do not make a fill slower. With a kernel that plans per worker
/// per fill, the warm fill costs as much as the cold one and each extra
/// thread adds an O(m) build.
bool RunPlanGuards(int reps) {
  constexpr double kMaxWarmOverCold = 0.25;
  constexpr double kMaxThreadsRatio = 1.25;
  constexpr std::size_t kSmallFill = 64;
  constexpr std::size_t kThreadedFill = 4096;
  double cold_best = 0.0;
  double warm_best = 0.0;
  double warm_ratio = 0.0;
  double one_best = 0.0;
  double four_best = 0.0;
  double threads_ratio = 0.0;
  for (int rep = 0; rep < reps; ++rep) {
    const Graph graph = SkewedPlanGraph();  // fresh: no plans built yet
    const double cold = TimeFillSeconds(graph, GeneratorKind::kLt,
                                        FillKernel::kAuto, kSmallFill);
    const double warm = TimeFillSeconds(graph, GeneratorKind::kLt,
                                        FillKernel::kAuto, kSmallFill);
    const double one = TimeFillSeconds(graph, GeneratorKind::kLt,
                                       FillKernel::kAuto, kThreadedFill, 1);
    const double four = TimeFillSeconds(graph, GeneratorKind::kLt,
                                        FillKernel::kAuto, kThreadedFill, 4);
    cold_best = rep == 0 ? cold : std::min(cold_best, cold);
    warm_best = rep == 0 ? warm : std::min(warm_best, warm);
    warm_ratio = rep == 0 ? warm / cold : std::min(warm_ratio, warm / cold);
    one_best = rep == 0 ? one : std::min(one_best, one);
    four_best = rep == 0 ? four : std::min(four_best, four);
    threads_ratio = rep == 0 ? four / one : std::min(threads_ratio, four / one);
  }
  const bool warm_pass = warm_ratio <= kMaxWarmOverCold;
  std::printf("%s %-12s cold %8.2f ms  warm %8.2f ms  ratio %5.2fx\n",
              warm_pass ? "ok  " : "FAIL", "plan", cold_best * 1e3,
              warm_best * 1e3, warm_ratio);
  const bool threads_pass = threads_ratio <= kMaxThreadsRatio;
  std::printf("%s %-12s 1 thread %8.2f ms  4 threads %8.2f ms  ratio %5.2fx\n",
              threads_pass ? "ok  " : "FAIL", "threads", one_best * 1e3,
              four_best * 1e3, threads_ratio);
  return warm_pass && threads_pass;
}

double TimeGreedySeconds(RrCollectionView sets,
                         const CoverageGreedyOptions& options) {
  const auto start = std::chrono::steady_clock::now();
  const CoverageGreedyResult result = RunCoverageGreedy(sets, options);
  const auto stop = std::chrono::steady_clock::now();
  benchmark::DoNotOptimize(result.seeds.data());
  return std::chrono::duration<double>(stop - start).count();
}

/// Greedy guards: a greedy call costs what its view holds. On the 8M-node
/// graph, greedy over the first 64 sets of a 400K-set store must cost a
/// small fraction of greedy over all of them — Algorithm 1 at k = 50, and
/// Revised-Greedy at k = 2000, which runs the 64-set prefix far into the
/// zero-gain tail. A pass that reads every node's index row, or sorts
/// every node for the tail, costs as much on the prefix as on the store;
/// zeroing fresh 5 B-per-node scratch arrays costs a few percent of it.
/// The zero-gain order is built once per graph, before the timed calls.
/// On a 4-vCPU Xeon VM the min-per-rep ratios read 0.61x and 2.92x with
/// such a pass, 0.03-0.04x with the pass over the view's sets and fresh
/// zeroed arrays (4.0-4.6 ms of a 64-set call), and 0.001x and
/// 0.002-0.003x (0.07-0.15 ms) with the per-thread workspace, which a
/// call resets only where it touched it, and the banded heap.
/// Revised-Greedy's bar is looser, for noise room on shared runners;
/// zeroing per call reads 1.7x above it, and 3.7x above Algorithm 1's.
bool RunGreedyGuards(const Graph& graph, int reps) {
  constexpr double kMaxPlainRatio = 0.01;
  constexpr double kMaxRevisedRatio = 0.02;
  constexpr std::size_t kStoreSets = 400000;
  constexpr std::size_t kPrefixSets = 64;
  RrCollection sets(graph.num_nodes());
  RngStream stream = MakeRngStream(17, 1);
  const Status status = FillCollection(
      {.kind = GeneratorKind::kVanillaIc, .graph = &graph, .rng = &stream,
       .count = kStoreSets, .num_threads = 1, .sentinels = {}, .obs = {},
       .kernel = FillKernel::kBatched},
      &sets);
  SUBSIM_CHECK(status.ok(), "smoke fill: %s", status.ToString().c_str());
  const RrCollectionView prefix = sets.Prefix(kPrefixSets);

  CoverageGreedyOptions plain;
  plain.k = 50;
  CoverageGreedyOptions revised;
  revised.k = 2000;
  revised.tie_break_by_out_degree = true;
  revised.graph = &graph;
  TimeGreedySeconds(prefix, revised);  // builds the graph's tail order

  struct Arm {
    const char* label;
    const CoverageGreedyOptions* options;
    double max_ratio;
    double full_best = 0.0;
    double prefix_best = 0.0;
    double ratio = 0.0;
  };
  Arm arms[] = {{"greedy", &plain, kMaxPlainRatio},
                {"revised", &revised, kMaxRevisedRatio}};
  for (int rep = 0; rep < reps; ++rep) {
    for (Arm& arm : arms) {
      const double full = TimeGreedySeconds(sets, *arm.options);
      const double part = TimeGreedySeconds(prefix, *arm.options);
      arm.full_best = rep == 0 ? full : std::min(arm.full_best, full);
      arm.prefix_best = rep == 0 ? part : std::min(arm.prefix_best, part);
      arm.ratio = rep == 0 ? part / full : std::min(arm.ratio, part / full);
    }
  }
  bool ok = true;
  for (const Arm& arm : arms) {
    const bool pass = arm.ratio <= arm.max_ratio;
    std::printf("%s %-12s all sets %8.2f ms  64 sets %8.2f ms  ratio %5.3fx\n",
                pass ? "ok  " : "FAIL", arm.label, arm.full_best * 1e3,
                arm.prefix_best * 1e3, arm.ratio);
    ok = ok && pass;
  }
  return ok;
}

/// Validate guard: a collection that is only counted (`ComputeCoverage`,
/// as OPIM-C's, SSA's and HIST's R₂ are) is unindexed, so its fills merge
/// no inverted index. A 100K-set vanilla WC fill into an unindexed
/// collection against the same fill into an indexed one, on the 8M-node
/// graph, where the merge's O(n) row walk and scatter are most of the
/// indexed fill's extra cost. The arenas must be byte-identical. On a
/// 4-vCPU x86-64 VM the min-per-rep ratio read 0.61-0.68x; a copy that
/// indexes every collection reads ~1x.
bool RunValidateGuard(const Graph& graph, int reps) {
  constexpr double kMaxValidateRatio = 0.80;
  constexpr std::size_t kValidateSets = 100000;
  bool identical = true;
  double indexed_best = 0.0;
  double unindexed_best = 0.0;
  double ratio = 0.0;
  for (int rep = 0; rep < reps; ++rep) {
    RrCollection unindexed(graph.num_nodes(), RrEncoding::kRaw,
                           RrIndexing::kUnindexed);
    RrCollection indexed(graph.num_nodes());
    const double u =
        TimeFillIntoSeconds(graph, GeneratorKind::kVanillaIc,
                            FillKernel::kBatched, kValidateSets, 1, &unindexed);
    const double i =
        TimeFillIntoSeconds(graph, GeneratorKind::kVanillaIc,
                            FillKernel::kBatched, kValidateSets, 1, &indexed);
    identical = identical && CollectionsIdentical(unindexed, indexed) &&
                unindexed.arena_bytes() == indexed.arena_bytes();
    indexed_best = rep == 0 ? i : std::min(indexed_best, i);
    unindexed_best = rep == 0 ? u : std::min(unindexed_best, u);
    ratio = rep == 0 ? u / i : std::min(ratio, u / i);
  }
  if (!identical) {
    std::printf("FAIL %-12s arenas differ (unindexed != indexed)\n",
                "validate");
    return false;
  }
  const bool pass = ratio <= kMaxValidateRatio;
  std::printf("%s %-12s indexed %8.2f ms  unindexed %8.2f ms  ratio %5.2fx\n",
              pass ? "ok  " : "FAIL", "validate", indexed_best * 1e3,
              unindexed_best * 1e3, ratio);
  return pass;
}

int RunSmoke() {
  struct Case {
    const char* label;
    GeneratorKind kind;
    const Graph& graph;
    std::size_t sets;
    /// Allowed batched/scalar time ratio. On the DRAM-resident graph,
    /// vanilla WC is the headline case (measures ~0.65-0.85 at smoke
    /// scale, i.e. >= 1.2x) so it must win with margin. SUBSIM and LT
    /// batched win at fill scale (~1.15x in BM_Fill), but their scalar
    /// baselines share the packed-descriptor fast paths and a 20k-set
    /// smoke leaves little cold-cache traversal to pipeline, so at this
    /// scale they tie — the bar is "not slower" plus noise headroom for
    /// shared CI runners. On the cache-resident high-influence graph there
    /// is little miss latency to hide either; on a 4-vCPU x86-64 VM the
    /// ratio read 1.96-2.22x with a visited test that scans the lane's
    /// node list when sets share a node, and 0.81-0.86x with exact
    /// per-lane masks (three runs each). The bar sits between the two.
    double max_ratio;
    /// The smallest average set size that keeps the case meaningful.
    double min_avg_size;
  };
  const Graph& dram = DramFillGraph();
  const Case cases[] = {
      {"vanilla", GeneratorKind::kVanillaIc, dram, 20000, 0.90, 0.0},
      {"subsim", GeneratorKind::kSubsimIc, dram, 20000, 1.10, 0.0},
      {"lt", GeneratorKind::kLt, dram, 20000, 1.10, 0.0},
      {"hi-influence", GeneratorKind::kSubsimIc, HighInfluenceGraph(), 2000,
       1.25, 300.0},
  };
  constexpr int kReps = 3;

  bool ok = true;
  for (const Case& c : cases) {
    const Graph& graph = c.graph;
    RrCollection scalar_out(graph.num_nodes());
    RrCollection batched_out(graph.num_nodes());
    RngStream scalar_stream = MakeRngStream(11, 1);
    RngStream batched_stream = MakeRngStream(11, 1);
    Status status = FillCollection(
        {.kind = c.kind, .graph = &graph, .rng = &scalar_stream,
         .count = c.sets, .num_threads = 1, .sentinels = {}, .obs = {},
         .kernel = FillKernel::kScalar},
        &scalar_out);
    SUBSIM_CHECK(status.ok(), "smoke fill: %s", status.ToString().c_str());
    status = FillCollection(
        {.kind = c.kind, .graph = &graph, .rng = &batched_stream,
         .count = c.sets, .num_threads = 1, .sentinels = {}, .obs = {},
         .kernel = FillKernel::kBatched},
        &batched_out);
    SUBSIM_CHECK(status.ok(), "smoke fill: %s", status.ToString().c_str());
    if (!CollectionsIdentical(scalar_out, batched_out)) {
      std::printf("FAIL %-12s kernels diverge (scalar != batched)\n", c.label);
      ok = false;
      continue;
    }
    if (scalar_out.average_size() < c.min_avg_size) {
      std::printf("FAIL %-12s sets average %.1f nodes, under %.0f\n",
                  c.label, scalar_out.average_size(), c.min_avg_size);
      ok = false;
      continue;
    }

    // Judge on the best per-rep ratio, not the ratio of per-arm bests:
    // the two arms of a rep run back to back, so interference that slows
    // the whole machine for a while (CI neighbors, hypervisor steal time)
    // inflates both and cancels in the ratio, whereas min-per-arm across
    // reps can pair a quiet scalar rep with a noisy batched one.
    double scalar_best = 0.0;
    double batched_best = 0.0;
    double ratio = 0.0;
    for (int rep = 0; rep < kReps; ++rep) {
      const double s = TimeFillSeconds(graph, c.kind, FillKernel::kScalar,
                                       c.sets);
      const double b = TimeFillSeconds(graph, c.kind, FillKernel::kBatched,
                                       c.sets);
      scalar_best = rep == 0 ? s : std::min(scalar_best, s);
      batched_best = rep == 0 ? b : std::min(batched_best, b);
      ratio = rep == 0 ? b / s : std::min(ratio, b / s);
    }
    const bool pass = ratio <= c.max_ratio;
    std::printf("%s %-12s scalar %8.2f ms  batched %8.2f ms  speedup %5.2fx\n",
                pass ? "ok  " : "FAIL", c.label, scalar_best * 1e3,
                batched_best * 1e3, 1.0 / ratio);
    ok = ok && pass;
  }

  // Store guard: a vanilla WC fill into an `RrCollection` (generation,
  // arena appends, one bulk index merge) over the batched kernel alone
  // writing the same sets into flat vectors. 400K sets on the 8M-node
  // graph also charge the merge's O(n) pass at 8x the per-set weight of a
  // real 1M-node solve. The min-per-rep ratio, on a 4-vCPU Xeon VM, read
  // 1.74-2.46x with one `push_back` per membership into per-node vectors
  // and 1.17-1.33x with the bulk CSR merge (a 1M-node, 688K-set probe read
  // 1.75-2.02x and 1.08-1.11x). The bar sits between the two.
  {
    constexpr double kMaxStoreRatio = 1.5;
    constexpr std::size_t kStoreSets = 400000;
    double fill_best = 0.0;
    double generate_best = 0.0;
    double ratio = 0.0;
    for (int rep = 0; rep < kReps; ++rep) {
      const double f = TimeFillSeconds(dram, GeneratorKind::kVanillaIc,
                                       FillKernel::kBatched, kStoreSets);
      const double g =
          TimeGenerateSeconds(dram, GeneratorKind::kVanillaIc, kStoreSets);
      fill_best = rep == 0 ? f : std::min(fill_best, f);
      generate_best = rep == 0 ? g : std::min(generate_best, g);
      ratio = rep == 0 ? f / g : std::min(ratio, f / g);
    }
    const bool pass = ratio <= kMaxStoreRatio;
    std::printf("%s %-12s generate %8.2f ms  fill %8.2f ms  ratio %5.2fx\n",
                pass ? "ok  " : "FAIL", "store", generate_best * 1e3,
                fill_best * 1e3, ratio);
    ok = ok && pass;
  }
  ok = RunValidateGuard(dram, kReps) && ok;
  ok = RunGreedyGuards(dram, kReps) && ok;
  ok = RunPlanGuards(kReps) && ok;
  return ok ? 0 : 1;
}

}  // namespace
}  // namespace subsim

int main(int argc, char** argv) {
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--smoke") == 0) {
      return subsim::RunSmoke();
    }
  }
  benchmark::Initialize(&argc, argv);
  if (benchmark::ReportUnrecognizedArguments(argc, argv)) {
    return 1;
  }
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();
  return 0;
}
