#ifndef SUBSIM_RRSET_PARALLEL_FILL_H_
#define SUBSIM_RRSET_PARALLEL_FILL_H_

#include <cstddef>
#include <span>
#include <string>

#include "subsim/graph/graph.h"
#include "subsim/obs/obs_context.h"
#include "subsim/random/rng.h"
#include "subsim/rrset/generator_factory.h"
#include "subsim/rrset/rr_collection.h"
#include "subsim/util/status.h"

namespace subsim {

/// Which RR-generation kernel a fill runs. Both produce byte-identical
/// ordered streams (pinned by `kernel_equivalence_test`); the knob trades
/// nothing but implementation — it exists so the scalar path stays
/// available as the differential-testing reference and for A/B
/// benchmarking (`bench_micro_kernels --smoke` asserts batched is not
/// slower).
enum class FillKernel {
  /// Let the library pick; currently always the batched kernel.
  kAuto,
  /// One scalar `RrGenerator::Generate` call per set (the reference).
  kScalar,
  /// Frontier-batched chunk kernel (`BatchRrKernel`): per-lane visited
  /// masks, SoA slice-as-queue output, bulk RNG draws, CSR
  /// prefetch. See docs/rr_generation.md.
  kBatched,
};

/// The kernel `kAuto` resolves to (identity on the other values).
FillKernel ResolveFillKernel(FillKernel kernel);

/// Parses "auto" | "scalar" | "batched".
Result<FillKernel> ParseFillKernel(const std::string& name);

const char* FillKernelName(FillKernel kernel);

/// One RR-set fill, fully described. Designated-initializer friendly:
///
///   RngStream stream = MakeRngStream(seed, 1);
///   SUBSIM_RETURN_IF_ERROR(FillCollection(
///       {.kind = GeneratorKind::kSubsimIc, .graph = &graph, .rng = &stream,
///        .count = theta, .num_threads = options.num_threads},
///       &collection));
struct FillRequest {
  /// RR-set generation strategy. The fill builds the graph's shared
  /// sampling state for it on first use (`PrepareSamplingState`), so a
  /// kind's rejection of the graph (e.g. LT weight-sum violations)
  /// surfaces as the fill's Status; each worker then gets its own scratch
  /// over that state.
  GeneratorKind kind = GeneratorKind::kVanillaIc;
  const Graph* graph = nullptr;
  /// Stream cursor. Set `i` of the fill is generated from
  /// `Rng::Substream(rng->base_seed, rng->next_index + i)`; the fill
  /// advances `rng->next_index` by `count` on success.
  RngStream* rng = nullptr;
  std::size_t count = 0;
  /// Worker threads: 1 (default) runs inline, 0 = hardware concurrency,
  /// N = N workers. The output stream is byte-identical for every value.
  unsigned num_threads = 1;
  /// Sentinel set installed in every worker's generator (Algorithm 5).
  std::span<const NodeId> sentinels;
  /// Optional metrics sinks. Worker stats are merged and flushed once per
  /// fill (after the join), so attaching a registry never perturbs the
  /// workers' RNG streams or scheduling.
  ObsContext obs;
  /// Which generation kernel runs the fill; the output stream is
  /// byte-identical for every value.
  FillKernel kernel = FillKernel::kAuto;
};

/// Generates `request.count` RR sets and appends them to `collection` in
/// stream-index order, then extends its inverted index, if it keeps one,
/// once for the whole fill. The single fill entry point for the whole
/// library. Returns OutOfRange, before generating anything, when the
/// collection would pass `kMaxRrSets`.
///
/// Thread-count invariant: every set is generated from its own counter-based
/// substream (`Rng::Substream`), and workers claim fixed-size index chunks
/// off an atomic counter, with the merge reassembling chunks in index order.
/// The appended sets are therefore byte-identical for any `num_threads` —
/// parallelism changes only wall-clock time, never the sample stream. Each
/// worker owns a private generator or kernel for its mutable scratch
/// (marks, queues, lanes; neither interface is thread-safe), while the
/// per-graph sampling plans they read are built once per graph and shared
/// (`PrepareSamplingState`), so a fill never rebuilds them.
///
/// Parallelism is an extension beyond the paper (which is single-threaded);
/// generation is embarrassingly parallel and the counter-based streams make
/// the speedup free of reproducibility cost.
Status FillCollection(const FillRequest& request, RrCollection* collection);

}  // namespace subsim

#endif  // SUBSIM_RRSET_PARALLEL_FILL_H_
