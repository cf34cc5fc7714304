#ifndef SUBSIM_RRSET_BATCH_KERNEL_H_
#define SUBSIM_RRSET_BATCH_KERNEL_H_

#include <cstdint>
#include <memory>
#include <span>
#include <vector>

#include "subsim/graph/graph.h"
#include "subsim/random/rng.h"
#include "subsim/rrset/generator_factory.h"
#include "subsim/rrset/rr_generator.h"
#include "subsim/util/status.h"

namespace subsim {

/// Structure-of-arrays destination for a chunk of RR sets: flattened node
/// ids plus per-set sizes and sentinel-hit flags, appended in set-index
/// order. The same layout as `parallel_fill`'s worker buffers, so the
/// merge step can splice a whole chunk without reshaping it.
struct BatchChunkSink {
  std::vector<NodeId>* nodes = nullptr;
  std::vector<std::uint32_t>* sizes = nullptr;
  std::vector<std::uint8_t>* hits = nullptr;
};

/// Frontier-batched RR-set generation kernel: the throughput-oriented
/// counterpart of the scalar `RrGenerator`, operating on whole scheduler
/// chunks instead of single sets.
///
/// Byte-identity contract: `GenerateChunk(base_seed, first_index, count,
/// sink)` appends exactly the sets that `count` scalar `Generate` calls on
/// `Rng::Substream(base_seed, first_index + i)` would produce, in index
/// order, for every generator kind, with or without sentinels — pinned by
/// `kernel_equivalence_test`. This holds because each set draws only from
/// its own counter-based substream and the per-step sampling primitives
/// are shared with the scalar generators (`ExpandVanillaInEdges`,
/// `SubsimExpandCore`, `LtEdgePicker`); batching rearranges memory access,
/// never draws.
///
/// What the batch shape buys (docs/rr_generation.md):
///  * interleaved lanes — every set in the chunk is a lane with its own
///    SoA frontier queue, and live lanes advance round-robin one frontier
///    node per visit, so each lane's prefetched adjacency row streams in
///    while dozens of other lanes execute (memory-level parallelism, the
///    dominant win on graphs larger than cache);
///  * per-lane visited masks — one shared `uint32_t` per node, one bit
///    per in-flight set (hence 32 lanes), so a visited test is one exact
///    load/test/store however large the sets grow or however many share
///    a node; a finished set clears its bit on the nodes it recorded, so
///    the masks are all zero between chunks and need no reset;
///  * lane refill: a slot that finishes its set immediately reseeds with
///    the chunk's next index (prefetching the new root's mask and
///    descriptor lines first), so the heavy tail of WC set sizes cannot
///    drain the lane pool into serial execution;
///  * bulk inline RNG draws (`Rng::NextU64Batch`) for unconditional
///    Bernoulli edge loops;
///  * discovery-time software prefetch over the CSR in-adjacency and the
///    kernels' packed per-node descriptors (`Graph::PrefetchInMeta` /
///    `PrefetchInRow`, `SubsimExpandCore::PrefetchPlan` / `PrefetchRow`,
///    `LtEdgePicker::PrefetchPick` / `PrefetchRow`).
///
/// Like `RrGenerator`, a kernel holds per-instance scratch (lanes, queues)
/// and is not thread-safe; `FillCollection` builds one per worker per
/// fill. Its per-node scratch (lane masks and sentinel bitmap, 4 B + 1 bit
/// per node) is borrowed from a per-thread workspace that is all zero
/// between kernels, so a thread's next kernel reuses it without clearing.
/// It grows to the largest graph the thread has sampled and never
/// shrinks. `FillCollection`'s extra workers run on threads started per
/// fill, so only the calling thread's kernel reuses it across fills. A
/// second kernel alive on the same thread allocates its own. A kernel
/// must be destroyed on the thread that created it. The sampling plans it
/// reads are the graph's shared, immutable state
/// (`SubsimExpandCore::Shared`, `LtEdgePicker::Shared`), built once per
/// graph, so a kernel costs its per-chunk scratch only. The interface
/// is deliberately device-shaped — a chunk in, a flat SoA buffer out, no
/// callbacks on the hot path — so an accelerator backend is just another
/// implementation of `GenerateChunk`.
class BatchRrKernel {
 public:
  virtual ~BatchRrKernel() = default;

  /// Builds the kernel for `kind` over the graph's shared sampling state
  /// (built here if this is its first use); fails for exactly the inputs
  /// the scalar factory rejects (e.g. LT weight-sum violations). `graph`
  /// must be non-empty and outlive the kernel.
  static Result<std::unique_ptr<BatchRrKernel>> Create(GeneratorKind kind,
                                                       const Graph& graph);

  /// Installs (or, with an empty span, removes) the sentinel set.
  virtual void SetSentinels(std::span<const NodeId> sentinels) = 0;

  /// Appends the sets of stream indices [first_index, first_index + count)
  /// to `sink`, byte-identical to the scalar generator (see above).
  virtual void GenerateChunk(std::uint64_t base_seed,
                             std::uint64_t first_index, std::size_t count,
                             const BatchChunkSink& sink) = 0;

  virtual const RrGenStats& stats() const = 0;
  virtual void ResetStats() = 0;
  virtual const char* name() const = 0;
};

}  // namespace subsim

#endif  // SUBSIM_RRSET_BATCH_KERNEL_H_
