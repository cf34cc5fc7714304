#ifndef SUBSIM_RRSET_SAMPLE_STORE_H_
#define SUBSIM_RRSET_SAMPLE_STORE_H_

#include <array>
#include <atomic>
#include <cstdint>
#include <memory>
#include <span>

#include "subsim/graph/graph.h"
#include "subsim/random/rng.h"
#include "subsim/rrset/generator_factory.h"
#include "subsim/rrset/parallel_fill.h"
#include "subsim/rrset/rr_collection.h"
#include "subsim/util/mutex.h"
#include "subsim/util/status.h"
#include "subsim/util/thread_annotations.h"

namespace subsim {

/// Resumable, shareable RR-set sampling state: two independent streams of
/// plain (never sentinel-truncated) RR sets, each a pure function of
/// (graph, generator kind, its stream base seed) — set `i` of a stream is
/// `Rng::Substream(base_seed, i)`'s output, the same no matter how many
/// `EnsureSets` calls produced it or how many threads filled it. That
/// prefix property is what lets one store serve many queries: a `k = 50,
/// eps = 0.1` query extends the sets an earlier `k = 10, eps = 0.3` query
/// generated instead of resampling, and any query evaluating a prefix sees
/// exactly what a cold run with that many sets would have seen.
///
/// Stream 0 is the selection stream greedy reads (R₁), so it keeps the
/// inverted index. Stream 1 is only counted (OPIM-C's validation R₂, via
/// `ComputeCoverage`), so it is `RrIndexing::kUnindexed`: its fills merge
/// no index and it holds no per-node bytes.
///
/// Concurrency: appends happen under an exclusive (writer) lock and commit
/// their new length to an atomic watermark; reads take a shared lock
/// (`Read`) and may only view prefixes at or below the watermark, so any
/// number of queries can evaluate committed prefixes while at most one
/// extends the streams. All methods are thread-safe. The stream bodies
/// (`streams_`) are `SUBSIM_GUARDED_BY(mu_)`; the watermarks live in a
/// separate atomic array precisely so the lock-free `num_sets` fast path
/// needs no capability.
///
/// Every thread count has the cross-call prefix property — fills go through
/// the thread-invariant `FillCollection`, so `num_threads` changes only how
/// fast streams grow, never their contents. Warm cache hits are therefore
/// bit-identical to cold multi-threaded runs.
class SampleStore {
 public:
  static constexpr std::size_t kNumStreams = 2;

  struct Options {
    /// Worker threads per fill: 1 (default) runs inline, 0 = hardware
    /// concurrency, N = N workers. Stream contents are identical for every
    /// value.
    unsigned num_threads = 1;
    /// Optional metrics sinks; the pointed-to registry/tracer must outlive
    /// the store. Fills flush `rr.*` deltas plus `store.fill_rounds` /
    /// `store.sets_generated` counters and the `store.approx_bytes` gauge.
    ObsContext obs;
    /// Generation kernel for fills; stream contents are identical for
    /// every value (see `FillKernel`).
    FillKernel kernel = FillKernel::kAuto;
    /// Arena storage encoding for both streams (see `RrEncoding`). A pure
    /// storage knob: the logical sample stream — and therefore every
    /// selected seed — is identical for every value; only the arena bytes
    /// (and thus `ApproxMemoryBytes`/cache budget spend) change.
    RrEncoding encoding = RrEncoding::kRaw;
  };

  /// Builds a store over `graph` (which must outlive the store; the
  /// serving cache keeps a shared snapshot alive alongside it). Fails when
  /// the generator kind rejects the graph (e.g. LT weight sums).
  static Result<std::unique_ptr<SampleStore>> Create(
      const Graph& graph, GeneratorKind kind,
      std::array<RngStream, kNumStreams> streams, const Options& options);
  static Result<std::unique_ptr<SampleStore>> Create(
      const Graph& graph, GeneratorKind kind,
      std::array<RngStream, kNumStreams> streams) {
    return Create(graph, kind, streams, Options());
  }

  /// How much of a repair was incremental.
  struct RepairStats {
    /// Sets regenerated because they contained a dirty node.
    std::uint64_t sets_repaired = 0;
    /// Sets carried forward untouched.
    std::uint64_t sets_kept = 0;
  };

  /// Builds the store `Create(graph, source.kind, source's streams)` +
  /// `EnsureSets` to `source`'s lengths *would* build — without paying for
  /// the clean sets. `graph` must be a successor snapshot of `source`'s
  /// graph with the same node count, and `dirty_nodes` the in-row
  /// invalidation frontier of the mutation (`EdgeUpdateResult::dirty_nodes`).
  ///
  /// Why this is exact: a reverse traversal reads only the in-adjacency
  /// rows of nodes it visits, i.e. of the RR set's own members, and set `i`
  /// is a pure function of `(graph in-rows it reads, Substream(base, i))`.
  /// A committed set containing no dirty node therefore replays
  /// bit-identically on `graph` and is copied; every other set is
  /// regenerated from its own substream. The copy loop, which decodes every
  /// set anyway, tests each member against an n-bit mask of `dirty_nodes`
  /// (ids out of the node range are ignored), so both streams take one
  /// path whether or not they are indexed. The result is byte-identical to
  /// the cold rebuild at any thread count.
  ///
  /// `source` is read under its shared lock (concurrent queries keep
  /// serving it); the repaired store continues both streams at the exact
  /// indices `source` had committed. The repaired store always stores
  /// under `source`'s arena encoding (`options.encoding` is ignored):
  /// kept sets are carried through `RrSetView` in storage order, which
  /// round-trips byte-identically only within one encoding. Fails when the
  /// kind rejects `graph` (e.g. an update pushed an LT weight sum past 1)
  /// or the node counts differ. `stats` (optional) receives the repair
  /// split.
  static Result<std::unique_ptr<SampleStore>> CreateRepaired(
      const Graph& graph, const SampleStore& source,
      std::span<const NodeId> dirty_nodes, const Options& options,
      RepairStats* stats = nullptr);

  SampleStore(const SampleStore&) = delete;
  SampleStore& operator=(const SampleStore&) = delete;

  /// Grows stream `stream` to at least `count` sets; no-op when the stream
  /// is already that long. Takes the writer lock only when growth is
  /// needed (double-checked against the committed watermark), so each
  /// stream index is generated exactly once however many callers race.
  /// `appended` (optional) is incremented by the sets this call generated
  /// — zero when a concurrent caller already filled the range.
  Status EnsureSets(std::size_t stream, std::uint64_t count,
                    std::uint64_t* appended = nullptr) SUBSIM_EXCLUDES(mu_);

  /// Committed set count of a stream. Lock-free (acquire load).
  std::uint64_t num_sets(std::size_t stream) const {
    SUBSIM_DCHECK(stream < kNumStreams, "stream out of range");
    return committed_[stream].load(std::memory_order_acquire);
  }

  /// Total sets generated across both streams since construction.
  std::uint64_t total_generated() const {
    return num_sets(0) + num_sets(1);
  }

  GeneratorKind generator_kind() const { return kind_; }
  NodeId num_graph_nodes() const { return num_nodes_; }
  /// Arena encoding both streams store under (fixed at creation).
  RrEncoding encoding() const { return options_.encoding; }

  /// Approximate heap footprint of both collections.
  std::uint64_t ApproxMemoryBytes() const SUBSIM_EXCLUDES(mu_);

  /// Shared-lock handle for reading committed prefixes. Holds the lock for
  /// its lifetime; keep the scope tight.
  ///
  /// This is a guard-handle: the shared capability is acquired in one
  /// object's constructor and consumed by another method (`View`), a shape
  /// Clang's per-function analysis cannot follow — hence the narrow
  /// `SUBSIM_NO_THREAD_SAFETY_ANALYSIS` escapes below. Everything the
  /// handle does is still runtime-correct: construction takes the shared
  /// lock, `View` only dereferences while it is held, destruction releases.
  class ReadGuard {
   public:
    ~ReadGuard() SUBSIM_NO_THREAD_SAFETY_ANALYSIS {  // releases ctor's hold
      store_->mu_.UnlockShared();
    }

    ReadGuard(const ReadGuard&) = delete;
    ReadGuard& operator=(const ReadGuard&) = delete;

    /// View of the first `prefix` sets of `stream`. `prefix` must not
    /// exceed the committed watermark.
    RrCollectionView View(std::size_t stream, std::uint64_t prefix) const
        SUBSIM_NO_THREAD_SAFETY_ANALYSIS {  // shared hold since construction
      SUBSIM_DCHECK(stream < kNumStreams, "stream out of range");
      SUBSIM_DCHECK(prefix <= store_->num_sets(stream),
                    "view prefix beyond committed watermark");
      return RrCollectionView(store_->streams_[stream].collection,
                              static_cast<std::size_t>(prefix));
    }

   private:
    friend class SampleStore;
    explicit ReadGuard(const SampleStore* store)
        SUBSIM_NO_THREAD_SAFETY_ANALYSIS  // guard-handle acquisition
        : store_(store) {
      store_->mu_.LockShared();
    }

    const SampleStore* store_;
  };

  ReadGuard Read() const { return ReadGuard(this); }

 private:
  struct Stream {
    RrCollection collection;
    /// Cursor into the stream's counter-based substream sequence; its
    /// `next_index` always equals `collection.num_sets()`.
    RngStream rng;

    Stream(NodeId num_nodes, RrEncoding encoding, RngStream stream,
           RrIndexing indexing)
        : collection(num_nodes, encoding, indexing), rng(stream) {}
  };

  SampleStore(const Graph& graph, GeneratorKind kind,
              std::array<RngStream, kNumStreams> streams,
              const Options& options);

  const Graph* graph_;
  GeneratorKind kind_;
  NodeId num_nodes_;
  Options options_;
  /// Acquired after `RrSketchCache::mu_` (the cache walks stores for
  /// budget accounting while holding its own lock; stores never call back
  /// into the cache).
  mutable SharedMutex mu_;
  std::array<Stream, kNumStreams> streams_ SUBSIM_GUARDED_BY(mu_);
  /// Committed watermarks, readable without the lock: writers publish a
  /// new length with a release store after appending under the writer
  /// lock; `num_sets` pairs it with an acquire load.
  std::array<std::atomic<std::uint64_t>, kNumStreams> committed_{};
};

}  // namespace subsim

#endif  // SUBSIM_RRSET_SAMPLE_STORE_H_
