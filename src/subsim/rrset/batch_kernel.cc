#include "subsim/rrset/batch_kernel.h"

#include <bit>
#include <cstdlib>
#include <limits>
#include <utility>

#include "subsim/rrset/lt_generator.h"
#include "subsim/rrset/subsim_ic_generator.h"
#include "subsim/rrset/vanilla_ic_generator.h"
#include "subsim/util/bit_vector.h"
#include "subsim/util/check.h"
#include "subsim/util/prefetch.h"

namespace subsim {

namespace {

/// One bit per lane: a node's visited state and the scheduler's live set
/// are both a `LaneMask`.
using LaneMask = std::uint32_t;

/// A batched kernel's per-node scratch: the lane masks (4 B per node) and
/// the sentinel bitmap. Both are all zero whenever no kernel is mid-chunk
/// (`FinishSlot` clears a set's marks, `ResetTouched` the sentinels), so
/// one thread's kernels can hand the same arrays on without clearing them:
/// each fill builds a kernel per worker, and a fresh n-entry allocation
/// costs an n-word memset once the allocator serves it from the heap.
/// `FillCollection` runs worker 0 on the calling thread and starts fresh
/// threads for the rest, so only worker 0 (all of a one-thread fill)
/// reuses a scratch; every other worker allocates one and frees it when
/// its thread exits.
struct KernelScratch {
  struct FreeDeleter {
    void operator()(LaneMask* p) const { std::free(p); }
  };

  // calloc-backed: where the allocator maps fresh zero pages, a fill
  // faults in only the pages its traversals reach.
  std::unique_ptr<LaneMask[], FreeDeleter> lane_marks;
  /// Nodes `lane_marks` and `sentinel` cover.
  std::size_t size = 0;
  BitVector sentinel;
  /// A kernel on this thread holds the scratch.
  bool lent = false;

  /// Covers `n` nodes, reallocating (all zero) when the arrays are too
  /// small; they are never shrunk.
  void Fit(NodeId n) {
    if (size >= n) {
      return;
    }
    lane_marks.reset(static_cast<LaneMask*>(std::calloc(n, sizeof(LaneMask))));
    SUBSIM_CHECK(lane_marks != nullptr, "lane mask allocation failed");
    size = n;
    sentinel = BitVector(n);
  }
};

KernelScratch& ThreadKernelScratch() {
  thread_local KernelScratch scratch;
  return scratch;
}

/// Shared lane state and chunk plumbing for the interleaved batched
/// kernels.
///
/// The kernel keeps up to `kMaxLanes` RR sets in flight at once, each in
/// a lane slot with its own substream RNG, frontier scratch, and bit of
/// the shared per-node lane masks (see `MarkLane`). Live slots advance
/// round-robin — one pipeline step per visit — so a cache line one lane
/// prefetched streams in while dozens of other lanes execute. On graphs
/// larger than cache this memory-level parallelism, not the instruction
/// count, is where the batched kernel's speedup comes from: the scalar
/// path serializes cache misses along each set's BFS chain. Because WC-style set sizes are heavy-tailed, a slot
/// is reseeded with the chunk's next set index the moment its set
/// finishes — without refill the few giant sets would drain the lane pool
/// and run alone, serialized again.
///
/// Every step is shaped so a visit never demand-loads a line it
/// prefetched in the same visit:
///  * seed — materialize the substream, take the root draw, prefetch the
///    root's lane mask and offset entry;
///  * root-commit (next visit) — mark and append the root against those
///    now-resident lines, prefetch its adjacency row;
///  * run steps (kernel-specific) — commit the previous visit's
///    discoveries against masks prefetched a full round earlier, then
///    expand one frontier node whose row has had at least a round in
///    flight, recording new candidates and prefetching their masks and
///    offset entries.
///
/// Interleaving cannot perturb the streams: a lane only ever draws from
/// its own substream, so the per-set draw order is exactly the scalar
/// generator's regardless of how lane visits are scheduled, and the
/// epilogue flushes sets in index order no matter when they finished.
class BatchKernelBase : public BatchRrKernel {
 public:
  /// Borrows the calling thread's `KernelScratch` unless another kernel on
  /// this thread holds it, in which case the kernel allocates its own.
  explicit BatchKernelBase(const Graph& graph) : graph_(graph) {
    SUBSIM_CHECK(graph.num_nodes() > 0, "cannot sample from empty graph");
    KernelScratch& thread_scratch = ThreadKernelScratch();
    if (thread_scratch.lent) {
      own_scratch_ = std::make_unique<KernelScratch>();
      scratch_ = own_scratch_.get();
    } else {
      thread_scratch.lent = true;
      scratch_ = &thread_scratch;
    }
    scratch_->Fit(graph.num_nodes());
    lane_marks_ = scratch_->lane_marks.get();
    sentinel_ = &scratch_->sentinel;
  }

  /// Returns the scratch all zero: no set is in flight between chunks, so
  /// the lane masks already are, and the sentinel bits are cleared here.
  ~BatchKernelBase() override {
    sentinel_->ResetTouched();
    if (own_scratch_ == nullptr) {
      SUBSIM_DCHECK(scratch_ == &ThreadKernelScratch(),
                    "batched kernel destroyed off the thread that built it");
      scratch_->lent = false;
    }
  }

  BatchKernelBase(const BatchKernelBase&) = delete;
  BatchKernelBase& operator=(const BatchKernelBase&) = delete;

  void SetSentinels(std::span<const NodeId> sentinels) final {
    sentinel_->ResetTouched();
    has_sentinels_ = !sentinels.empty();
    for (NodeId v : sentinels) {
      sentinel_->Set(v);
    }
  }

  const RrGenStats& stats() const final { return stats_; }
  void ResetStats() final { stats_ = RrGenStats{}; }

 protected:
  /// Live lanes per kernel: one per bit of `LaneMask`, so the visited
  /// state stays 4 bytes per node. A full round of visits (~32 × tens of
  /// ns) still out-waits a DRAM miss, which is all the prefetch pipeline
  /// needs.
  static constexpr std::size_t kMaxLanes =
      std::numeric_limits<LaneMask>::digits;

  enum LaneState : std::uint8_t { kRootCommit = 0, kRun = 1 };

  /// Resets the per-chunk context (set table, refill cursor).
  void BeginChunk(std::uint64_t base_seed, std::uint64_t first_index,
                  std::size_t count) {
    ++stats_.batch_chunks;
    base_seed_ = base_seed;
    first_index_ = first_index;
    chunk_count_ = count;
    next_set_ = 0;
    arena_.clear();
    set_offset_.resize(count);
    set_size_.resize(count);
    set_hit_.assign(count, 0);
  }

  /// Assigns the next set index to `slot`: substream, root draw, and the
  /// prefetches the root-commit visit needs. The root draw is the first
  /// draw of the set's own substream, so taking it here is invisible to
  /// the per-set stream.
  void SeedSlot(std::size_t slot) {
    const std::size_t set = next_set_++;
    lane_set_[slot] = static_cast<std::uint32_t>(set);
    // Rng has no default constructor; the first seeding of each slot (in
    // slot order) grows the vector, every later reseed assigns in place.
    if (slot < lane_rngs_.size()) {
      lane_rngs_[slot] = Rng::Substream(base_seed_, first_index_ + set);
    } else {
      lane_rngs_.push_back(Rng::Substream(base_seed_, first_index_ + set));
    }
    const NodeId root = static_cast<NodeId>(
        lane_rngs_[slot].UniformInt(graph_.num_nodes()));
    lane_root_[slot] = root;
    lane_head_[slot] = 0;
    lane_state_[slot] = kRootCommit;
    slot_nodes_[slot].clear();
    PrefetchSeedMeta(root);
    PrefetchMark(root);
  }

  /// Prefetches the per-node descriptor line the root-commit visit will
  /// read when it prefetches the root's row. Virtual because each kernel
  /// owns its own packed descriptor array (Graph's `InRowMeta`, the SUBSIM
  /// core's plan, the LT picker's pick record); once per set, so the
  /// dispatch cost is noise.
  virtual void PrefetchSeedMeta(NodeId root) { graph_.PrefetchInMeta(root); }

  /// Visited test-and-set for `slot`'s current set: bit `slot` of `v`'s
  /// lane mask. Each in-flight set owns its bit, so the test is exact
  /// however many sets share `v`, and a large set costs one load and store
  /// per mark like a small one. Returns true if `v` was newly marked.
  bool MarkLane(std::size_t slot, NodeId v) {
    const LaneMask bit = LaneMask{1} << slot;
    LaneMask& mask = lane_marks_[v];
    if ((mask & bit) != 0) {
      return false;
    }
    mask |= bit;
    return true;
  }

  /// Prefetches `v`'s lane mask for a `MarkLane` a round from now.
  void PrefetchMark(NodeId v) const { PrefetchRead(lane_marks_ + v); }

  /// Marks and appends the root against the lines the seed visit
  /// prefetched. Returns true when the set is already complete (sentinel
  /// root).
  bool CommitRoot(std::size_t slot) {
    lane_state_[slot] = kRun;
    const NodeId root = lane_root_[slot];
    MarkLane(slot, root);
    slot_nodes_[slot].push_back(root);
    if (has_sentinels_ && sentinel_->Get(root)) {
      MarkLaneHit(slot);
      return true;
    }
    return false;
  }

  /// Records the finished slot's set into the chunk arena and clears the
  /// lane's bit on every node it marked, so the next set seeded into the
  /// slot starts from an empty mark, and the masks are all zero whenever
  /// no set is in flight. Every mark appends its node to the lane's list,
  /// so the list is exactly the nodes to clear.
  void FinishSlot(std::size_t slot) {
    const std::vector<NodeId>& nodes = slot_nodes_[slot];
    const LaneMask bit = LaneMask{1} << slot;
    for (const NodeId v : nodes) {
      SUBSIM_DCHECK((lane_marks_[v] & bit) != 0,
                    "finished RR set holds a node its lane never marked");
      lane_marks_[v] &= ~bit;
    }
    const std::uint32_t set = lane_set_[slot];
    set_offset_[set] = arena_.size();
    set_size_[set] = static_cast<std::uint32_t>(nodes.size());
    arena_.insert(arena_.end(), nodes.begin(), nodes.end());
  }

  /// Flushes the chunk's sets to the sink in set-index order.
  void FlushChunk(const BatchChunkSink& sink) {
    for (std::size_t i = 0; i < chunk_count_; ++i) {
      const NodeId* begin = arena_.data() + set_offset_[i];
      sink.nodes->insert(sink.nodes->end(), begin, begin + set_size_[i]);
      sink.sizes->push_back(set_size_[i]);
      sink.hits->push_back(set_hit_[i]);
      ++stats_.sets_generated;
      stats_.nodes_added += set_size_[i];
      if (set_hit_[i] != 0) {
        ++stats_.sentinel_hits;
      }
    }
  }

  void MarkLaneHit(std::size_t slot) { set_hit_[lane_set_[slot]] = 1; }

  const Graph& graph_;
  RrGenStats stats_;
  // The thread's scratch, or `own_scratch_` when another kernel on this
  // thread holds it.
  std::unique_ptr<KernelScratch> own_scratch_;
  KernelScratch* scratch_ = nullptr;
  // One lane mask per node (at least; see `KernelScratch::Fit`).
  LaneMask* lane_marks_ = nullptr;
  BitVector* sentinel_ = nullptr;
  bool has_sentinels_ = false;

  // SoA lane state, reused across chunks.
  std::vector<Rng> lane_rngs_;
  std::uint32_t lane_set_[kMaxLanes] = {};
  NodeId lane_root_[kMaxLanes] = {};
  std::uint32_t lane_head_[kMaxLanes] = {};  // next frontier index
  std::uint8_t lane_state_[kMaxLanes] = {};
  std::vector<NodeId> slot_nodes_[kMaxLanes];  // frontier + output, FIFO

  // Per-chunk set table: where each set landed in the arena.
  std::vector<NodeId> arena_;
  std::vector<std::size_t> set_offset_;
  std::vector<std::uint32_t> set_size_;
  std::vector<std::uint8_t> set_hit_;

  std::uint64_t base_seed_ = 0;
  std::uint64_t first_index_ = 0;
  std::size_t chunk_count_ = 0;
  std::size_t next_set_ = 0;
};

/// CRTP scheduler: drives `Derived::Step` over the live-slot bitmask with
/// no virtual dispatch on the per-visit path. `Derived` provides
///   bool Step(std::size_t slot);            // one pipeline step
///   void PrefetchNodeData(std::size_t, NodeId);  // row (+ kernel state)
/// and may keep extra per-slot state it resets in `OnChunkStart`.
template <class Derived>
class BatchKernelCrtp : public BatchKernelBase {
 public:
  using BatchKernelBase::BatchKernelBase;

  void GenerateChunk(std::uint64_t base_seed, std::uint64_t first_index,
                     std::size_t count, const BatchChunkSink& sink) final {
    SUBSIM_CHECK(sink.nodes != nullptr && sink.sizes != nullptr &&
                     sink.hits != nullptr,
                 "BatchChunkSink arrays must be set");
    if (count == 0) {
      return;
    }
    Derived* self = static_cast<Derived*>(this);
    BeginChunk(base_seed, first_index, count);
    self->OnChunkStart();

    const std::size_t lanes = count < kMaxLanes ? count : kMaxLanes;
    LaneMask live =
        lanes == kMaxLanes ? ~LaneMask{0} : (LaneMask{1} << lanes) - 1;
    for (std::size_t slot = 0; slot < lanes; ++slot) {
      SeedSlot(slot);
    }

    // Round-robin over the live slots: one pipeline step per visit. A
    // finished slot reseeds in place while sets remain (its root-commit
    // runs next round, giving the seed prefetches a round to land), and
    // drops out of the mask once the chunk runs dry. Visit order never
    // matters for the output bytes — only each lane's own FIFO order
    // does.
    while (live != 0) {
      LaneMask round = live;
      while (round != 0) {
        const unsigned slot = static_cast<unsigned>(std::countr_zero(round));
        round &= round - 1;
        const bool done = lane_state_[slot] == kRootCommit
                              ? CommitRootAndPrefetch(self, slot)
                              : self->Step(slot);
        if (!done) {
          continue;
        }
        FinishSlot(slot);
        if (next_set_ < chunk_count_) {
          SeedSlot(slot);
        } else {
          live &= ~(LaneMask{1} << slot);
        }
      }
    }
    FlushChunk(sink);
  }

 private:
  bool CommitRootAndPrefetch(Derived* self, std::size_t slot) {
    if (CommitRoot(slot)) {
      return true;
    }
    self->PrefetchNodeData(slot, lane_root_[slot]);
    return false;
  }
};

/// Counts the in-(0,1) probabilities — the ones whose Bernoulli consumes a
/// draw — so a bulk draw can cover an edge list in one inline RNG pass.
std::size_t CountConditionalDraws(std::span<const double> probs) {
  std::size_t c = 0;
  for (double p : probs) {
    c += (p > 0.0 && p < 1.0) ? 1 : 0;
  }
  return c;
}

/// Vanilla IC, batched. Two edge-expansion paths:
///  * no sentinels — the scalar loop never stops mid-list and activation
///    outcomes never change the draw stream, so a run step first commits
///    the previous visit's coin-pass targets (masks prefetched a round
///    ago), then expands one frontier node with bulk-drawn coins
///    (`NextU64Batch`), deferring the new targets to the next visit. A
///    node appended by this visit's commit is not expanded until the next
///    visit, so its row prefetch always gets a full round in flight;
///  * sentinels installed — a hit aborts the list mid-edge and the
///    remaining edges draw nothing, so deferring anything would run the
///    stream ahead; use the shared scalar primitive inline.
class VanillaBatchKernel final : public BatchKernelCrtp<VanillaBatchKernel> {
 public:
  using BatchKernelCrtp::BatchKernelCrtp;
  const char* name() const override { return "vanilla-ic-batch"; }

  void OnChunkStart() {
    for (auto& pending : pending_) {
      pending.clear();
    }
  }

  void PrefetchNodeData(std::size_t slot, NodeId v) {
    (void)slot;
    stats_.prefetch_lines += graph_.PrefetchInRow(v);
  }

  bool Step(std::size_t slot) {
    return has_sentinels_ ? StepSentinel(slot) : StepPipelined(slot);
  }

 private:
  bool StepPipelined(std::size_t slot) {
    std::vector<NodeId>& nodes = slot_nodes_[slot];
    const std::uint32_t safe = static_cast<std::uint32_t>(nodes.size());
    std::vector<NodeId>& pending = pending_[slot];
    if (!pending.empty()) {
      for (NodeId w : pending) {
        if (MarkLane(slot, w)) {
          nodes.push_back(w);
          stats_.prefetch_lines += graph_.PrefetchInRow(w);
        }
      }
      pending.clear();
    }
    if (lane_head_[slot] == nodes.size()) {
      return true;
    }
    if (lane_head_[slot] >= safe) {
      return false;  // appended this visit; give its row a round in flight
    }
    const NodeId u = nodes[lane_head_[slot]++];
    const InRowMeta& meta = graph_.InMeta(u);
    stats_.edges_examined += meta.degree;
    const auto sources = graph_.InSourcesAt(meta.begin, meta.degree);
    if (meta.uniform()) {
      // Uniform row (WC / Uniform IC): the weight rides in the packed
      // descriptor, so the O(m) weights row is never read — same p for
      // every edge, so the draw stream and comparisons are bit-identical
      // to the general path below.
      const double p = meta.uniform_weight;
      if (p >= 1.0) {
        for (const NodeId w : sources) {
          Discover(pending, w);
        }
      } else if (p > 0.0) {
        draw_buf_.resize(meta.degree);
        lane_rngs_[slot].NextU64Batch(draw_buf_.data(), meta.degree);
        for (std::size_t e = 0; e < sources.size(); ++e) {
          if (Rng::ToUnitDouble(draw_buf_[e]) < p) {
            Discover(pending, sources[e]);
          }
        }
      }
    } else {
      const auto weights = graph_.InWeightsAt(meta.begin, meta.degree);
      const std::size_t draws = CountConditionalDraws(weights);
      draw_buf_.resize(draws);
      lane_rngs_[slot].NextU64Batch(draw_buf_.data(), draws);
      std::size_t j = 0;
      for (std::size_t e = 0; e < sources.size(); ++e) {
        const double p = weights[e];
        if (p <= 0.0) {
          continue;
        }
        if (p < 1.0 && !(Rng::ToUnitDouble(draw_buf_[j++]) < p)) {
          continue;
        }
        Discover(pending, sources[e]);
      }
    }
    return pending.empty() && lane_head_[slot] == nodes.size();
  }

  /// Records a coin-pass target for the next visit's commit and prefetches
  /// the two lines that commit will touch (lane mask, row descriptor).
  void Discover(std::vector<NodeId>& pending, NodeId w) {
    pending.push_back(w);
    PrefetchMark(w);
    graph_.PrefetchInMeta(w);
  }

  bool StepSentinel(std::size_t slot) {
    std::vector<NodeId>& nodes = slot_nodes_[slot];
    const NodeId u = nodes[lane_head_[slot]++];
    const auto try_activate = [&](NodeId w) {
      if (!MarkLane(slot, w)) {
        return false;  // already active
      }
      nodes.push_back(w);
      graph_.PrefetchInMeta(w);
      return sentinel_->Get(w);
    };
    if (ExpandVanillaInEdges(graph_, u, lane_rngs_[slot],
                             &stats_.edges_examined, try_activate)) {
      MarkLaneHit(slot);
      return true;
    }
    if (lane_head_[slot] == nodes.size()) {
      return true;
    }
    PrefetchNodeData(slot, nodes[lane_head_[slot]]);
    return false;
  }

  std::vector<NodeId> pending_[kMaxLanes];
  std::vector<std::uint64_t> draw_buf_;
};

/// SUBSIM IC, batched: the graph's shared `SubsimExpandCore` plans drive
/// the traversal, exactly as in the scalar generator; only the activation
/// sink and the small-degree naive policy (bulk draws) differ. Without sentinels the draws are independent of
/// activation outcomes, so the sink merely collects candidates and the
/// run step commits them a round later (same pipeline as the vanilla
/// kernel). With sentinels a stop truncates the take-all emission loop,
/// so the sink must mark inline — that path mirrors the scalar
/// generator. The naive plan's draw count is data-independent even under
/// sentinels — the scalar path keeps flipping coins after a stop
/// (activations become no-ops) — so the bulk policy is unconditionally
/// stream-legal.
class SubsimBatchKernel final : public BatchKernelCrtp<SubsimBatchKernel> {
 public:
  explicit SubsimBatchKernel(const Graph& graph)
      : BatchKernelCrtp(graph), core_(SubsimExpandCore::Shared(graph)) {}

  const char* name() const override { return "subsim-ic-batch"; }

  void OnChunkStart() {
    for (auto& pending : pending_) {
      pending.clear();
    }
  }

  void PrefetchSeedMeta(NodeId root) override { core_.PrefetchPlan(root); }

  void PrefetchNodeData(std::size_t slot, NodeId v) {
    (void)slot;
    stats_.prefetch_lines += core_.PrefetchRow(graph_, v);
  }

  bool Step(std::size_t slot) {
    return has_sentinels_ ? StepSentinel(slot) : StepPipelined(slot);
  }

 private:
  /// No-sentinel sink: collect candidates and prefetch what their commit
  /// will touch; never stops, so every emission loop runs to its natural
  /// end exactly like the scalar path with no sentinels installed.
  struct CollectSink {
    SubsimBatchKernel* kernel;
    std::vector<NodeId>* pending;
    void Activate(NodeId w) {
      pending->push_back(w);
      kernel->PrefetchMark(w);
      kernel->core_.PrefetchPlan(w);
    }
    bool stopped() const { return false; }
  };

  /// Sentinel sink: the scalar generator's semantics — mark inline, stop
  /// the traversal when a sentinel activates.
  struct InlineSink {
    SubsimBatchKernel* kernel;
    std::vector<NodeId>* nodes;
    std::size_t slot;
    bool stopped_;
    void Activate(NodeId w) {
      if (stopped_ || !kernel->MarkLane(slot, w)) {
        return;
      }
      nodes->push_back(w);
      kernel->core_.PrefetchPlan(w);
      if (kernel->sentinel_->Get(w)) {
        stopped_ = true;
      }
    }
    bool stopped() const { return stopped_; }
  };

  bool StepPipelined(std::size_t slot) {
    std::vector<NodeId>& nodes = slot_nodes_[slot];
    const std::uint32_t safe = static_cast<std::uint32_t>(nodes.size());
    std::vector<NodeId>& pending = pending_[slot];
    if (!pending.empty()) {
      for (NodeId w : pending) {
        if (MarkLane(slot, w)) {
          nodes.push_back(w);
          stats_.prefetch_lines += core_.PrefetchRow(graph_, w);
        }
      }
      pending.clear();
    }
    if (lane_head_[slot] == nodes.size()) {
      return true;
    }
    if (lane_head_[slot] >= safe) {
      return false;  // appended this visit; give its row a round in flight
    }
    const NodeId u = nodes[lane_head_[slot]++];
    CollectSink sink{this, &pending};
    BulkNaivePolicy naive{&draw_buf_};
    core_.ExpandNode(graph_, u, lane_rngs_[slot], &stats_, sink, naive);
    return pending.empty() && lane_head_[slot] == nodes.size();
  }

  bool StepSentinel(std::size_t slot) {
    std::vector<NodeId>& nodes = slot_nodes_[slot];
    const NodeId u = nodes[lane_head_[slot]++];
    InlineSink sink{this, &nodes, slot, false};
    BulkNaivePolicy naive{&draw_buf_};
    if (core_.ExpandNode(graph_, u, lane_rngs_[slot], &stats_, sink, naive)) {
      MarkLaneHit(slot);
      return true;
    }
    if (lane_head_[slot] == nodes.size()) {
      return true;
    }
    PrefetchNodeData(slot, nodes[lane_head_[slot]]);
    return false;
  }

  /// Stream-identical replacement for `ScalarNaivePolicy`: bulk-draws the
  /// coins, then replays the scalar comparisons in order. The uniform hook
  /// never reads the weights row — `p` arrives via the plan descriptor.
  struct BulkNaivePolicy {
    std::vector<std::uint64_t>* buf;
    template <class Emit>
    void operator()(NodeId /*u*/, std::span<const double> probs, Rng& rng,
                    Emit&& emit) const {
      const std::size_t draws = CountConditionalDraws(probs);
      buf->resize(draws);
      rng.NextU64Batch(buf->data(), draws);
      std::size_t j = 0;
      for (std::size_t i = 0; i < probs.size(); ++i) {
        const double p = probs[i];
        if (p <= 0.0) {
          continue;
        }
        if (p >= 1.0 || Rng::ToUnitDouble((*buf)[j++]) < p) {
          emit(static_cast<std::uint32_t>(i));
        }
      }
    }
    template <class Emit>
    void UniformRow(std::uint32_t degree, double p, Rng& rng,
                    Emit&& emit) const {
      if (p <= 0.0) {
        return;
      }
      if (p >= 1.0) {
        for (std::uint32_t i = 0; i < degree; ++i) {
          emit(i);
        }
        return;
      }
      buf->resize(degree);
      rng.NextU64Batch(buf->data(), degree);
      for (std::uint32_t i = 0; i < degree; ++i) {
        if (Rng::ToUnitDouble((*buf)[i]) < p) {
          emit(i);
        }
      }
    }
  };

  const SubsimExpandCore& core_;
  std::vector<NodeId> pending_[kMaxLanes];
  std::vector<std::uint64_t> draw_buf_;
};

/// LT, batched. The live-edge walk is inherently sequential in its draws
/// (each step's pick decides whether there is a next step), so everything
/// here is memory-level parallelism: dozens of walks advance round-robin
/// through a two-phase pipeline. The pick phase draws the next candidate
/// from resident data and prefetches the candidate's lane mask and its pick
/// descriptor (weight sum, row position, alias marker); the commit phase
/// (a round later) marks it, appends it, and prefetches its in-source row
/// for the following pick — never its in-weights, which the pick does not
/// read.
class LtBatchKernel final : public BatchKernelCrtp<LtBatchKernel> {
 public:
  LtBatchKernel(const Graph& graph, const LtEdgePicker& picker)
      : BatchKernelCrtp(graph), picker_(picker) {}

  const char* name() const override { return "lt-batch"; }

  void OnChunkStart() {}

  void PrefetchSeedMeta(NodeId root) override { picker_.PrefetchPick(root); }

  void PrefetchNodeData(std::size_t slot, NodeId v) {
    (void)slot;
    stats_.prefetch_lines += picker_.PrefetchRow(graph_, v);
  }

  bool Step(std::size_t slot) {
    std::vector<NodeId>& nodes = slot_nodes_[slot];
    if (lane_pick_[slot] != 0) {
      lane_pick_[slot] = 0;
      const NodeId next = lane_candidate_[slot];
      if (!MarkLane(slot, next)) {
        return true;  // walked into the existing set
      }
      nodes.push_back(next);
      if (has_sentinels_ && sentinel_->Get(next)) {
        MarkLaneHit(slot);
        return true;
      }
      stats_.prefetch_lines += picker_.PrefetchRow(graph_, next);
      return false;
    }

    const NodeId next =
        picker_.PickInNeighbor(graph_, nodes.back(), lane_rngs_[slot],
                               &stats_);
    if (next == kInvalidNode) {
      return true;  // dead end
    }
    lane_candidate_[slot] = next;
    PrefetchMark(next);
    picker_.PrefetchPick(next);
    lane_pick_[slot] = 1;
    return false;
  }

 private:
  const LtEdgePicker& picker_;
  NodeId lane_candidate_[kMaxLanes] = {};
  std::uint8_t lane_pick_[kMaxLanes] = {};
};

}  // namespace

Result<std::unique_ptr<BatchRrKernel>> BatchRrKernel::Create(
    GeneratorKind kind, const Graph& graph) {
  switch (kind) {
    case GeneratorKind::kVanillaIc:
      return std::unique_ptr<BatchRrKernel>(new VanillaBatchKernel(graph));
    case GeneratorKind::kSubsimIc:
      return std::unique_ptr<BatchRrKernel>(new SubsimBatchKernel(graph));
    case GeneratorKind::kLt: {
      Result<const LtEdgePicker*> picker = LtEdgePicker::Shared(graph);
      if (!picker.ok()) {
        return picker.status();
      }
      return std::unique_ptr<BatchRrKernel>(
          new LtBatchKernel(graph, **picker));
    }
  }
  return Status::InvalidArgument("unknown generator kind");
}

}  // namespace subsim
