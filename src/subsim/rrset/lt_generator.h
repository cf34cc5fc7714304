#ifndef SUBSIM_RRSET_LT_GENERATOR_H_
#define SUBSIM_RRSET_LT_GENERATOR_H_

#include <atomic>
#include <memory>
#include <vector>

#include "subsim/graph/graph.h"
#include "subsim/random/alias_table.h"
#include "subsim/rrset/rr_generator.h"
#include "subsim/util/bit_vector.h"
#include "subsim/util/prefetch.h"
#include "subsim/util/status.h"

namespace subsim {

/// The per-step draw primitive of the LT live-edge walk, factored out of
/// the scalar generator so the batched kernel consumes the identical RNG
/// stream: one NextDouble against the in-weight sum, then a uniform or
/// alias-table pick among the in-neighbors.
///
/// The picker is the immutable, per-graph half of an LT generator: the
/// per-node pick records and the alias tables of nodes with skewed
/// in-weights, built once per graph (`Shared`) and read concurrently by
/// every worker, fill and store of that graph. It holds row positions, not
/// the graph, so the calls that read adjacency take the graph it was built
/// from.
class LtEdgePicker {
 public:
  /// The graph's shared picker, built on the first call for `graph` and
  /// owned by it (`Graph::Derived`). LT requires each node's incoming
  /// weights to sum to at most 1 (+ 1e-9); the build checks this first and
  /// fails with InvalidArgument naming the first violating node, a verdict
  /// every later call returns too.
  static Result<const LtEdgePicker*> Shared(const Graph& graph);

  /// Pickers constructed in this process so far. Lets tests check that a
  /// solve builds each graph's picker once.
  static std::uint64_t constructions() {
    return constructions_.load(std::memory_order_relaxed);
  }

  /// Picks the live in-neighbor of v, or kInvalidNode for "no live edge".
  /// Draw contract: zero draws when the in-weight sum is <= 0; otherwise
  /// one NextDouble, plus one pick draw only when the live-edge draw lands
  /// inside the sum. Bumps `stats->edges_examined` per live-edge draw.
  NodeId PickInNeighbor(const Graph& graph, NodeId v, Rng& rng,
                        RrGenStats* stats) const {
    const PickMeta& pm = meta_[v];
    if (pm.weight_sum <= 0.0) {
      return kInvalidNode;
    }
    ++stats->edges_examined;
    if (rng.NextDouble() >= pm.weight_sum) {
      return kInvalidNode;  // no live in-edge for v
    }
    const auto sources = graph.InSourcesAt(pm.begin, pm.degree);
    if (pm.has_alias == 0) {
      // Uniform in-weights: live edge uniform among in-neighbors.
      return sources[rng.UniformInt(sources.size())];
    }
    return sources[alias_[v]->Sample(rng)];
  }

  /// Prefetches the packed per-node descriptor `PickInNeighbor(v)` reads
  /// before it touches the in-row: weight sum, CSR position, and the
  /// alias marker in one cache line. Safe to issue the moment `v` is
  /// drawn.
  void PrefetchPick(NodeId v) const { PrefetchRead(meta_.data() + v); }

  /// Prefetches the leading lines of v's in-source row, the only part of
  /// the row `PickInNeighbor(v)` reads: a skewed row's weights live in its
  /// alias table, so the graph's in-weight lines are never touched. Reads
  /// v's descriptor (expected warm after `PrefetchPick`). Returns the
  /// lines issued, for the `rr.prefetch_lines` counter.
  unsigned PrefetchRow(const Graph& graph, NodeId v) const {
    const PickMeta& pm = meta_[v];
    return graph.PrefetchInSourcesAt(pm.begin, pm.degree);
  }

 private:
  explicit LtEdgePicker(const Graph& graph);

  /// Packed per-node pick descriptor: everything a walk step needs before
  /// indexing the in-source row, in one 16-byte record (four per cache
  /// line) — the live-edge draw threshold, the CSR position, and whether
  /// a skewed-weight alias table exists. Replaces separate weight-sum /
  /// offset / alias-pointer lookups on the hot path.
  struct PickMeta {
    double weight_sum = 0.0;
    std::uint32_t begin = 0;
    std::uint32_t degree : 31 = 0;
    std::uint32_t has_alias : 1 = 0;
  };
  static_assert(sizeof(PickMeta) == 16, "PickMeta must pack 4 per line");

  std::vector<PickMeta> meta_;
  /// Alias tables for nodes with skewed in-weights, indexed by node; null
  /// for uniform ones, and empty when every row is uniform.
  std::vector<std::unique_ptr<AliasTable>> alias_;

  static inline std::atomic<std::uint64_t> constructions_{0};
};

/// Linear Threshold RR-set generator.
///
/// Under the live-edge interpretation of LT, each node keeps at most one
/// incoming live edge: in-neighbor w is picked with probability p(w, v),
/// and no edge with probability 1 - sum_w p(w, v). A reverse traversal is
/// therefore a random walk that stops on a revisit, a dead end, or a
/// no-edge draw. Per step cost is O(1): uniform pick for equal weights,
/// alias-table pick otherwise (the graph's shared `LtEdgePicker`).
///
/// The per-node incoming weight sums must not exceed 1 (LT requirement);
/// `Create` validates this.
class LtGenerator final : public RrGenerator {
 public:
  /// Fails with InvalidArgument if some node's incoming weights sum above
  /// 1 + 1e-9 (see `LtEdgePicker::Shared`). `graph` must outlive the
  /// generator.
  static Result<std::unique_ptr<LtGenerator>> Create(const Graph& graph);

  bool Generate(Rng& rng, std::vector<NodeId>* out) override;
  void SetSentinels(std::span<const NodeId> sentinels) override;
  const RrGenStats& stats() const override { return stats_; }
  void ResetStats() override { stats_ = RrGenStats{}; }
  const char* name() const override { return "lt"; }

 private:
  LtGenerator(const Graph& graph, const LtEdgePicker& picker);

  const Graph& graph_;
  const LtEdgePicker& picker_;
  RrGenStats stats_;
  BitVector activated_;
  BitVector sentinel_;
  bool has_sentinels_ = false;
};

}  // namespace subsim

#endif  // SUBSIM_RRSET_LT_GENERATOR_H_
