#ifndef SUBSIM_GRAPH_GRAPH_H_
#define SUBSIM_GRAPH_GRAPH_H_

#include <array>
#include <cmath>
#include <cstddef>
#include <memory>
#include <mutex>
#include <span>
#include <vector>

#include "subsim/graph/types.h"
#include "subsim/util/check.h"
#include "subsim/util/prefetch.h"

namespace subsim {

/// Packed per-node in-row descriptor, and the graph's only one: CSR
/// position, in-degree, and the shared edge weight when the row is uniform
/// (WC / Uniform IC). 16 bytes, four to a cache line, so a reverse
/// expansion pays ONE line per node before it touches the adjacency row;
/// on DRAM-resident graphs scattered per-node reads were the dominant
/// stall source.
///
/// `uniform_weight` is bit-identical to the input weight of every edge of
/// a uniform row (the builder copies, never recomputes), 0 for a row with
/// no in-edges, and NaN when the row has skewed weights — only those rows
/// have an `InWeights` row. `begin` is 32-bit — the builder refuses graphs
/// with 2^32 or more edges, far above the paper's largest dataset.
struct InRowMeta {
  double uniform_weight = 0.0;
  std::uint32_t begin = 0;
  std::uint32_t degree = 0;

  /// True when every in-edge shares `uniform_weight` (false = NaN marker).
  bool uniform() const { return !std::isnan(uniform_weight); }
};
static_assert(sizeof(InRowMeta) == 16, "InRowMeta must pack 4 per line");

/// Immutable directed graph in compressed-sparse-row form.
///
/// Both directions are materialized:
///  * out-adjacency — used by forward cascade simulation (`eval/`) and by
///    the out-degree tie-break of the revised greedy (Algorithm 6);
///  * in-adjacency — used by every reverse-reachable-set generator, which
///    traverses edges against their direction.
///
/// Which arrays exist:
///  * every graph: out-CSR (offsets, targets, weights), in-sources, and per
///    node `InRowMeta` plus the in-weight sum;
///  * per-edge in-weights only when at least one in-row is skewed. Under
///    WC, the WC variant and Uniform IC every row is uniform and its
///    weight lives in `InRowMeta`, so the array is never allocated.
/// Out-edge weights repeat the in-side weights on purpose: forward IC
/// Monte Carlo reads them in out-row order. Making each out-edge read its
/// target's `InRowMeta` instead slowed a 50-seed simulation on a 1M-node,
/// 10M-edge undirected BA graph (uniform p = 0.05) from 97-111 ms to
/// 155-191 ms, with identical activation counts.
///
/// Each skewed in-row is ordered by descending weight (ties by ascending
/// source), which the index-free general-IC sampler requires (paper
/// Section 3.3); uniform rows and out-rows keep insertion order.
///
/// Instances are created by `GraphBuilder`; the class itself is read-only,
/// cheap to move, and deliberately has no mutation API. The one exception
/// is `Derived`: immutable state that layers above graph/ derive from the
/// graph, built once on first use and owned by it (see there).
class Graph {
 public:
  Graph() = default;

  Graph(const Graph&) = delete;
  Graph& operator=(const Graph&) = delete;
  Graph(Graph&&) = default;
  Graph& operator=(Graph&&) = default;

  NodeId num_nodes() const { return num_nodes_; }
  EdgeIndex num_edges() const { return num_edges_; }

  /// Average degree m/n (0 for the empty graph).
  double average_degree() const {
    return num_nodes_ == 0
               ? 0.0
               : static_cast<double>(num_edges_) / num_nodes_;
  }

  NodeId OutDegree(NodeId u) const {
    SUBSIM_DCHECK(u < num_nodes_, "node out of range");
    return static_cast<NodeId>(out_offsets_[u + 1] - out_offsets_[u]);
  }

  NodeId InDegree(NodeId v) const { return InMeta(v).degree; }

  /// Targets of u's out-edges.
  std::span<const NodeId> OutNeighbors(NodeId u) const {
    SUBSIM_DCHECK(u < num_nodes_, "node out of range");
    return {out_targets_.data() + out_offsets_[u],
            out_targets_.data() + out_offsets_[u + 1]};
  }

  /// p(u, v) for each out-edge of u, aligned with `OutNeighbors(u)`.
  std::span<const double> OutWeights(NodeId u) const {
    SUBSIM_DCHECK(u < num_nodes_, "node out of range");
    return {out_weights_.data() + out_offsets_[u],
            out_weights_.data() + out_offsets_[u + 1]};
  }

  /// Sources of v's in-edges.
  std::span<const NodeId> InNeighbors(NodeId v) const {
    const InRowMeta& meta = InMeta(v);
    return InSourcesAt(meta.begin, meta.degree);
  }

  /// p(u, v) for each in-edge of a skewed row v, aligned with
  /// `InNeighbors(v)`. A uniform row has no weights row: read
  /// `InMeta(v).uniform_weight` instead.
  std::span<const double> InWeights(NodeId v) const {
    const InRowMeta& meta = InMeta(v);
    SUBSIM_DCHECK(!meta.uniform(), "InWeights on a uniform row");
    return InWeightsAt(meta.begin, meta.degree);
  }

  /// Sum of in-edge weights of v (the LT activation budget; also the
  /// expected number of sampled in-neighbors under IC).
  double InWeightSum(NodeId v) const {
    SUBSIM_DCHECK(v < num_nodes_, "node out of range");
    return in_weight_sums_[v];
  }

  /// The packed in-row descriptor of v (see `InRowMeta`): degree, row
  /// position, and `uniform()` / `uniform_weight` for WC-style rows.
  const InRowMeta& InMeta(NodeId v) const {
    SUBSIM_DCHECK(v < num_nodes_, "node out of range");
    return in_row_meta_[v];
  }

  /// Software-prefetch hook for `InMeta(v)`.
  void PrefetchInMeta(NodeId v) const {
    SUBSIM_DCHECK(v < num_nodes_, "node out of range");
    PrefetchRead(in_row_meta_.data() + v);
  }

  /// In-neighbor sources addressed by a row position from an `InRowMeta`
  /// (or a kernel-private packed descriptor holding the same position).
  std::span<const NodeId> InSourcesAt(std::size_t begin,
                                      std::size_t count) const {
    SUBSIM_DCHECK(begin + count <= in_sources_.size(), "row out of range");
    return {in_sources_.data() + begin, count};
  }

  /// In-edge weights addressed by the row position of a skewed row,
  /// aligned with `InSourcesAt(begin, count)`.
  std::span<const double> InWeightsAt(std::size_t begin,
                                      std::size_t count) const {
    SUBSIM_DCHECK(begin + count <= in_weights_.size(), "row out of range");
    return {in_weights_.data() + begin, count};
  }

  /// Software-prefetch hook: pulls the leading cache lines of `v`'s
  /// in-neighbor array, plus the leading lines of its in-weight row only
  /// when the row has skewed weights — mirroring exactly what a
  /// uniform-aware expansion will read, so no bandwidth (or line-fill
  /// buffer) is spent on weight lines the sampler will never touch (the
  /// uniform weight rides inside `InRowMeta`). Reads `in_row_meta_[v]`
  /// (expected warm after `PrefetchInMeta`); issues at most `max_lines`
  /// lines per array. Returns the number of prefetch instructions issued,
  /// which the batched kernel accumulates into the `rr.prefetch_lines`
  /// counter.
  unsigned PrefetchInRow(NodeId v, unsigned max_lines = 2) const {
    SUBSIM_DCHECK(v < num_nodes_, "node out of range");
    const InRowMeta& meta = in_row_meta_[v];
    unsigned lines = PrefetchInSourcesAt(meta.begin, meta.degree, max_lines);
    if (!meta.uniform()) {
      lines += PrefetchReadRange(in_weights_.data() + meta.begin,
                                 meta.degree * sizeof(double), max_lines);
    }
    return lines;
  }

  /// Software-prefetch hook for the in-neighbor sources alone, addressed
  /// like `InSourcesAt`: for samplers that pick from a row without reading
  /// its weights (LT's alias tables hold their own). Same line cap and
  /// return value as `PrefetchInRow`.
  unsigned PrefetchInSourcesAt(std::size_t begin, std::size_t count,
                               unsigned max_lines = 2) const {
    SUBSIM_DCHECK(begin + count <= in_sources_.size(), "row out of range");
    return PrefetchReadRange(in_sources_.data() + begin,
                             count * sizeof(NodeId), max_lines);
  }

  /// Reconstructs the raw edge list (out-edge order). Mostly for IO and
  /// tests.
  EdgeList ToEdgeList() const;

  /// Kinds of state derived from a graph by layers above graph/. Each slot
  /// holds one type, and only one accessor builds it:
  ///  * kSubsimPlan — `SubsimExpandCore::Shared` (rrset/): the SUBSIM node
  ///    plans, 16 bytes per node;
  ///  * kLtPlan — `LtEdgePicker::Shared` (rrset/): LT's pick records and
  ///    alias tables, or the weight-sum check that rejected the graph;
  ///  * kZeroGainOrder — `ZeroGainOrder` (coverage/): every node sorted by
  ///    (out-degree, id) descending, the order in which Revised-Greedy
  ///    takes zero-gain seeds.
  enum class DerivedSlot : std::uint8_t {
    kSubsimPlan,
    kLtPlan,
    kZeroGainOrder,
    kCount
  };

  /// The state in `slot`, built by `build()` (returning a
  /// `std::unique_ptr<T>`) on the first call for this graph; every later
  /// call returns the same object. Concurrent first callers block until
  /// the one build finishes (`std::call_once`), and the state is
  /// immutable afterwards, so any number of threads may read it.
  ///
  /// The state lives behind a pointer the graph owns, so moving the graph
  /// moves it along at the same address; it must therefore hold row
  /// positions and parameters only, never a reference to the graph. A
  /// graph update builds a new `Graph`, which starts with empty slots, so
  /// derived state never needs invalidating.
  template <class T, class Build>
  const T& Derived(DerivedSlot slot, Build&& build) const {
    DerivedState& state = derived_->slots[static_cast<std::size_t>(slot)];
    std::call_once(state.once,
                   [&] { state.value = std::shared_ptr<const T>(build()); });
    return *static_cast<const T*>(state.value.get());
  }

 private:
  friend class GraphBuilder;

  struct DerivedState {
    std::once_flag once;
    std::shared_ptr<const void> value;  // type-erased; see DerivedSlot
  };
  struct DerivedSlots {
    std::array<DerivedState, static_cast<std::size_t>(DerivedSlot::kCount)>
        slots;
  };

  NodeId num_nodes_ = 0;
  EdgeIndex num_edges_ = 0;

  std::vector<EdgeIndex> out_offsets_;  // size n+1
  std::vector<NodeId> out_targets_;     // size m
  std::vector<double> out_weights_;     // size m

  std::vector<NodeId> in_sources_;  // size m
  std::vector<double> in_weights_;  // size m if any row is skewed, else 0

  std::vector<double> in_weight_sums_;  // size n
  std::vector<InRowMeta> in_row_meta_;  // size n; see InRowMeta

  /// Behind a pointer: `std::once_flag` cannot move, and the state's
  /// address must survive a move of the graph.
  std::unique_ptr<DerivedSlots> derived_ = std::make_unique<DerivedSlots>();
};

}  // namespace subsim

#endif  // SUBSIM_GRAPH_GRAPH_H_
