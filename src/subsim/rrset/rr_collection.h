#ifndef SUBSIM_RRSET_RR_COLLECTION_H_
#define SUBSIM_RRSET_RR_COLLECTION_H_

#include <cstdint>
#include <limits>
#include <span>
#include <vector>

#include "subsim/graph/types.h"
#include "subsim/rrset/rr_encoding.h"
#include "subsim/util/check.h"

namespace subsim {

/// Identifier of an RR set inside an `RrCollection`.
using RrId = std::uint32_t;

class RrCollectionView;

/// Read-only handle to one stored RR set.
///
/// This is the only way to read set contents: the collection's storage
/// encoding (`RrEncoding`) is a private detail behind it, so consumers are
/// insulated from the arena layout. Three access shapes:
///
///  - `size()`: member count, O(1) for every encoding;
///  - `ForEachNode(fn)`: visit each member in storage order (generator
///    discovery order for kRaw, ascending for kDeltaVarint) without
///    materializing anything — the streaming path;
///  - `Decode(&scratch)`: bulk-decode into a caller-owned scratch vector
///    and return a span of all members — the batch path. Zero-copy for
///    kRaw (the span aliases the arena and `scratch` is untouched);
///    kDeltaVarint decodes into `scratch`. Reuse one scratch across calls
///    (per thread — the view itself is freely copyable and const).
///
/// Views borrow the parent arena: valid while the parent collection is
/// alive and not `Clear()`ed, like the spans the old API returned.
class RrSetView {
 public:
  RrSetView() = default;

  std::size_t size() const { return size_; }
  bool empty() const { return size_ == 0; }
  RrEncoding encoding() const { return encoding_; }

  template <typename Fn>
  void ForEachNode(Fn&& fn) const {
    if (encoding_ == RrEncoding::kRaw) {
      for (std::size_t i = 0; i < size_; ++i) {
        fn(raw_[i]);
      }
      return;
    }
    const std::uint8_t* p = bytes_;
    std::uint64_t value = 0;
    NodeId prev = 0;
    for (std::size_t i = 0; i < size_; ++i) {
      p = DecodeVarint(p, &value);
      prev = i == 0 ? static_cast<NodeId>(value)
                    : static_cast<NodeId>(prev + value);
      fn(prev);
    }
  }

  /// All members as one span; see class comment for the scratch contract.
  std::span<const NodeId> Decode(std::vector<NodeId>* scratch) const {
    if (encoding_ == RrEncoding::kRaw) {
      return {raw_, size_};
    }
    scratch->clear();
    scratch->reserve(size_);
    ForEachNode([scratch](NodeId v) { scratch->push_back(v); });
    return {scratch->data(), scratch->size()};
  }

  /// Allocating convenience for tests and tooling; hot paths should reuse
  /// a scratch via `Decode`.
  std::vector<NodeId> ToVector() const {
    std::vector<NodeId> out;
    out.reserve(size_);
    ForEachNode([&out](NodeId v) { out.push_back(v); });
    return out;
  }

 private:
  friend class RrCollection;

  RrSetView(const NodeId* raw, std::size_t size)
      : raw_(raw), size_(size), encoding_(RrEncoding::kRaw) {}
  RrSetView(const std::uint8_t* bytes, std::size_t size)
      : bytes_(bytes), size_(size), encoding_(RrEncoding::kDeltaVarint) {}

  const NodeId* raw_ = nullptr;
  const std::uint8_t* bytes_ = nullptr;
  std::size_t size_ = 0;
  RrEncoding encoding_ = RrEncoding::kRaw;
};

/// Whether an `RrCollection` keeps a node -> set inverted index.
enum class RrIndexing : std::uint8_t {
  /// `IndexNewSets` merges every new set into the index, which
  /// `SetsContaining` and greedy (`RunCoverageGreedy`) read.
  kIndexed,
  /// No index: `IndexNewSets` is a no-op, the index's per-node block is
  /// never allocated, and `SetsContaining` is unavailable. For collections
  /// that are only counted or scanned (`ComputeCoverage`), such as the
  /// validation collections R₂ of OPIM-C, SSA and HIST.
  kUnindexed,
};

/// Most sets one collection can hold: ids are `RrId`s, so the last id must
/// still fit one. `FillCollection` rejects a fill that would pass it.
inline constexpr std::size_t kMaxRrSets = std::numeric_limits<RrId>::max();

/// A growable pool of reverse-reachable sets, by default with an inverted
/// index.
///
/// Storage is a single arena (offsets + node or byte array, selected by the
/// `RrEncoding` passed at construction), so appending RR sets does one
/// amortized allocation and iteration is cache-friendly. Set contents are
/// read exclusively through `View(id)` (`RrSetView`); the encoding never
/// leaks past it. The inverted index (node -> ids of RR sets containing it)
/// is one CSR over all nodes, built in bulk: a writer `Add`s a batch of
/// sets, then `IndexNewSets()` merges the whole batch with one counting
/// sort. The index is built the same way regardless of encoding; it is what
/// makes the greedy max-coverage pass O(total RR size) — and why the
/// selected seeds are identical across encodings. A collection constructed
/// with `RrIndexing::kUnindexed` has no index at all: greedy cannot read
/// it, but counting coverage on it (`ComputeCoverage`) scans the sets.
///
/// Collections also record, per set, whether its generation was truncated
/// by a sentinel hit (Algorithm 5). Such sets are covered by the sentinel
/// set by construction; `IM-Sentinel` (Algorithm 8 line 5) excludes them
/// from the residual greedy.
///
/// Growth is strictly append-only (ids are stable, index rows stay sorted
/// ascending), which is what makes the prefix-snapshot API (`Prefix`)
/// meaningful: the first N sets never change once added, so a consumer can
/// keep evaluating a fixed prefix while the collection keeps growing —
/// the property the serving cache (`serve/rr_sketch_cache`) is built on.
class RrCollection {
 public:
  explicit RrCollection(NodeId num_nodes,
                        RrEncoding encoding = RrEncoding::kRaw,
                        RrIndexing indexing = RrIndexing::kIndexed)
      : encoding_(encoding),
        indexing_(indexing),
        num_nodes_(num_nodes),
        index_offsets_(
            indexing == RrIndexing::kIndexed
                ? static_cast<std::size_t>(num_nodes) + 1 +
                      (static_cast<std::size_t>(num_nodes) + 1) / 2
                : 0,
            0) {}

  /// Appends one RR set to the arena and the sentinel flags. `nodes` are
  /// the members (root included, each node at most once); `hit_sentinel`
  /// marks sentinel-truncated generation. kRaw stores `nodes` verbatim;
  /// kDeltaVarint stores them sorted ascending (membership-preserving, so
  /// coverage is unaffected). Returns the new set's id. The set is not in
  /// the inverted index until the writer's next `IndexNewSets()`.
  RrId Add(std::span<const NodeId> nodes, bool hit_sentinel);

  /// Merges every set added since the last call into the inverted index,
  /// in place: count the new memberships per node, shift each old row right
  /// by the new memberships of all lower nodes, then scatter the new ids in
  /// ascending order. O(n + moved + new memberships) with no allocation
  /// beyond the ids' growth; rows stay ascending because every new id
  /// exceeds every indexed one. Each writer calls it once per batch, before
  /// anything reads `SetsContaining`. A no-op on an unindexed collection.
  void IndexNewSets();

  RrEncoding encoding() const { return encoding_; }

  /// False for a collection constructed with `RrIndexing::kUnindexed`.
  bool indexed() const { return indexing_ == RrIndexing::kIndexed; }

  std::size_t num_sets() const { return offsets_.size() - 1; }

  /// Total number of node memberships across all sets.
  std::uint64_t total_nodes() const {
    return encoding_ == RrEncoding::kRaw ? arena_.size()
                                         : node_prefix_.back();
  }

  /// Node memberships across the first `num_sets` sets.
  std::uint64_t total_nodes_in_prefix(std::size_t num_sets) const {
    SUBSIM_DCHECK(num_sets < offsets_.size(), "prefix out of range");
    return encoding_ == RrEncoding::kRaw ? offsets_[num_sets]
                                         : node_prefix_[num_sets];
  }

  /// Average RR-set size (0 when empty) — the quantity Figure 3(b) reports.
  double average_size() const {
    return num_sets() == 0
               ? 0.0
               : static_cast<double>(total_nodes()) / num_sets();
  }

  /// Handle to set `id`'s contents. Borrows the arena (see `RrSetView`).
  RrSetView View(RrId id) const {
    SUBSIM_DCHECK(id < num_sets(), "RR id out of range");
    if (encoding_ == RrEncoding::kRaw) {
      return RrSetView(
          arena_.data() + offsets_[id],
          static_cast<std::size_t>(offsets_[id + 1] - offsets_[id]));
    }
    return RrSetView(
        byte_arena_.data() + offsets_[id],
        static_cast<std::size_t>(node_prefix_[id + 1] - node_prefix_[id]));
  }

  bool HitSentinel(RrId id) const {
    SUBSIM_DCHECK(id < num_sets(), "RR id out of range");
    return hit_sentinel_[id] != 0;
  }

  /// Number of sets with the sentinel-hit flag.
  std::size_t num_hit_sentinel() const { return hit_prefix_.back(); }

  /// Sentinel-hit sets among the first `num_sets` sets.
  std::size_t num_hit_sentinel_in_prefix(std::size_t num_sets) const {
    SUBSIM_DCHECK(num_sets < hit_prefix_.size(), "prefix out of range");
    return hit_prefix_[num_sets];
  }

  /// Ids of the RR sets that contain `v`, sorted ascending (sets are
  /// appended with increasing ids). Requires an indexed collection whose
  /// index covers every set.
  std::span<const RrId> SetsContaining(NodeId v) const {
    SUBSIM_DCHECK(indexed(),
                  "SetsContaining on an unindexed RrCollection: it keeps no "
                  "inverted index (RrIndexing::kUnindexed)");
    SUBSIM_DCHECK(v < num_graph_nodes(), "node out of range");
    SUBSIM_DCHECK(indexed_sets_ == num_sets(),
                  "RR sets added but not indexed (IndexNewSets)");
    return std::span<const RrId>(index_ids_).subspan(
        index_offsets_[v], index_offsets_[v + 1] - index_offsets_[v]);
  }

  NodeId num_graph_nodes() const { return num_nodes_; }

  /// Snapshot of the first `num_sets` sets (see `RrCollectionView`).
  RrCollectionView Prefix(std::size_t num_sets) const;

  /// Bytes the set arena itself occupies under the active encoding — the
  /// quantity the `rr.arena_bytes` gauge and the compression-ratio bench
  /// report (4 * total_nodes for kRaw, the varint block sizes otherwise).
  std::uint64_t arena_bytes() const {
    return encoding_ == RrEncoding::kRaw ? arena_.size() * sizeof(NodeId)
                                         : byte_arena_.size();
  }

  /// Approximate heap footprint in bytes: encoded arena, offsets and
  /// flags, plus, on an indexed collection, the inverted index: ~12 B per
  /// node (row offsets and merge counts) and 4 B per indexed membership.
  /// An unindexed collection has no per-node term.
  /// Used by the serving cache's byte-budget eviction; charges the
  /// *encoded* arena so a delta-encoded store spends proportionally less
  /// budget than a raw one.
  std::uint64_t ApproxMemoryBytes() const;

  /// Removes all sets but keeps the node capacity, encoding and indexing.
  void Clear();

 private:
  RrEncoding encoding_;
  RrIndexing indexing_;
  /// Per-set boundaries into the active arena: node offsets into `arena_`
  /// for kRaw, byte offsets into `byte_arena_` for kDeltaVarint.
  std::vector<std::uint64_t> offsets_{0};
  std::vector<NodeId> arena_;              // kRaw only
  std::vector<std::uint8_t> byte_arena_;   // kDeltaVarint only
  /// kDeltaVarint only: node_prefix_[i] = memberships among the first i
  /// sets, so sizes and prefix totals stay O(1) when offsets are bytes.
  std::vector<std::uint64_t> node_prefix_{0};
  /// Reused by Add's kDeltaVarint sort; not part of the logical state.
  std::vector<NodeId> sort_scratch_;
  std::vector<std::uint8_t> hit_sentinel_;
  /// hit_prefix_[i] = sentinel-hit sets among the first i sets; maintained
  /// on Add so any prefix count is O(1).
  std::vector<std::uint32_t> hit_prefix_{0};
  NodeId num_nodes_;
  /// Inverted index over the first `indexed_sets_` sets, as one CSR: the
  /// ids of the sets containing node v are
  /// index_ids_[index_offsets_[v], index_offsets_[v + 1]), ascending.
  /// Past the n + 1 offsets, the same allocation holds `IndexNewSets`'
  /// per-node counts, two 32-bit counts per word, all zero between merges.
  /// Empty on an unindexed collection.
  std::vector<std::uint64_t> index_offsets_;
  std::vector<RrId> index_ids_;
  std::size_t indexed_sets_ = 0;
};

/// A read-only snapshot of the first `num_sets()` sets of an `RrCollection`.
///
/// The view stores only (parent, prefix length) and resolves every read
/// through the parent, so it stays valid while the parent grows — appends
/// never mutate existing sets. It is NOT valid across `Clear()` or parent
/// destruction, and concurrent use requires the reader/writer discipline of
/// `SampleStore` (reads and appends must be externally ordered).
///
/// Implicitly constructible from a collection (full-length view), so APIs
/// taking a view accept a plain `RrCollection` unchanged.
class RrCollectionView {
 public:
  /* implicit */ RrCollectionView(  // NOLINT(runtime/explicit)
      const RrCollection& collection)
      : collection_(&collection), num_sets_(collection.num_sets()) {}

  RrCollectionView(const RrCollection& collection, std::size_t num_sets)
      : collection_(&collection), num_sets_(num_sets) {
    SUBSIM_DCHECK(num_sets <= collection.num_sets(),
                  "view prefix exceeds collection size");
  }

  std::size_t num_sets() const { return num_sets_; }

  std::uint64_t total_nodes() const {
    return collection_->total_nodes_in_prefix(num_sets_);
  }

  RrSetView View(RrId id) const {
    SUBSIM_DCHECK(id < num_sets_, "RR id outside view prefix");
    return collection_->View(id);
  }

  bool HitSentinel(RrId id) const {
    SUBSIM_DCHECK(id < num_sets_, "RR id outside view prefix");
    return collection_->HitSentinel(id);
  }

  std::size_t num_hit_sentinel() const {
    return collection_->num_hit_sentinel_in_prefix(num_sets_);
  }

  /// Ids < num_sets() of the RR sets containing `v`. O(log) to trim the
  /// parent's (ascending) row to the prefix; O(1) for full-length views.
  std::span<const RrId> SetsContaining(NodeId v) const;

  NodeId num_graph_nodes() const { return collection_->num_graph_nodes(); }

  const RrCollection& collection() const { return *collection_; }

 private:
  const RrCollection* collection_;
  std::size_t num_sets_;
};

inline RrCollectionView RrCollection::Prefix(std::size_t num_sets) const {
  return RrCollectionView(*this, num_sets);
}

}  // namespace subsim

#endif  // SUBSIM_RRSET_RR_COLLECTION_H_
