#include "subsim/rrset/rr_collection.h"

#include <algorithm>

namespace subsim {

RrId RrCollection::Add(std::span<const NodeId> nodes, bool hit_sentinel) {
  SUBSIM_CHECK(num_sets() < kMaxRrSets, "RR set ids exhausted");
  const RrId id = static_cast<RrId>(num_sets());
  if (encoding_ == RrEncoding::kRaw) {
    arena_.insert(arena_.end(), nodes.begin(), nodes.end());
    offsets_.push_back(arena_.size());
  } else {
    // Delta blocks need strictly ascending ids; members are unique by the
    // generator contract, so a plain sort suffices — same memberships, same
    // coverage.
    sort_scratch_.assign(nodes.begin(), nodes.end());
    std::sort(sort_scratch_.begin(), sort_scratch_.end());
    AppendDeltaVarintBlock(&byte_arena_, sort_scratch_);
    offsets_.push_back(byte_arena_.size());
    node_prefix_.push_back(node_prefix_.back() + sort_scratch_.size());
  }
  hit_sentinel_.push_back(hit_sentinel ? 1 : 0);
  hit_prefix_.push_back(hit_prefix_.back() + (hit_sentinel ? 1 : 0));
  return id;
}

void RrCollection::IndexNewSets() {
  const std::size_t first = indexed_sets_;
  const std::size_t last = num_sets();
  if (!indexed() || first == last) {
    return;
  }
  const std::size_t n = num_nodes_;
  std::uint64_t* const offsets = index_offsets_.data();
  // New memberships per node, packed two per word past the offsets. A
  // count never exceeds the sets in one merge (< 2^32), so halves never
  // carry into each other, and the scatter below counts every one back
  // down to zero, so no merge allocates or clears them. Sharing the
  // offsets' allocation keeps a collection's per-node memory one block: a
  // separate 32 MB count array on an 8M-node graph moved glibc's mmap
  // threshold on free, and the next fill re-faulted its kernel's visited-mark
  // pages (`bench_micro_kernels --smoke`).
  std::uint64_t* const counts = offsets + n + 1;
  const auto unit = [](std::size_t v) {
    return std::uint64_t{1} << (32 * (v & 1));
  };
  const auto added = [counts](std::size_t v) {
    return static_cast<std::uint32_t>(counts[v / 2] >> (32 * (v & 1)));
  };
  for (std::size_t id = first; id < last; ++id) {
    View(static_cast<RrId>(id)).ForEachNode([&](NodeId v) {
      SUBSIM_DCHECK(v < n, "RR member out of node range");
      counts[v / 2] += unit(v);
    });
  }
  const std::uint64_t old_size = index_ids_.size();
  const std::uint64_t total_added =
      total_nodes_in_prefix(last) - total_nodes_in_prefix(first);
  index_ids_.resize(old_size + total_added);
  RrId* const ids = index_ids_.data();
  if (old_size == 0) {
    // Nothing to move: the offsets are the prefix sums of the counts.
    std::uint64_t end = 0;
    for (std::size_t v = 0; v < n; ++v) {
      end += added(v);
      offsets[v + 1] = end;
    }
  } else {
    // Shift old rows right, last node first: row v moves by the new
    // memberships of all nodes below it, so its destination overlaps only
    // itself and rows already moved. Rows below the lowest touched node
    // stay where they are.
    std::uint64_t shift = total_added;
    std::uint64_t end = offsets[n];
    for (std::size_t v = n; v-- > 0 && shift > 0;) {
      const std::uint32_t row_added = added(v);
      shift -= row_added;
      const std::uint64_t begin = offsets[v];
      if (shift > 0 && begin != end) {
        std::copy_backward(ids + begin, ids + end, ids + end + shift);
      }
      offsets[v + 1] = end + shift + row_added;
      end = begin;
    }
  }

  // Scatter: the new tail of row v is [offsets[v + 1] - added(v),
  // offsets[v + 1]); counting down fills it in ascending id order.
  for (std::size_t id = first; id < last; ++id) {
    View(static_cast<RrId>(id)).ForEachNode([&](NodeId v) {
      ids[offsets[v + 1] - added(v)] = static_cast<RrId>(id);
      counts[v / 2] -= unit(v);
    });
  }
  indexed_sets_ = last;
}

std::uint64_t RrCollection::ApproxMemoryBytes() const {
  // The inverted index is exactly (n + 1) offsets, the merge counts (half a
  // word per node) and one RrId per indexed membership, or nothing on an
  // unindexed collection. The arena is
  // charged at its *encoded* size so the serving cache's byte budget
  // tracks real RSS for either encoding.
  return arena_bytes() + offsets_.size() * sizeof(std::uint64_t) +
         (encoding_ == RrEncoding::kRaw
              ? 0
              : node_prefix_.size() * sizeof(std::uint64_t)) +
         hit_sentinel_.size() * sizeof(std::uint8_t) +
         hit_prefix_.size() * sizeof(std::uint32_t) +
         index_offsets_.size() * sizeof(std::uint64_t) +
         index_ids_.size() * sizeof(RrId);
}

void RrCollection::Clear() {
  offsets_.assign(1, 0);
  arena_.clear();
  byte_arena_.clear();
  node_prefix_.assign(1, 0);
  hit_sentinel_.clear();
  hit_prefix_.assign(1, 0);
  // The merge counts past the offsets are already zero.
  if (indexed()) {
    std::fill_n(index_offsets_.begin(), num_nodes_ + 1, 0);
  }
  index_ids_.clear();
  indexed_sets_ = 0;
}

std::span<const RrId> RrCollectionView::SetsContaining(NodeId v) const {
  const std::span<const RrId> full = collection_->SetsContaining(v);
  if (num_sets_ == collection_->num_sets()) {
    return full;
  }
  // Index lists are sorted ascending; keep ids < num_sets_.
  const auto end = std::lower_bound(full.begin(), full.end(),
                                    static_cast<RrId>(num_sets_));
  return full.first(static_cast<std::size_t>(end - full.begin()));
}

}  // namespace subsim
