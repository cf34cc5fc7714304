#ifndef SUBSIM_COVERAGE_MAX_COVERAGE_H_
#define SUBSIM_COVERAGE_MAX_COVERAGE_H_

#include <cstdint>
#include <span>
#include <vector>

#include "subsim/graph/graph.h"
#include "subsim/rrset/rr_collection.h"

namespace subsim {

class MetricsRegistry;

/// Options for the greedy max-coverage pass over an `RrCollection`.
struct CoverageGreedyOptions {
  /// Number of seeds to select (capped at the number of graph nodes).
  std::uint32_t k = 1;

  /// Algorithm 6 (Revised-Greedy): among nodes with maximal marginal
  /// coverage, prefer the one with the largest out-degree — nodes likelier
  /// to be hit by future sentinel-truncated RR sets. Requires `graph`.
  /// When false this is exactly Algorithm 1 (ties broken by node id, for
  /// determinism).
  bool tie_break_by_out_degree = false;
  const Graph* graph = nullptr;

  /// Algorithm 8 line 5: ignore RR sets whose generation hit a sentinel
  /// (they are covered by the sentinel set and contribute zero marginal to
  /// everything else).
  bool exclude_sentinel_hit_sets = false;

  /// Nodes that must not be selected (HIST phase 2 passes the sentinel set
  /// so the residual greedy cannot return duplicates).
  std::span<const NodeId> excluded_nodes;

  /// How many of the largest marginals each term of Λ^u sums
  /// (`CoverageGreedyResult::upper_bound_top_count`). 0 means "use k".
  /// HIST phase 2 selects k - b seeds but needs the maxMC term over the
  /// full k for Equation (2).
  std::uint32_t singleton_top_count = 0;

  /// Not read, except that `RunCoverageGreedy` checks it is false; kept
  /// only because `bench/trajectory/replay.cc` assigns it; delete with the
  /// replay.
  bool approx_coverage = false;

  /// Not read; kept only because `bench/trajectory/replay.cc` assigns it;
  /// delete with the replay.
  MetricsRegistry* metrics = nullptr;
};

/// Output of the greedy pass. `gains[i]` is the marginal coverage of the
/// (i+1)-th seed; `coverage_prefix[i]` is the total coverage of the first
/// i+1 seeds. Both have `seeds.size()` entries, and gains are
/// non-increasing.
struct CoverageGreedyResult {
  std::vector<NodeId> seeds;
  std::vector<std::uint64_t> gains;
  std::vector<std::uint64_t> coverage_prefix;

  /// Number of RR sets the pass considered (total minus excluded).
  std::uint64_t considered_sets = 0;

  /// The paper's Λ^u under Equation (2), evaluated exactly over every
  /// prefix S_i of `seeds` (i = 0 .. seeds.size()):
  ///
  ///   Λ^u = min_i ( Λ(S_i) + Σ_{v ∈ maxMC(S_i, c)} Λ(v | S_i) ),
  ///
  /// with c = `upper_bound_top_count` and maxMC ranging over every node,
  /// `excluded_nodes` included. By submodularity each term bounds the
  /// coverage of any c nodes, so Λ^u bounds the optimal c-set's coverage
  /// on the considered sets.
  std::uint64_t coverage_upper_bound = 0;

  /// c above: `singleton_top_count`, or k when that is 0.
  std::uint32_t upper_bound_top_count = 0;

  std::uint64_t total_coverage() const {
    return coverage_prefix.empty() ? 0 : coverage_prefix.back();
  }
};

/// Greedy maximum coverage (Algorithm 1 / Algorithm 6) with CELF-style lazy
/// marginal re-evaluation. The lazy heap orders nodes by
/// (marginal, out-degree, node id); because marginals only shrink as the
/// seed set grows while the other keys are constant, a popped node whose
/// refreshed key still dominates the heap top is an exact argmax under that
/// order — so the selected sequence is identical to the textbook greedy,
/// including the out-degree tie-break, at a fraction of the cost.
///
/// A call costs what it selects. The singleton coverages come from the
/// cheaper of two passes: on a sparse view, one pass over the considered
/// sets' members (`RrSetView::ForEachNode`, so delta-varint sets are
/// decoded once) counts them and lists the nodes it meets; on a dense view
/// (many memberships per node), each node starts from its index row length
/// and the members of the sets the view does not consider (past its prefix,
/// or sentinel-hit) are taken back. The heap is banded: a histogram of
/// marginal values gives a threshold T with about 4k + 256 nodes at or
/// above it, only those nodes enter the heap (their out-degree read then),
/// and the next band, about four times larger, is admitted only when the
/// heap's top key falls below T. Every node outside has marginal < T, so
/// the pops are those of a heap holding every node. Selecting a seed
/// decodes each set it newly covers once more and takes every member's
/// marginal down by one, so keeping all marginals exact costs
/// O(memberships) over the call and a heap refresh is an O(1) read. The
/// same decrements keep the histogram current; after each selection a walk
/// down from its largest value sums the c largest marginals, which gives
/// every prefix's term of `coverage_upper_bound`. With no excluded node
/// gaining, the walks cost at most the call's coverage plus k levels. Once
/// every positive marginal is spent, the remaining zero-gain seeds are
/// taken in (out-degree, id) order by walking a fixed order and skipping
/// selected nodes: ids downward under Algorithm 1, the graph's
/// `ZeroGainOrder` under Algorithm 6, so the tail costs O(k + selected).
/// The marginals and selected flags (5 B per node) live in a per-thread
/// workspace sized to the largest graph the thread has run greedy on; it
/// is all zero between calls, and a call resets only the entries it
/// touched (all of them after a dense pass, which is O(n) anyway). So a
/// call on a short view costs that view, whatever n is.
///
/// Takes a prefix view so cache-backed runs (`serve/`) can evaluate exactly
/// the sets a cold run would have had; a plain `RrCollection` converts
/// implicitly to its full-length view.
CoverageGreedyResult RunCoverageGreedy(RrCollectionView collection,
                                       const CoverageGreedyOptions& options);

/// Every node of `graph` sorted by (out-degree, id) descending: the order in
/// which Revised-Greedy (`tie_break_by_out_degree`) takes zero-gain seeds.
/// Built with one counting sort on the first call for `graph` and owned by
/// it (`Graph::DerivedSlot::kZeroGainOrder`, 4 B per node); concurrent
/// first callers wait for the one build.
std::span<const NodeId> ZeroGainOrder(const Graph& graph);

/// Zero-gain orders built in this process so far. Lets tests check that a
/// graph builds its order once.
std::uint64_t ZeroGainOrderConstructions();

/// Λ_R(S): number of RR sets in `collection` intersecting `seeds`.
/// One pass over the view's sets against an n-bit seed mask, each set
/// stopping at its first seed: at most O(view memberships), and no
/// inverted index is read, so validation collections can go unindexed
/// (`RrIndexing::kUnindexed`). Every seed id must be < n (checked: the
/// ids index the mask). Duplicate seeds count once.
std::uint64_t ComputeCoverage(RrCollectionView collection,
                              std::span<const NodeId> seeds);

}  // namespace subsim

#endif  // SUBSIM_COVERAGE_MAX_COVERAGE_H_
