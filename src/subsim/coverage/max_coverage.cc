#include "subsim/coverage/max_coverage.h"

#include <algorithm>
#include <atomic>
#include <functional>
#include <memory>
#include <optional>
#include <queue>
#include <span>
#include <utility>
#include <vector>

#include "subsim/coverage/hll_sketch.h"
#include "subsim/obs/metrics.h"
#include "subsim/util/bit_vector.h"
#include "subsim/util/check.h"

namespace subsim {

namespace {

std::atomic<std::uint64_t> zero_gain_order_constructions{0};

/// Lazy-heap entry. Ordering is lexicographic on
/// (marginal, out_degree, node) so Algorithm 6's tie-break is part of the
/// priority; with tie-break disabled out_degree is fixed to 0 and ties fall
/// through to the node id (descending id pops first; any argmax is valid
/// for Algorithm 1, the id merely makes runs deterministic).
struct HeapEntry {
  std::uint64_t marginal;
  NodeId out_degree;
  NodeId node;

  bool operator<(const HeapEntry& other) const {
    if (marginal != other.marginal) return marginal < other.marginal;
    if (out_degree != other.out_degree) return out_degree < other.out_degree;
    return node < other.node;
  }
};

/// Approx-mode heap entry: same shape, estimated (double) key.
struct ApproxHeapEntry {
  double estimate;
  NodeId out_degree;
  NodeId node;

  bool operator<(const ApproxHeapEntry& other) const {
    if (estimate != other.estimate) return estimate < other.estimate;
    if (out_degree != other.out_degree) return out_degree < other.out_degree;
    return node < other.node;
  }
};

/// How many standard errors of headroom a sketch estimate gets before the
/// loop trusts it as an upper bound on a marginal. 3σ keeps the chance of
/// a violated bound (the only way approx selection can differ from exact
/// greedy) negligible per estimate while still discharging clearly
/// dominated candidates without an exact recount.
constexpr double kHllMarginSigmas = 3.0;

/// Sum of the `count` largest node marginals, which only ever fall by one:
/// the Σ maxMC term of Eq. (2) at every greedy prefix. A histogram of the
/// marginal values keeps each decrement to two branch-free writes, and
/// `Sum` walks it down from the largest value still held. Under exact
/// greedy with no excluded node gaining, the largest marginal after a
/// selection is the next gain, so the walks of one call together cost at
/// most its coverage plus one level per selection.
class TopMarginalSum {
 public:
  /// `positive` holds every node of positive marginal, each at most
  /// `max_marginal`; all other nodes are at 0 and never counted.
  TopMarginalSum(std::span<const HeapEntry> positive,
                 std::uint32_t max_marginal, std::uint32_t count)
      : nodes_at_(static_cast<std::size_t>(max_marginal) + 1, 0),
        count_(count),
        max_(max_marginal) {
    for (const HeapEntry& entry : positive) {
      ++nodes_at_[entry.marginal];
    }
  }

  std::uint64_t Sum() {
    while (max_ > 0 && nodes_at_[max_] == 0) {
      --max_;
    }
    std::uint64_t sum = 0;
    std::uint64_t left = count_;
    for (std::uint64_t value = max_; value > 0 && left > 0; --value) {
      const std::uint64_t take =
          std::min<std::uint64_t>(left, nodes_at_[value]);
      sum += take * value;
      left -= take;
    }
    return sum;
  }

  /// One node's marginal fell from `from` (>= 1) to `from - 1`.
  void Decrement(std::uint32_t from) {
    --nodes_at_[from];
    ++nodes_at_[from - 1];
  }

 private:
  std::vector<std::uint32_t> nodes_at_;  // nodes_at_[x]: nodes of marginal x
  std::uint64_t count_;
  std::uint64_t max_;  // no node's marginal exceeds it
};

/// Everything both selection loops share.
struct GreedyState {
  const RrCollectionView* collection;
  const CoverageGreedyOptions* options;
  std::vector<std::uint8_t> covered;
  std::vector<std::uint8_t> selected;
  /// Exact Λ(v | S) for every node, excluded nodes included: the
  /// considered, uncovered sets containing v.
  std::vector<std::uint32_t> marginal;
  std::optional<TopMarginalSum> top;
  std::uint32_t k = 0;
};

/// The heap key's second component: Algorithm 6's out-degree, or 0.
NodeId TieBreakDegree(const CoverageGreedyOptions& options, NodeId v) {
  return options.tie_break_by_out_degree ? options.graph->OutDegree(v)
                                         : NodeId{0};
}

/// Currently-uncovered sets containing `v`, recounted from its index row:
/// what `marginal[v]` must equal.
[[maybe_unused]] std::uint32_t RecountMarginal(const GreedyState& state,
                                               NodeId v) {
  std::uint32_t fresh = 0;
  for (RrId id : state.collection->SetsContaining(v)) {
    fresh += state.covered[id] ? 0 : 1;
  }
  return fresh;
}

/// Commits `v` as the next seed: marks its uncovered sets covered, takes
/// each of their members' marginals down by one, appends the gain to the
/// result and folds the new prefix's Eq. (2) term into the bound.
void SelectSeed(GreedyState* state, NodeId v, CoverageGreedyResult* result) {
  const std::uint32_t gain = state->marginal[v];
  state->selected[v] = 1;
  for (RrId id : state->collection->SetsContaining(v)) {
    if (state->covered[id]) {
      continue;
    }
    state->covered[id] = 1;
    state->collection->View(id).ForEachNode([&](NodeId u) {
      state->top->Decrement(state->marginal[u]--);
    });
  }
  SUBSIM_DCHECK(state->marginal[v] == 0, "seed kept a positive marginal");
  const std::uint64_t total = result->total_coverage() + gain;
  result->seeds.push_back(v);
  result->gains.push_back(gain);
  result->coverage_prefix.push_back(total);
  result->coverage_upper_bound =
      std::min(result->coverage_upper_bound, total + state->top->Sum());
}

/// Exact lazy greedy. `candidates` holds every selectable node with positive
/// singleton coverage; nodes outside it have marginal 0 for the whole pass.
void RunExactLoop(GreedyState* state, std::vector<HeapEntry> candidates,
                  CoverageGreedyResult* result) {
  const NodeId n = state->collection->num_graph_nodes();
  const CoverageGreedyOptions& options = *state->options;

  std::priority_queue<HeapEntry> heap(std::less<HeapEntry>(),
                                      std::move(candidates));
  while (result->seeds.size() < state->k && !heap.empty()) {
    HeapEntry top = heap.top();
    heap.pop();
    // Refresh the key from the exact marginal kept by `SelectSeed`.
    const std::uint64_t fresh = state->marginal[top.node];
    SUBSIM_DCHECK(fresh == RecountMarginal(*state, top.node),
                  "kept marginal disagrees with the index");
    if (fresh != top.marginal) {
      SUBSIM_DCHECK(fresh < top.marginal, "marginal grew — index corrupt");
      // A node whose marginal reached 0 stays at 0: it joins the tail below.
      if (fresh > 0) {
        top.marginal = fresh;
        heap.push(top);
      }
      continue;
    }
    // The key is fresh and was the heap maximum, so it dominates every
    // remaining stale key, hence every fresh key: an exact argmax under
    // (marginal, out-degree, id).
    SelectSeed(state, top.node, result);
  }

  // Every positive marginal is spent: each unselected node now gains 0, so
  // the rest of the order is (out-degree, id) descending, the order a heap
  // of zero keys would pop them in. Gains are 0 and the prefix stays flat.
  // Walking a precomputed order and skipping selected nodes costs
  // O(k + selected), whatever n is.
  if (result->seeds.size() == state->k) {
    return;
  }
  const std::uint64_t total = result->total_coverage();
  const auto take = [&](NodeId v) {
    if (state->selected[v]) {
      return;
    }
    result->seeds.push_back(v);
    result->gains.push_back(0);
    result->coverage_prefix.push_back(total);
  };
  if (options.tie_break_by_out_degree) {
    for (NodeId v : ZeroGainOrder(*options.graph)) {
      if (result->seeds.size() == state->k) {
        break;
      }
      take(v);
    }
  } else {
    // Out-degree is fixed to 0, so the order is by id alone.
    for (NodeId v = n; v-- > 0 && result->seeds.size() < state->k;) {
      take(v);
    }
  }
}

/// Sketch-guided selection (`CoverageGreedyOptions::approx_coverage`).
///
/// CELF with sketch-tightened upper bounds. Every heap key is an upper
/// bound on the node's exact marginal: initially its exact singleton
/// coverage, thereafter min(previous bound, est(|C ∪ H(v)|) − |C| + 3σ)
/// where |C| is the exact covered count (maintained anyway for committed
/// gains) and the union estimate is one O(m) register scan, independent
/// of how long the candidate's index list is. A popped node whose bound
/// is dominated by the runner-up's is pushed back without reading its
/// exact marginal. A node that survives the bound test reads it (O(1),
/// like the exact loop's refresh) and commits only if its exact
/// (marginal, out-degree, id) key still dominates the heap of upper
/// bounds — so the selected sequence matches exact greedy unless a 3σ
/// error bar is actually violated. When the bars cannot separate
/// contenders the loop degrades gracefully into exact CELF (the extra
/// exact reads are what `coverage.hll_refinements` counts). With exact
/// refreshes O(1), the sketches save no work over the exact loop.
void RunApproxLoop(GreedyState* state, CoverageGreedyResult* result) {
  const NodeId n = state->collection->num_graph_nodes();
  const RrCollectionView& collection = *state->collection;
  const CoverageGreedyOptions& options = *state->options;

  const std::uint32_t precision =
      std::clamp<std::uint32_t>(options.hll_precision, 4, 16);
  const std::size_t m = HllNumRegisters(precision);
  const double rel_err = HllRelativeStdError(precision);

  // Per-candidate sketches over the considered RR ids (pre-covered ids —
  // sentinel exclusions — are left out so estimates live in the same
  // universe the exact counters do), plus the covered-union sketch.
  std::vector<std::uint8_t> bank(static_cast<std::size_t>(n) * m, 0);
  std::vector<std::uint8_t> covered_sketch(m, 0);
  auto sketch_of = [&](NodeId v) {
    return std::span<std::uint8_t>(bank.data() +
                                       static_cast<std::size_t>(v) * m,
                                   m);
  };
  for (NodeId v = 0; v < n; ++v) {
    const std::span<std::uint8_t> sketch = sketch_of(v);
    for (RrId id : collection.SetsContaining(v)) {
      if (!state->covered[id]) {
        HllObserve(sketch, precision, id);
      }
    }
  }

  MetricsRegistry::CounterHandle refinements;
  if (options.metrics != nullptr) {
    options.metrics->Gauge("coverage.hll_bytes")
        .Set(static_cast<double>(bank.size() + covered_sketch.size()));
    refinements = options.metrics->Counter("coverage.hll_refinements");
  }

  std::priority_queue<ApproxHeapEntry> heap;
  for (NodeId v = 0; v < n; ++v) {
    if (!state->selected[v]) {
      heap.push(ApproxHeapEntry{static_cast<double>(state->marginal[v]),
                                TieBreakDegree(options, v), v});
    }
  }

  std::uint64_t covered_exact = 0;  // exact |C|: sum of committed gains
  const auto select = [&](NodeId v) {
    covered_exact += state->marginal[v];
    SelectSeed(state, v, result);
    HllMerge(covered_sketch, sketch_of(v));
  };

  while (result->seeds.size() < state->k && !heap.empty()) {
    ApproxHeapEntry top = heap.top();
    heap.pop();
    if (state->selected[top.node]) {
      continue;
    }
    if (heap.empty()) {
      select(top.node);
      continue;
    }
    const ApproxHeapEntry& next = heap.top();
    const double union_estimate =
        HllEstimateUnion(covered_sketch, sketch_of(top.node));
    // The union estimate carries the sketch noise; the covered count is
    // exact, so the marginal's error bar is the union term's alone.
    const double margin = kHllMarginSigmas * rel_err * union_estimate;
    const double bound = std::min(
        top.estimate,
        std::max(0.0, union_estimate - static_cast<double>(covered_exact)) +
            margin);
    if (ApproxHeapEntry{bound, top.out_degree, top.node} < next) {
      // Dominated already at the bound level: push back without reading
      // the exact marginal. The min() keeps bounds monotone.
      top.estimate = bound;
      heap.push(top);
      continue;
    }
    const std::uint64_t exact = state->marginal[top.node];
    const ApproxHeapEntry exact_entry{static_cast<double>(exact),
                                      top.out_degree, top.node};
    if (!(exact_entry < next)) {
      // The exact key dominates every remaining upper bound, hence every
      // remaining exact marginal: an argmax under (marginal, out-degree,
      // id), exactly as the exact loop would have picked.
      select(top.node);
    } else {
      // The error bar could not separate this contender from the heap.
      // Its exact value is the tightest possible bound — re-queue under
      // it.
      refinements.Increment();
      heap.push(exact_entry);
    }
  }
}

}  // namespace

CoverageGreedyResult RunCoverageGreedy(RrCollectionView collection,
                                       const CoverageGreedyOptions& options) {
  SUBSIM_CHECK(!options.tie_break_by_out_degree || options.graph != nullptr,
               "tie_break_by_out_degree requires options.graph");

  const NodeId n = collection.num_graph_nodes();
  SUBSIM_CHECK(!options.tie_break_by_out_degree ||
                   options.graph->num_nodes() == n,
               "options.graph must be the graph the RR sets were drawn on");
  const std::size_t num_sets = collection.num_sets();
  const std::uint32_t k =
      std::min<std::uint64_t>(options.k, static_cast<std::uint64_t>(n));

  CoverageGreedyResult result;

  GreedyState state;
  state.collection = &collection;
  state.options = &options;
  state.k = k;

  // Which RR sets participate. Excluded sets (sentinel hits) are treated as
  // pre-covered so they never contribute to marginals.
  state.covered.assign(num_sets, 0);
  std::uint64_t considered = num_sets;
  if (options.exclude_sentinel_hit_sets) {
    for (std::size_t id = 0; id < num_sets; ++id) {
      if (collection.HitSentinel(static_cast<RrId>(id))) {
        state.covered[id] = 1;
        --considered;
      }
    }
  }
  result.considered_sets = considered;

  state.selected.assign(n, 0);
  for (NodeId v : options.excluded_nodes) {
    SUBSIM_CHECK(v < n, "excluded node out of range");
    state.selected[v] = 1;
  }

  // Singleton coverages Λ({v}), excluded nodes included: they start the
  // exact marginals behind every term of Λ^u. One pass over the considered
  // sets counts each member's sets and makes a node a candidate the first
  // time it is seen, so the pass costs the view's memberships, not n index
  // rows (each a binary search on a prefix view). Nodes in no considered
  // set gain 0 throughout and never enter the heap.
  std::vector<HeapEntry> candidates;
  state.marginal.assign(n, 0);
  for (std::size_t id = 0; id < num_sets; ++id) {
    if (state.covered[id]) {
      continue;
    }
    collection.View(static_cast<RrId>(id)).ForEachNode([&](NodeId v) {
      if (state.marginal[v]++ == 0) {
        candidates.push_back(HeapEntry{0, 0, v});
      }
    });
  }
  std::uint32_t max_marginal = 0;
  for (HeapEntry& entry : candidates) {
    entry.marginal = state.marginal[entry.node];
    entry.out_degree = TieBreakDegree(options, entry.node);
    max_marginal = std::max(max_marginal, state.marginal[entry.node]);
  }

  // The i = 0 term of Λ^u; each selection folds in the next prefix's.
  result.upper_bound_top_count = options.singleton_top_count > 0
                                     ? options.singleton_top_count
                                     : options.k;
  state.top.emplace(candidates, max_marginal, result.upper_bound_top_count);
  result.coverage_upper_bound = state.top->Sum();

  std::erase_if(candidates,
                [&](const HeapEntry& e) { return state.selected[e.node]; });

  result.seeds.reserve(k);
  result.gains.reserve(k);
  result.coverage_prefix.reserve(k);

  if (options.approx_coverage) {
    RunApproxLoop(&state, &result);
  } else {
    RunExactLoop(&state, std::move(candidates), &result);
  }

  // With fewer selectable nodes than k the pass returns them all; callers
  // treat seeds.size() as the effective k.
  return result;
}

std::span<const NodeId> ZeroGainOrder(const Graph& graph) {
  const std::vector<NodeId>& order = graph.Derived<std::vector<NodeId>>(
      Graph::DerivedSlot::kZeroGainOrder, [&] {
        zero_gain_order_constructions.fetch_add(1, std::memory_order_relaxed);
        // Counting sort on out-degree, descending; filling each degree's
        // bucket from the highest id down leaves ids descending within it.
        const NodeId n = graph.num_nodes();
        NodeId max_degree = 0;
        for (NodeId v = 0; v < n; ++v) {
          max_degree = std::max(max_degree, graph.OutDegree(v));
        }
        // next[max_degree - d]: where the next node of out-degree d goes.
        std::vector<NodeId> next(static_cast<std::size_t>(max_degree) + 2, 0);
        for (NodeId v = 0; v < n; ++v) {
          ++next[max_degree - graph.OutDegree(v) + 1];
        }
        for (std::size_t i = 1; i < next.size(); ++i) {
          next[i] += next[i - 1];
        }
        auto built = std::make_unique<std::vector<NodeId>>(n);
        for (NodeId v = n; v-- > 0;) {
          (*built)[next[max_degree - graph.OutDegree(v)]++] = v;
        }
        return built;
      });
  return order;
}

std::uint64_t ZeroGainOrderConstructions() {
  return zero_gain_order_constructions.load(std::memory_order_relaxed);
}

std::uint64_t ComputeCoverage(RrCollectionView collection,
                              std::span<const NodeId> seeds) {
  if (seeds.empty()) {
    return 0;
  }
  const NodeId n = collection.num_graph_nodes();
  BitVector is_seed(n);
  for (const NodeId v : seeds) {
    SUBSIM_CHECK(v < n, "seed id out of node range");
    is_seed.Set(v);
  }
  std::uint64_t total = 0;
  std::vector<NodeId> scratch;
  for (std::size_t id = 0; id < collection.num_sets(); ++id) {
    const std::span<const NodeId> members =
        collection.View(static_cast<RrId>(id)).Decode(&scratch);
    total += std::any_of(members.begin(), members.end(),
                         [&is_seed](NodeId v) { return is_seed.Get(v); });
  }
  return total;
}

}  // namespace subsim
