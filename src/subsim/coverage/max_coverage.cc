#include "subsim/coverage/max_coverage.h"

#include <algorithm>
#include <atomic>
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
/// most its coverage plus one level per selection. The same histogram
/// picks the thresholds of the lazy heap's bands.
class TopMarginalSum {
 public:
  explicit TopMarginalSum(std::uint32_t count) : count_(count) {}

  /// Counts one node of positive marginal `value`; every node not added
  /// is at 0 and never counted.
  void Add(std::uint32_t value) {
    if (value >= nodes_at_.size()) {
      nodes_at_.resize(static_cast<std::size_t>(value) + 1, 0);
      max_ = value;
    }
    ++nodes_at_[value];
  }

  /// One node's marginal rose from `from` to `from + 1`: `Add` for a
  /// count still being taken.
  void Increment(std::uint32_t from) {
    if (from + 1 >= nodes_at_.size()) {
      nodes_at_.resize(static_cast<std::size_t>(from) + 2, 0);
      max_ = from + 1;
    }
    --nodes_at_[from];
    ++nodes_at_[from + 1];
  }

  std::uint32_t max() const { return static_cast<std::uint32_t>(max_); }

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

  /// The largest value T >= 1 with at least `nodes` marginals >= T, or 1
  /// when fewer than `nodes` marginals are positive.
  std::uint32_t Threshold(std::uint64_t nodes) const {
    std::uint64_t seen = 0;
    for (std::uint64_t value = max_; value > 1; --value) {
      seen += nodes_at_[value];
      if (seen >= nodes) {
        return static_cast<std::uint32_t>(value);
      }
    }
    return 1;
  }

  /// One node's marginal fell from `from` (>= 1) to `from - 1`.
  void Decrement(std::uint32_t from) {
    --nodes_at_[from];
    ++nodes_at_[from - 1];
  }

 private:
  /// nodes_at_[x]: nodes of marginal x, for x >= 1. nodes_at_[0] is
  /// never read (and wraps as `Increment` takes nodes off it).
  std::vector<std::uint32_t> nodes_at_;
  std::uint64_t count_;
  std::uint64_t max_ = 0;  // no node's marginal exceeds it
};

/// `GreedyWorkspace::flags` bits.
constexpr std::uint8_t kSelected = 1;  // a seed, or in `excluded_nodes`
constexpr std::uint8_t kAdmitted = 2;  // has entered the lazy heap

/// Per-thread greedy scratch, sized to the largest graph the thread has run
/// greedy on and all zero between calls: each call resets the entries it
/// touched, so a call on a small view pays nothing per graph node.
struct GreedyWorkspace {
  std::vector<std::uint32_t> marginal;
  std::vector<std::uint8_t> flags;
  /// Sparse singleton pass only: every node of positive singleton
  /// coverage, in first-seen order.
  std::vector<NodeId> touched;
};

GreedyWorkspace& ThreadWorkspace(NodeId n) {
  thread_local GreedyWorkspace workspace;
  if (workspace.marginal.size() < n) {
    workspace.marginal.resize(n, 0);
    workspace.flags.resize(n, 0);
  }
  return workspace;
}

/// Counting one membership of the view (the sparse singleton pass, resets
/// included) costs about as much as reading this many nodes' index row
/// lengths (the dense pass): 14-26 against 3-7 ns on the 1M-node vanilla WC
/// graph, 31-49 against 5-9 ns on the 8M-node one, so the passes break even
/// at 0.13-0.26 memberships per node (EXPERIMENTS.md "PR 29").
constexpr std::uint64_t kNodesPerMembership = 6;

/// Everything both selection loops share.
struct GreedyState {
  const RrCollectionView* collection;
  const CoverageGreedyOptions* options;
  std::vector<std::uint8_t> covered;
  /// Exact Λ(v | S) for every node, excluded nodes included: the
  /// considered, uncovered sets containing v.
  std::span<std::uint32_t> marginal;
  std::span<std::uint8_t> flags;
  /// Nodes of positive singleton coverage, when the sparse pass found
  /// them; after the dense pass (`dense`) every node is a candidate.
  std::span<const NodeId> touched;
  bool dense = false;
  /// Every node a heap band has admitted.
  std::vector<NodeId> admitted;
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

/// Singleton coverages Λ({v}) of the considered sets, excluded nodes
/// included: they start the exact marginals behind every term of Λ^u, and
/// fill the histogram of marginal values. Two passes give the same counts.
/// The sparse pass counts every membership of the considered sets and
/// lists each node the first time it is seen. The dense pass starts every
/// node from its index row length and takes back the memberships of the
/// sets the view does not consider: sets past its prefix and sentinel-hit
/// sets. The cheaper pass, by memberships read and nodes walked, runs.
/// `excluded_memberships` counts the sentinel-hit sets' members.
void CountSingletons(GreedyState* state, GreedyWorkspace* workspace,
                     std::uint64_t excluded_memberships) {
  const RrCollectionView& view = *state->collection;
  const RrCollection& parent = view.collection();
  const NodeId n = view.num_graph_nodes();
  const std::size_t num_sets = view.num_sets();
  const std::uint64_t past_memberships =
      parent.total_nodes() - view.total_nodes();
  const std::uint64_t considered_memberships =
      view.total_nodes() - excluded_memberships;
  state->dense =
      n + kNodesPerMembership * (past_memberships + excluded_memberships) <
      kNodesPerMembership * considered_memberships;

  std::span<std::uint32_t> marginal = state->marginal;
  if (!state->dense) {
    std::vector<NodeId>& touched = workspace->touched;
    for (std::size_t id = 0; id < num_sets; ++id) {
      if (state->covered[id]) {
        continue;
      }
      view.View(static_cast<RrId>(id)).ForEachNode([&](NodeId v) {
        const std::uint32_t from = marginal[v]++;
        if (from == 0) {
          touched.push_back(v);
        }
        state->top->Increment(from);
      });
    }
    state->touched = touched;
    return;
  }

  for (NodeId v = 0; v < n; ++v) {
    marginal[v] = static_cast<std::uint32_t>(parent.SetsContaining(v).size());
  }
  const auto take_back = [&](RrId id) {
    parent.View(id).ForEachNode([&](NodeId u) { --marginal[u]; });
  };
  for (std::size_t id = num_sets; id < parent.num_sets(); ++id) {
    take_back(static_cast<RrId>(id));
  }
  if (excluded_memberships > 0) {
    for (std::size_t id = 0; id < num_sets; ++id) {
      if (state->covered[id]) {
        take_back(static_cast<RrId>(id));
      }
    }
  }
  for (NodeId v = 0; v < n; ++v) {
    if (marginal[v] > 0) {
      state->top->Add(marginal[v]);
    }
  }
}

/// Commits `v` as the next seed: marks its uncovered sets covered, takes
/// each of their members' marginals down by one, appends the gain to the
/// result and folds the new prefix's Eq. (2) term into the bound.
void SelectSeed(GreedyState* state, NodeId v, CoverageGreedyResult* result) {
  const std::uint32_t gain = state->marginal[v];
  state->flags[v] |= kSelected;
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

/// Exact lazy greedy over a banded heap. Only the selectable nodes whose
/// marginal reached the current threshold T have entered the heap; every
/// other node's marginal is below T, since marginals only fall. So while
/// the heap's top key is at least T it dominates every node outside, and
/// the next band (about four times as many nodes, by the marginal
/// histogram) is admitted only when the top falls below T. The order is
/// strict and total, so the pops are the ones a heap of every positive
/// node would make.
void RunExactLoop(GreedyState* state, CoverageGreedyResult* result) {
  const NodeId n = state->collection->num_graph_nodes();
  const CoverageGreedyOptions& options = *state->options;

  std::vector<HeapEntry> heap;
  std::uint32_t threshold = state->top->max() + 1;  // nothing admitted yet
  std::uint64_t band = 4 * static_cast<std::uint64_t>(state->k) + 256;
  const auto admit_band = [&] {
    const std::uint32_t next =
        std::min(threshold - 1, state->top->Threshold(band));
    band *= 4;
    // Every node not yet admitted has marginal < threshold. The band at
    // threshold 1 is the last, so no later scan needs its nodes flagged.
    const auto admit = [&](NodeId v) {
      const std::uint32_t marginal = state->marginal[v];
      if (marginal >= next && state->flags[v] == 0) {
        if (next > 1) {
          state->flags[v] = kAdmitted;
          state->admitted.push_back(v);
        }
        heap.push_back(HeapEntry{marginal, TieBreakDegree(options, v), v});
      }
    };
    if (state->dense) {
      for (NodeId v = 0; v < n; ++v) {
        admit(v);
      }
    } else {
      for (NodeId v : state->touched) {
        admit(v);
      }
    }
    threshold = next;
    std::make_heap(heap.begin(), heap.end());
  };

  while (result->seeds.size() < state->k) {
    while (threshold > 1 &&
           (heap.empty() || heap.front().marginal < threshold)) {
      admit_band();
    }
    if (heap.empty()) {
      break;
    }
    std::pop_heap(heap.begin(), heap.end());
    HeapEntry top = heap.back();
    heap.pop_back();
    // Refresh the key from the exact marginal kept by `SelectSeed`.
    const std::uint64_t fresh = state->marginal[top.node];
    SUBSIM_DCHECK(fresh == RecountMarginal(*state, top.node),
                  "kept marginal disagrees with the index");
    if (fresh != top.marginal) {
      SUBSIM_DCHECK(fresh < top.marginal, "marginal grew — index corrupt");
      // A node whose marginal reached 0 stays at 0: it joins the tail below.
      if (fresh > 0) {
        top.marginal = fresh;
        heap.push_back(top);
        std::push_heap(heap.begin(), heap.end());
      }
      continue;
    }
    // The key is fresh and was the heap maximum, so it dominates every
    // remaining stale key, hence every fresh key, and is at least the
    // threshold every node outside the heap is below: an exact argmax
    // under (marginal, out-degree, id).
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
    if (state->flags[v] & kSelected) {
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
    if ((state->flags[v] & kSelected) == 0) {
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
    if (state->flags[top.node] & kSelected) {
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
  for (NodeId v : options.excluded_nodes) {
    SUBSIM_CHECK(v < n, "excluded node out of range");
  }
  const std::size_t num_sets = collection.num_sets();
  const std::uint32_t k =
      std::min<std::uint64_t>(options.k, static_cast<std::uint64_t>(n));

  CoverageGreedyResult result;

  GreedyWorkspace& workspace = ThreadWorkspace(n);
  GreedyState state;
  state.collection = &collection;
  state.options = &options;
  state.k = k;
  state.marginal = std::span<std::uint32_t>(workspace.marginal).first(n);
  state.flags = std::span<std::uint8_t>(workspace.flags).first(n);
  SUBSIM_DCHECK(std::all_of(state.marginal.begin(), state.marginal.end(),
                            [](std::uint32_t m) { return m == 0; }) &&
                    std::all_of(state.flags.begin(), state.flags.end(),
                                [](std::uint8_t f) { return f == 0; }),
                "greedy workspace not reset by its last call");

  // Which RR sets participate. Excluded sets (sentinel hits) are treated as
  // pre-covered so they never contribute to marginals.
  state.covered.assign(num_sets, 0);
  std::uint64_t considered = num_sets;
  std::uint64_t excluded_memberships = 0;
  if (options.exclude_sentinel_hit_sets) {
    for (std::size_t id = 0; id < num_sets; ++id) {
      if (collection.HitSentinel(static_cast<RrId>(id))) {
        state.covered[id] = 1;
        --considered;
        excluded_memberships += collection.View(static_cast<RrId>(id)).size();
      }
    }
  }
  result.considered_sets = considered;

  for (NodeId v : options.excluded_nodes) {
    state.flags[v] = kSelected;
  }

  // The i = 0 term of Λ^u; each selection folds in the next prefix's.
  result.upper_bound_top_count = options.singleton_top_count > 0
                                     ? options.singleton_top_count
                                     : options.k;
  state.top.emplace(result.upper_bound_top_count);
  CountSingletons(&state, &workspace, excluded_memberships);
  result.coverage_upper_bound = state.top->Sum();

  result.seeds.reserve(k);
  result.gains.reserve(k);
  result.coverage_prefix.reserve(k);

  if (options.approx_coverage) {
    RunApproxLoop(&state, &result);
  } else {
    RunExactLoop(&state, &result);
  }

  // Leave the workspace all zero for the thread's next call.
  if (state.dense) {
    std::fill(state.marginal.begin(), state.marginal.end(), 0);
    std::fill(state.flags.begin(), state.flags.end(), 0);
  } else {
    for (NodeId v : state.touched) {
      state.marginal[v] = 0;
    }
    for (NodeId v : state.admitted) {
      state.flags[v] = 0;
    }
  }
  for (NodeId v : options.excluded_nodes) {
    state.flags[v] = 0;
  }
  for (NodeId v : result.seeds) {
    state.flags[v] = 0;
  }
  workspace.touched.clear();

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
