#ifndef SUBSIM_RRSET_SUBSIM_IC_GENERATOR_H_
#define SUBSIM_RRSET_SUBSIM_IC_GENERATOR_H_

#include <atomic>
#include <memory>
#include <utility>
#include <vector>

#include "subsim/graph/graph.h"
#include "subsim/random/geometric.h"
#include "subsim/rrset/rr_generator.h"
#include "subsim/sampling/inline_sampling.h"
#include "subsim/util/bit_vector.h"
#include "subsim/util/prefetch.h"

namespace subsim {

/// The per-node sampling plans and per-step draw primitives of Algorithm 3
/// (+ Section 3.3), factored out of the scalar generator so the batched
/// kernel runs the *same* code on the same precomputed plans — byte
/// identity between the two kernels is structural, not coincidental.
///
/// The core is the immutable, per-graph half of a SUBSIM generator: built
/// once per graph (`Shared`) and read concurrently by every worker, fill,
/// store and query of that graph. Everything mutable — visited marks,
/// queues, RNG lanes — belongs to the caller. The plans hold row positions
/// and parameters, not the graph, so every call that reads adjacency takes
/// the graph it was built from.
///
/// `ExpandNode` samples the in-neighbors of one dequeued node, invoking
/// `sink.Activate(w)` for every sampled in-neighbor in the plan's emission
/// order. The sink owns the visited/sentinel bookkeeping:
///   * `void Activate(NodeId w)` — activation attempt; must be a no-op
///     once the traversal has stopped;
///   * `bool stopped() const` — true after a sentinel activation.
/// Draw-order contract (what makes kernels interchangeable): the naive,
/// skip and sorted plans keep drawing to their natural end even after a
/// stop (their draw counts are data-independent of activation outcomes),
/// while the take-all emission loop breaks on stop without further draws
/// — exactly the scalar generator's historical behavior.
///
/// Nodes whose in-weights are *not* all equal (general IC, paper Section
/// 3.3) are sampled by the index-free `SampleSortedSubset`: O(1 + mu +
/// log d) per activated node, with no per-row preprocessing, because the
/// builder orders every skewed row by descending weight.
///
/// `NaivePolicy` lets a kernel substitute how the small-degree Bernoulli
/// plan realizes its coin flips. Two hooks, both of which must consume
/// the identical RNG stream as `SampleSubsetNaive` and emit indices in
/// increasing order:
///   * `naive(u, probs, rng, emit)` — skew-weighted short rows;
///   * `naive.UniformRow(degree, p, rng, emit)` — uniform short rows,
///     where every edge shares probability `p` so the O(m) weights row is
///     never read (the batched kernel additionally bulk-draws the coins).
class SubsimExpandCore {
 public:
  /// Plans every node of `graph` in one O(n) pass, 16 bytes per node.
  /// `naive_fallback_degree` = 0 disables the small-degree fallback (tests
  /// use this to force the skip kernels). Library code uses `Shared`
  /// instead.
  SubsimExpandCore(const Graph& graph, NodeId naive_fallback_degree);

  /// The graph's shared core with the default naive fallback, built on the
  /// first call for `graph` and owned by it (`Graph::Derived`).
  static const SubsimExpandCore& Shared(const Graph& graph);

  /// Cores constructed in this process so far, shared or private. Lets
  /// tests check that a solve plans each graph once.
  static std::uint64_t constructions() {
    return constructions_.load(std::memory_order_relaxed);
  }

  /// Prefetches the packed per-node plan descriptor for an upcoming
  /// `ExpandNode(u)` — the batched kernel issues this as soon as `u` is
  /// discovered so the plan lookup doesn't stall the expansion. One cache
  /// line covers the plan, the CSR position, and the sampling parameter.
  void PrefetchPlan(NodeId u) const { PrefetchRead(meta_.data() + u); }

  /// Prefetches the leading lines of the adjacency data `ExpandNode(u)`
  /// will read (sources; weights only for plans that read them). Reads
  /// `meta_[u]` — expected warm after `PrefetchPlan(u)`. Returns the
  /// number of prefetch instructions issued.
  unsigned PrefetchRow(const Graph& graph, NodeId u,
                       unsigned max_lines = 2) const {
    const PlanMeta& pm = meta_[u];
    if (pm.degree == 0) {
      return 0;
    }
    unsigned lines = PrefetchReadRange(
        graph.InSourcesAt(pm.begin, pm.degree).data(),
        pm.degree * sizeof(NodeId), max_lines);
    const auto plan = static_cast<NodePlan>(pm.plan);
    if (plan == NodePlan::kSmallNaive || plan == NodePlan::kGeneral) {
      lines += PrefetchReadRange(
          graph.InWeightsAt(pm.begin, pm.degree).data(),
          pm.degree * sizeof(double), max_lines);
    }
    return lines;
  }

  /// Expands `u` over `graph` (the graph the core was built from).
  template <class Sink, class NaivePolicy>
  bool ExpandNode(const Graph& graph, NodeId u, Rng& rng, RrGenStats* stats,
                  Sink& sink, NaivePolicy&& naive) const {
    const PlanMeta& pm = meta_[u];
    const auto sources = graph.InSourcesAt(pm.begin, pm.degree);
    switch (static_cast<NodePlan>(pm.plan)) {
      case NodePlan::kNoInEdges:
        return false;
      case NodePlan::kSmallNaiveUniform:
        // Every in-edge gets a coin flip here, so count them all. The
        // shared probability rides in the descriptor (see PlanMeta).
        stats->edges_examined += sources.size();
        naive.UniformRow(
            pm.degree, pm.param, rng,
            [&](std::uint32_t i) { sink.Activate(sources[i]); });
        return sink.stopped();
      case NodePlan::kSmallNaive:
        stats->edges_examined += sources.size();
        naive(u, graph.InWeightsAt(pm.begin, pm.degree), rng,
              [&](std::uint32_t i) { sink.Activate(sources[i]); });
        return sink.stopped();
      case NodePlan::kTakeAll:
        for (NodeId w : sources) {
          ++stats->edges_examined;
          sink.Activate(w);
          if (sink.stopped()) {
            return true;
          }
        }
        return false;
      case NodePlan::kUniformSkip:
        SampleUniformSubsetSkips(
            sources.size(), pm.param, rng,
            [&](std::uint32_t i) {
              ++stats->edges_examined;
              sink.Activate(sources[i]);
            },
            &stats->geometric_skips);
        return sink.stopped();
      case NodePlan::kGeneral:
        SampleSortedSubset(
            graph.InWeightsAt(pm.begin, pm.degree), rng,
            [&](std::uint32_t i) {
              ++stats->edges_examined;
              sink.Activate(sources[i]);
            },
            &stats->geometric_skips, &stats->rejection_accepts);
        return sink.stopped();
    }
    return false;
  }

  /// The reference naive policy: `SampleSubsetNaive` semantics, one
  /// out-of-line Bernoulli per in-edge.
  struct ScalarNaivePolicy {
    template <class Emit>
    void operator()(NodeId /*u*/, std::span<const double> probs, Rng& rng,
                    Emit&& emit) const {
      SampleSubsetNaive(probs, rng, std::forward<Emit>(emit));
    }
    /// Identical stream to `SampleSubsetNaive` on a row whose weights all
    /// equal `p`, without reading the row.
    template <class Emit>
    void UniformRow(std::uint32_t degree, double p, Rng& rng,
                    Emit&& emit) const {
      for (std::uint32_t i = 0; i < degree; ++i) {
        if (rng.Bernoulli(p)) {
          emit(i);
        }
      }
    }
  };

 private:
  /// Per-node sampling plan resolved at construction.
  enum class NodePlan : std::uint8_t {
    kNoInEdges,          // d_in == 0 or all-zero weights
    kSmallNaive,         // short skew-weighted in-list: per-edge coins
    kSmallNaiveUniform,  // short uniform in-list: per-edge coins, shared p
    kUniformSkip,        // equal weights in (0, 1): geometric skips
    kTakeAll,            // equal weights >= 1: every in-neighbor activates
    kGeneral,            // skewed weights, sorted descending: index-free
  };

  /// Packed per-node plan descriptor: plan tag, CSR position, and the
  /// sampling parameter — `GeometricInvLogQ(p)` for kUniformSkip, the
  /// shared edge probability for kSmallNaiveUniform — in one 16-byte
  /// record, four to a cache line. The expansion hot path reads exactly
  /// one metadata line per node instead of separate plan / parameter /
  /// offset arrays; on DRAM-resident graphs those scattered lookups were
  /// a dominant stall source.
  struct PlanMeta {
    double param = 0.0;
    std::uint32_t begin = 0;
    std::uint32_t degree : 29 = 0;
    std::uint32_t plan : 3 = 0;
  };
  static_assert(sizeof(PlanMeta) == 16, "PlanMeta must pack 4 per line");

  std::vector<PlanMeta> meta_;

  static inline std::atomic<std::uint64_t> constructions_{0};
};

/// Algorithm 3 (+ Section 3.3): the SUBSIM RR-set generator.
///
/// For a dequeued node whose in-edges share one probability p (WC, Uniform
/// IC, and WC-variant below the min{} clamp), in-neighbors are selected by
/// geometric skips — expected cost O(1 + d_in * p) instead of the vanilla
/// O(d_in). Nodes with skewed in-weights use the index-free sorted
/// general-IC sampler (see `SubsimExpandCore`). Per-node
/// `1/log(1-p)` constants are precomputed so the hot loop performs one
/// log() per geometric draw.
class SubsimIcGenerator final : public RrGenerator {
 public:
  /// Below this in-degree a node is expanded by plain per-edge coin flips:
  /// a geometric skip costs one log() (~10 Bernoulli draws), so subset
  /// sampling only pays for itself on wider in-lists. Lemma 3's asymptotics
  /// are unaffected — the fallback work is O(threshold) = O(1).
  static constexpr NodeId kDefaultNaiveFallbackDegree = 16;

  /// `graph` must outlive the generator. The default fallback samples
  /// from the graph's shared core (`SubsimExpandCore::Shared`); any other
  /// value builds a private one.
  explicit SubsimIcGenerator(
      const Graph& graph,
      NodeId naive_fallback_degree = kDefaultNaiveFallbackDegree);

  /// The plans this generator samples from.
  const SubsimExpandCore& core() const { return *core_; }

  bool Generate(Rng& rng, std::vector<NodeId>* out) override;
  void SetSentinels(std::span<const NodeId> sentinels) override;
  const RrGenStats& stats() const override { return stats_; }
  void ResetStats() override { stats_ = RrGenStats{}; }
  const char* name() const override { return "subsim-ic"; }

 private:
  /// Scalar activation sink: visited bitmap + explicit BFS queue.
  struct ScalarSink {
    SubsimIcGenerator* generator;
    std::vector<NodeId>* out;
    void Activate(NodeId w) { generator->Activate(w, out); }
    bool stopped() const { return generator->stop_; }
  };

  /// Activation step shared by all plans; sets `stop_` on sentinel hit.
  void Activate(NodeId w, std::vector<NodeId>* out);

  const Graph& graph_;
  /// Set only for a non-default naive fallback; `core_` points into it.
  std::unique_ptr<const SubsimExpandCore> private_core_;
  const SubsimExpandCore* core_;
  RrGenStats stats_;

  BitVector activated_;
  BitVector sentinel_;
  bool has_sentinels_ = false;
  bool stop_ = false;  // set when a sentinel activates mid-expansion
  std::vector<NodeId> queue_;
};

}  // namespace subsim

#endif  // SUBSIM_RRSET_SUBSIM_IC_GENERATOR_H_
