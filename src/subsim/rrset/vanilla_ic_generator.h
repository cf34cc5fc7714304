#ifndef SUBSIM_RRSET_VANILLA_IC_GENERATOR_H_
#define SUBSIM_RRSET_VANILLA_IC_GENERATOR_H_

#include <vector>

#include "subsim/graph/graph.h"
#include "subsim/rrset/rr_generator.h"
#include "subsim/util/bit_vector.h"

namespace subsim {

/// Per-step draw primitive of Algorithm 2's inner loop, shared verbatim by
/// the scalar generator and the batched kernel's sentinel path so both
/// consume the identical RNG stream: one Bernoulli(p(w, u)) per in-edge of
/// `u`, in in-list order. `try_activate(w)` runs for every successful flip
/// and returns true to stop the traversal (sentinel hit), which aborts the
/// edge loop mid-list — the remaining in-edges draw nothing. Returns true
/// iff the traversal was stopped. A uniform row's weight comes from its
/// `InRowMeta`, bit-identical to every edge's input weight.
template <class TryActivate>
inline bool ExpandVanillaInEdges(const Graph& graph, NodeId u, Rng& rng,
                                 std::uint64_t* edges_examined,
                                 TryActivate&& try_activate) {
  const InRowMeta& meta = graph.InMeta(u);
  const auto sources = graph.InSourcesAt(meta.begin, meta.degree);
  const auto expand = [&](auto weight_of) {
    for (std::size_t i = 0; i < sources.size(); ++i) {
      ++*edges_examined;
      if (rng.Bernoulli(weight_of(i)) && try_activate(sources[i])) {
        return true;
      }
    }
    return false;
  };
  if (meta.uniform()) {
    return expand([p = meta.uniform_weight](std::size_t) { return p; });
  }
  const auto weights = graph.InWeightsAt(meta.begin, meta.degree);
  return expand([weights](std::size_t i) { return weights[i]; });
}

/// Algorithm 2: the vanilla IC RR-set generator used by IMM, SSA and
/// OPIM-C. Reverse BFS from a random root; every in-edge of every activated
/// node gets its own Bernoulli(p(w, u)) coin flip — O(sum of in-degrees of
/// activated nodes) per set.
class VanillaIcGenerator final : public RrGenerator {
 public:
  /// `graph` must outlive the generator.
  explicit VanillaIcGenerator(const Graph& graph);

  bool Generate(Rng& rng, std::vector<NodeId>* out) override;
  void SetSentinels(std::span<const NodeId> sentinels) override;
  const RrGenStats& stats() const override { return stats_; }
  void ResetStats() override { stats_ = RrGenStats{}; }
  const char* name() const override { return "vanilla-ic"; }

 private:
  const Graph& graph_;
  RrGenStats stats_;
  BitVector activated_;
  BitVector sentinel_;
  bool has_sentinels_ = false;
  std::vector<NodeId> queue_;
};

}  // namespace subsim

#endif  // SUBSIM_RRSET_VANILLA_IC_GENERATOR_H_
