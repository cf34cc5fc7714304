#ifndef SUBSIM_ALGO_OPIM_C_H_
#define SUBSIM_ALGO_OPIM_C_H_

#include <memory>

#include "subsim/algo/im_algorithm.h"

namespace subsim {

/// OPIM-C (Tang et al., SIGMOD 2018) — the strongest baseline in the paper
/// and the chassis of its "SUBSIM" algorithm (OPIM-C + the SUBSIM RR-set
/// generator, selected via `ImOptions::generator`).
///
/// Doubling schedule over two equal-size independent collections R1 / R2:
/// R1 selects a seed set greedily and yields the Equation (2) upper bound
/// on the optimum; R2, independent of the selection, yields the
/// Equation (1) lower bound on the selected set. The run stops as soon as
/// lower / upper exceeds 1 - 1/e - epsilon, or after i_max doublings
/// (theta_max per the OPIM analysis, with OPT conservatively >= k).
///
/// Both collections live in a `SampleStore` (streams 0 = R1, 1 = R2), so a
/// run can resume someone else's sampling: `RunWithStore` against a warm
/// store reuses its committed sets and evaluates each round on a prefix
/// view of exactly the size a cold run would have had — which is why warm
/// results are bit-identical to cold ones for a fixed rng seed.
///
/// A run also reuses the verdict an earlier run reached on the same store.
/// Every full-budget run records its stopping round and its answer in the
/// store's verdict table, keyed by (k, eps, delta after `EffectiveDelta`);
/// a deadline stop records nothing. A run whose key is recorded returns
/// that answer without evaluating a round: every round is a pure function
/// of the same prefixes and options, so the answer is the cold run's seeds,
/// bounds and counts, at O(k) cost. `opim_c.rounds_skipped` counts the
/// rounds not evaluated (the recorded round on a hit, 0 on a miss). A run
/// whose deadline has already expired at entry ignores the table and
/// evaluates round 1; one with an unspent budget takes the recorded answer
/// (see `ImOptions::deadline`).
class OpimC final : public ImAlgorithm {
 public:
  Result<ImResult> Run(const Graph& graph,
                       const ImOptions& options) const override;

  /// Creates a store whose rng stream lineage matches a cold run over
  /// `graph`, suitable for `RunWithStore`: store streams 0 and 1 are
  /// logical streams 1 and 2 of `options.rng_seed` (R1 and R2). Only the
  /// generator, rng seed, thread count, fill kernel and encoding of
  /// `options` shape the store; k, epsilon and delta may differ between the
  /// runs it serves.
  Result<std::unique_ptr<SampleStore>> MakeSampleStore(
      const Graph& graph, const ImOptions& options) const;

  /// Runs against a store created by `MakeSampleStore` over the same
  /// (graph, generator, rng seed): committed sets are reused and only what
  /// the schedule still misses is generated. Without a deadline the result
  /// is identical to a cold `Run` with the same options (all but `seconds`
  /// and `rr_sets_generated`), no matter what other runs the store served
  /// before. With one, a run whose verdict the store holds returns the
  /// full-budget answer where a cold run would have degraded (see
  /// `ImOptions::deadline`).
  Result<ImResult> RunWithStore(const Graph& graph, const ImOptions& options,
                                SampleStore* store) const;

  const char* name() const override { return "opim-c"; }
};

}  // namespace subsim

#endif  // SUBSIM_ALGO_OPIM_C_H_
