#ifndef SUBSIM_ALGO_OPIM_C_H_
#define SUBSIM_ALGO_OPIM_C_H_

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
/// Every full-budget run records the round it stopped at in the store's
/// stopping-round table, keyed by (k, eps, delta after
/// `EffectiveDelta`, approx_coverage); a deadline stop records nothing. A
/// run whose key is recorded starts at that round: the rounds before it
/// are pure functions of the same prefixes and options and would fail the
/// test again, so it evaluates one round and returns the cold run's seeds,
/// bounds and counts. `opim_c.rounds_skipped` counts the rounds not
/// evaluated. A run whose deadline has already expired at entry ignores
/// the table and evaluates round 1; one with an unspent budget starts at
/// the recorded round and completes it (see `ImOptions::deadline`).
class OpimC final : public ImAlgorithm {
 public:
  Result<ImResult> Run(const Graph& graph,
                       const ImOptions& options) const override;
  bool SupportsSampleReuse() const override { return true; }
  Result<ImResult> RunWithStore(const Graph& graph, const ImOptions& options,
                                SampleStore* store) const override;
  const char* name() const override { return "opim-c"; }
};

}  // namespace subsim

#endif  // SUBSIM_ALGO_OPIM_C_H_
