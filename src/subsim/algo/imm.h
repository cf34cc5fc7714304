#ifndef SUBSIM_ALGO_IMM_H_
#define SUBSIM_ALGO_IMM_H_

#include "subsim/algo/im_algorithm.h"

namespace subsim {

/// IMM (Tang et al., SIGMOD 2015): martingale-based two-phase algorithm.
///
/// Phase 1 (sampling) geometrically lowers a guess x of OPT, each round
/// generating lambda'/x RR sets and testing whether the greedy coverage
/// certifies OPT >= x/(1+eps'); the surviving guess yields a lower bound
/// LB on OPT. Phase 2 tops the collection up to lambda*/LB sets and runs
/// the greedy for the final seeds. Guarantees (1 - 1/e - eps) with
/// probability 1 - delta (delta = n^-l).
///
/// IMM reuses phase-1 RR sets in phase 2 — the weak dependence the
/// martingale bounds (Lemma 2 of the reproduced paper) are there to absorb.
///
/// The single RR stream lives in a `SampleStore` (stream 0; stream 1 is
/// left untouched), so a run can resume sampling done by earlier queries.
/// `RunWithStore` replays the cold schedule against prefix views of exactly
/// the sizes a cold run would have reached — including phase 2's quirk that
/// the final greedy runs over max(theta, the phase-1 watermark) sets — so
/// warm results are bit-identical to cold ones for a fixed rng seed.
class Imm final : public ImAlgorithm {
 public:
  Result<ImResult> Run(const Graph& graph,
                       const ImOptions& options) const override;
  bool SupportsSampleReuse() const override { return true; }
  Result<ImResult> RunWithStore(const Graph& graph, const ImOptions& options,
                                SampleStore* store) const override;
  const char* name() const override { return "imm"; }
};

}  // namespace subsim

#endif  // SUBSIM_ALGO_IMM_H_
