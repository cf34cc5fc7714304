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
/// IMM reuses phase-1 RR sets in phase 2, so its final greedy reads sets
/// that also chose LB. Chen, "An Issue in the Martingale Analysis of the
/// Influence Maximization Algorithm IMM", shows the original proof does not
/// cover that dependence, so IMM is kept verbatim as the paper's Figure 1
/// baseline and is not served (docs/paper_mapping.md). A run fills one
/// local collection from stream `MakeRngStream(rng_seed, 1)` and ignores
/// `ImOptions::deadline`.
class Imm final : public ImAlgorithm {
 public:
  Result<ImResult> Run(const Graph& graph,
                       const ImOptions& options) const override;
  const char* name() const override { return "imm"; }
};

}  // namespace subsim

#endif  // SUBSIM_ALGO_IMM_H_
