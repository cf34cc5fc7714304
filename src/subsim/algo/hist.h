#ifndef SUBSIM_ALGO_HIST_H_
#define SUBSIM_ALGO_HIST_H_

#include "subsim/algo/im_algorithm.h"

namespace subsim {

/// HIST — Hit-and-Stop (Algorithm 4): the paper's algorithm for
/// high-influence networks.
///
/// Phase 1, `SentinelSet` (Algorithm 7), finds a small sentinel set S*_b
/// with the relaxed guarantee I(S*_b) >= (1 - (1-1/k)^b - eps/2) * OPT:
/// a doubling loop selects seeds with the out-degree tie-breaking greedy
/// (Algorithm 6), picks b as the largest greedy prefix whose *estimated*
/// lower bound clears the relaxed target against the Equation (2) upper
/// bound, and verifies the pick on an independent sentinel-truncated
/// collection (growing it to 4x before giving up on the candidate).
///
/// Phase 2, `IM-Sentinel` (Algorithm 8), selects the remaining k - b seeds.
/// Every RR set is generated with hit-and-stop semantics (Algorithm 5):
/// the traversal ends the moment any sentinel is activated, which is what
/// collapses the average RR-set size (up to ~700x in the paper's Figure 3)
/// and with it the running time. The union of both phases carries the
/// usual (1 - 1/e - eps) guarantee with probability 1 - delta
/// (eps and delta split evenly across phases).
///
/// A set `ImOptions::deadline` is checked at both phases' doubling
/// boundaries. Expiry in phase 1 drops the sentinels; expiry in phase 2
/// stops after the current round. Either way the run returns k seeds with
/// phase-2 bounds and `achieved_epsilon`, and sets `deadline_hit`.
///
/// Combine with `ImOptions::generator = kSubsimIc` for the paper's
/// HIST+SUBSIM variant.
class Hist final : public ImAlgorithm {
 public:
  Result<ImResult> Run(const Graph& graph,
                       const ImOptions& options) const override;
  const char* name() const override { return "hist"; }
};

}  // namespace subsim

#endif  // SUBSIM_ALGO_HIST_H_
