#ifndef SUBSIM_COVERAGE_REFERENCE_GREEDY_H_
#define SUBSIM_COVERAGE_REFERENCE_GREEDY_H_

#include "subsim/coverage/max_coverage.h"

namespace subsim {

/// Textbook greedy max-coverage: recompute every node's marginal coverage
/// with a full scan at each of the k steps — O(n + total index size) per
/// step, no lazy evaluation, no heap — and Λ^u from a fresh recount of
/// every marginal at every prefix. Semantically identical to
/// `RunCoverageGreedy` (same options, same tie-breaks, same outputs).
///
/// This exists for differential testing: the CELF implementation's
/// correctness argument is subtle (stale-key domination), so the test
/// suite checks both implementations produce byte-identical results across
/// randomized instances. Production code should use `RunCoverageGreedy`.
CoverageGreedyResult RunReferenceCoverageGreedy(
    const RrCollection& collection, const CoverageGreedyOptions& options);

}  // namespace subsim

#endif  // SUBSIM_COVERAGE_REFERENCE_GREEDY_H_
