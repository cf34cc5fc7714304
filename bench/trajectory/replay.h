#ifndef SUBSIM_BENCH_TRAJECTORY_REPLAY_H_
#define SUBSIM_BENCH_TRAJECTORY_REPLAY_H_

// Traced replays of OPIM-C and HIST built from the library's public
// functions (theta.h, FillCollection / SampleStore::EnsureSets,
// RunCoverageGreedy, ComputeCoverage, the bound functions), with a span
// around each call. A replay must return exactly what `ImAlgorithm::Run`
// returns for the same options (`SameResult`); a run whose replay differs
// fails instead of publishing a split of some other computation.
//
// Span names, by layer:
//   algo.round, algo.hist.sentinel_phase, algo.hist.phase2
//   rrset.fill (and rrset.store_create, opened by the caller)
//   coverage.greedy, coverage.validate, coverage.bound

#include <cstdint>

#include "span_log.h"
#include "subsim/algo/im_algorithm.h"
#include "subsim/graph/graph.h"
#include "subsim/rrset/sample_store.h"
#include "subsim/util/status.h"

namespace trajectory {

/// OPIM-C's round loop (`OpimC::RunWithStore`) against `store`, which must
/// come from `OpimC::MakeSampleStore(graph, options)`; it may be warm.
subsim::Result<subsim::ImResult> ReplayOpimC(const subsim::Graph& graph,
                                             const subsim::ImOptions& options,
                                             subsim::SampleStore* store,
                                             SpanLog* log, std::uint64_t op);

/// `Hist::Run`. `rr_bytes` receives the footprint of the RR collections
/// the solve holds when it returns.
subsim::Result<subsim::ImResult> ReplayHist(const subsim::Graph& graph,
                                            const subsim::ImOptions& options,
                                            SpanLog* log, std::uint64_t op,
                                            std::uint64_t* rr_bytes);

/// Bit-for-bit equality of everything a solve reports except wall time.
bool SameResult(const subsim::ImResult& a, const subsim::ImResult& b);

}  // namespace trajectory

#endif  // SUBSIM_BENCH_TRAJECTORY_REPLAY_H_
