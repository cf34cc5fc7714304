#ifndef SUBSIM_ALGO_IM_ALGORITHM_H_
#define SUBSIM_ALGO_IM_ALGORITHM_H_

#include <cstdint>
#include <string>
#include <vector>

#include "subsim/graph/graph.h"
#include "subsim/rrset/generator_factory.h"
#include "subsim/rrset/sample_store.h"
#include "subsim/util/deadline.h"
#include "subsim/util/status.h"

namespace subsim {

/// Common knobs for every RR-set-based IM algorithm.
struct ImOptions {
  /// Seed-set budget.
  std::uint32_t k = 50;

  /// Approximation slack: algorithms certify (1 - 1/e - epsilon)-approximate
  /// solutions. The paper's experiments use 0.1.
  double epsilon = 0.1;

  /// Failure probability. 0 means "use 1/n" (the paper's default).
  double delta = 0.0;

  /// RNG seed; everything downstream is deterministic given it.
  std::uint64_t rng_seed = 1;

  /// Which RR-set generator to use — the axis the paper varies:
  /// OPIM-C + kSubsimIc is the paper's "SUBSIM" algorithm, HIST + kSubsimIc
  /// its "HIST+SUBSIM".
  GeneratorKind generator = GeneratorKind::kVanillaIc;

  /// Worker threads for RR-set generation (`FillCollection`): 1 (default)
  /// runs fills inline; 0 = hardware concurrency; N = N workers. Every RR
  /// set is drawn from a counter-based substream of `rng_seed`, so the
  /// sample stream — and therefore the selected seeds — is byte-identical
  /// for every value; the thread count changes wall-clock time only.
  unsigned num_threads = 1;

  /// RR-generation kernel for fills (`FillKernel`): `kAuto` (default)
  /// resolves to the frontier-batched kernel, `kScalar` forces the
  /// per-set reference path. The sample stream — and therefore the
  /// selected seeds — is byte-identical for every value; the knob changes
  /// wall-clock time only (see docs/rr_generation.md).
  FillKernel fill_kernel = FillKernel::kAuto;

  /// Arena storage encoding for every RR collection the run builds (local
  /// collections and `OpimC::MakeSampleStore` stores alike). A pure
  /// storage knob: the sample stream, the inverted index, and therefore the
  /// selected seeds are identical for every value — kDeltaVarint just
  /// spends ~3-4x fewer arena bytes (see docs/memory.md).
  RrEncoding rr_encoding = RrEncoding::kRaw;

  /// Not read, except that `ValidateImOptions` rejects true (greedy is
  /// always exact); kept only because `bench/trajectory/replay.cc` assigns
  /// it; delete with the replay.
  bool approx_coverage = false;

  /// Optional observability sinks (must outlive the run). Attaching them
  /// never changes the RNG streams or the selected seeds — metrics are
  /// flushed outside the sampling loops and spans only read the clock.
  ObsContext obs;

  /// Optional execution budget (serving deadline). Unset (the default)
  /// costs nothing and changes nothing. When set, the two served
  /// algorithms (OPIM-C, HIST) check it at round boundaries only: the first
  /// round always completes, so a degraded run still returns seeds,
  /// annotated with the achieved `(epsilon, delta)` instead of failing. For
  /// OPIM-C the sets evaluated are an exact prefix of the un-budgeted run's
  /// sample streams. HIST checks it at both phases' doubling boundaries; an
  /// expiry in phase 1 drops the sentinels (b = 0), so its phase 2
  /// certifies the whole seed set. IMM, SSA, CELF and the degree
  /// heuristics ignore it. See `ImResult::deadline_hit`.
  ///
  /// On a store where an earlier full-budget OPIM-C run with the same
  /// options recorded its verdict (see `OpimC`), no round is evaluated: an
  /// unspent budget, however small, gets the recorded full-budget answer at
  /// O(k) cost and no `deadline_hit`. A budget already spent when the run
  /// starts evaluates round 1 only, as a cold run does.
  Deadline deadline;

  /// Resolves delta == 0 to 1/n.
  double EffectiveDelta(NodeId num_nodes) const {
    return delta > 0.0 ? delta
                       : 1.0 / static_cast<double>(
                                   num_nodes > 1 ? num_nodes : 2);
  }
};

/// What an IM run produced, plus the accounting the paper's figures report.
struct ImResult {
  std::vector<NodeId> seeds;

  /// Certified influence bounds when the algorithm computes them (OPIM-C,
  /// HIST); zero otherwise. `approx_ratio` = lower / upper.
  double influence_lower_bound = 0.0;
  double optimal_upper_bound = 0.0;
  double approx_ratio = 0.0;

  /// Unbiased coverage-based estimate of the selected set's influence.
  double estimated_spread = 0.0;

  /// Total RR sets generated across all collections and phases — the
  /// quantity Figure 3(a) compares.
  std::uint64_t num_rr_sets = 0;
  /// Total nodes stored across those sets; avg = total / num — Fig. 3(b).
  std::uint64_t total_rr_nodes = 0;

  /// Wall-clock seconds for the full run.
  double seconds = 0.0;

  /// True when `ImOptions::deadline` expired and the run stopped at a
  /// round boundary before reaching its requested epsilon. The seeds are
  /// still a valid greedy solution over the committed sample prefix, and
  /// `achieved_epsilon` reports the certified slack actually reached.
  bool deadline_hit = false;
  /// The epsilon actually certified at the run's delta: for OPIM-C and
  /// HIST, `(1 - 1/e) - approx_ratio` (floored at 0) from the last
  /// completed round's bounds (HIST's phase 2; 0 when its phase 1 already
  /// returned all k seeds); for IMM, the epsilon the phase-2 sample-size
  /// formula yields when inverted at the number of sets evaluated. Equals
  /// at most the requested epsilon on a full-budget run; larger on a
  /// degraded one.
  double achieved_epsilon = 0.0;

  /// OPIM-C only: how many of the `num_rr_sets` evaluated this run
  /// appended to its `SampleStore`; the rest were already committed by
  /// earlier or concurrent runs on the same store. Equals `num_rr_sets` on
  /// a cold `Run`.
  std::uint64_t rr_sets_generated = 0;

  /// HIST only: sentinel-set size b and per-phase RR counts.
  std::uint32_t sentinel_size = 0;
  std::uint64_t phase1_rr_sets = 0;
  std::uint64_t phase2_rr_sets = 0;

  double average_rr_size() const {
    return num_rr_sets == 0
               ? 0.0
               : static_cast<double>(total_rr_nodes) / num_rr_sets;
  }
};

/// Interface implemented by the eight algorithms `MakeImAlgorithm` builds:
/// the RIS family (IMM, OPIM-C, SSA, HIST), Monte Carlo CELF greedy
/// (`celf-mc`), and the three degree heuristics (max-degree,
/// single-discount, degree-discount).
class ImAlgorithm {
 public:
  virtual ~ImAlgorithm() = default;

  /// Selects a seed set on `graph` under IC semantics (or LT when the
  /// options name the LT generator). Fails on invalid options (k == 0,
  /// k > n, epsilon outside (0, 1 - 1/e), or generator preconditions).
  virtual Result<ImResult> Run(const Graph& graph,
                               const ImOptions& options) const = 0;

  virtual const char* name() const = 0;
};

/// Validates the option invariants shared by all algorithms.
Status ValidateImOptions(const Graph& graph, const ImOptions& options);

/// Validates that `store` matches (graph, options.generator) before an
/// `OpimC::RunWithStore`. The rng seed lineage is not recoverable from a
/// store; callers must key stores by seed (the serving cache does).
Status ValidateSampleStore(const Graph& graph, const ImOptions& options,
                           const SampleStore& store);

}  // namespace subsim

#endif  // SUBSIM_ALGO_IM_ALGORITHM_H_
