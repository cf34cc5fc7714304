#include "subsim/algo/hist.h"

#include <algorithm>
#include <cmath>
#include <span>
#include <utility>

#include "subsim/algo/theta.h"
#include "subsim/coverage/bounds.h"
#include "subsim/coverage/max_coverage.h"
#include "subsim/obs/phase_tracer.h"
#include "subsim/rrset/parallel_fill.h"
#include "subsim/util/math.h"

namespace subsim {

namespace {

/// Bookkeeping shared by both phases.
struct PhaseStats {
  std::uint64_t rr_sets = 0;
  std::uint64_t rr_nodes = 0;

  void Absorb(const RrCollection& collection) {
    rr_sets += collection.num_sets();
    rr_nodes += collection.total_nodes();
  }
};

/// Every HIST fill: one run's graph, generator, threads, kernel and sinks,
/// varying only in stream, count and sentinels. `Fill` also adds the
/// collection's growth to the `hist.{truncated,untruncated}_{sets,nodes}`
/// counters (plus `hist.sentinel_hit_sets` for truncated fills), so the
/// truncation savings the paper claims for Algorithm 5 are observable: the
/// metrics regression test asserts truncated mean size < untruncated mean
/// size.
struct HistFiller {
  const Graph& graph;
  const ImOptions& options;

  Status Fill(RngStream& rng, std::uint64_t count,
              std::span<const NodeId> sentinels, bool truncated,
              RrCollection* collection) const {
    const std::uint64_t sets_before = collection->num_sets();
    const std::uint64_t nodes_before = collection->total_nodes();
    const std::uint64_t hits_before = collection->num_hit_sentinel();
    SUBSIM_RETURN_IF_ERROR(FillCollection(
        {.kind = options.generator, .graph = &graph, .rng = &rng,
         .count = count, .num_threads = options.num_threads,
         .sentinels = sentinels, .obs = options.obs,
         .kernel = options.fill_kernel},
        collection));
    MetricsRegistry* const metrics = options.obs.metrics;
    if (metrics == nullptr) {
      return Status::Ok();
    }
    metrics
        ->Counter(truncated ? "hist.truncated_sets" : "hist.untruncated_sets")
        .Add(collection->num_sets() - sets_before);
    metrics
        ->Counter(truncated ? "hist.truncated_nodes"
                            : "hist.untruncated_nodes")
        .Add(collection->total_nodes() - nodes_before);
    if (truncated) {
      metrics->Counter("hist.sentinel_hit_sets")
          .Add(collection->num_hit_sentinel() - hits_before);
    }
    return Status::Ok();
  }
};

/// Output of Algorithm 7.
struct SentinelPhase {
  std::vector<NodeId> sentinels;
  PhaseStats stats;
};

/// Algorithm 7: SentinelSet(G, k, eps1, delta1).
Result<SentinelPhase> RunSentinelSet(const Graph& graph,
                                     const ImOptions& options, double eps1,
                                     double delta1, RngStream& rng1,
                                     RngStream& rng2) {
  const NodeId n = graph.num_nodes();
  const std::uint32_t k = options.k;

  const std::uint64_t theta0 = InitialTheta(delta1);
  const std::uint64_t theta_max = HistPhase1ThetaMax(n, k, eps1, delta1);
  const std::uint32_t i_max = DoublingIterations(theta0, theta_max);
  const double delta_u = delta1 / (3.0 * i_max);
  const double delta_l = delta1 / (6.0 * i_max);

  MetricsRegistry* const metrics = options.obs.metrics;
  PhaseScope phase_span(options.obs.tracer, "hist.sentinel_phase");
  const HistFiller filler{graph, options};

  SentinelPhase phase;
  RrCollection r1(n, options.rr_encoding);
  SUBSIM_RETURN_IF_ERROR(
      filler.Fill(rng1, theta0, {}, /*truncated=*/false, &r1));

  CoverageGreedyOptions greedy_options;
  greedy_options.k = k;
  greedy_options.tie_break_by_out_degree = true;
  greedy_options.graph = &graph;
  greedy_options.approx_coverage = options.approx_coverage;
  greedy_options.metrics = metrics;

  std::vector<NodeId> fallback;  // last greedy prefix, in case nothing passes

  for (std::uint32_t i = 1; i <= i_max; ++i) {
    // Line 5: revised greedy (Algorithm 6) on R1.
    const CoverageGreedyResult greedy = RunCoverageGreedy(r1, greedy_options);
    fallback = greedy.seeds;

    // Line 7: Equation (2) upper bound of the optimum.
    const double lambda_upper = CoverageUpperBoundFromGreedy(greedy, k);
    const double upper =
        OpimUpperBound(lambda_upper, r1.num_sets(), n, delta_u);

    // Lines 6/8: estimated lower bound per greedy prefix (treating R1 as
    // if independent of the selection), then b = the largest qualifying a.
    std::uint32_t b = 0;
    for (std::uint32_t a = 1; a <= greedy.seeds.size(); ++a) {
      const double est_lower = OpimLowerBound(greedy.coverage_prefix[a - 1],
                                              r1.num_sets(), n, delta_l);
      const double target = HistApproxTarget(k, a, eps1);
      if (upper > 0.0 && est_lower / upper > target) {
        b = a;
      }
    }

    if (b > 0) {
      std::vector<NodeId> candidate(greedy.seeds.begin(),
                                    greedy.seeds.begin() + b);
      const double target = HistApproxTarget(k, b, eps1);

      // Lines 9-12: verify on an independent sentinel-truncated R2, which
      // is only counted and so keeps no index. The rng2 cursor persists
      // across iterations even though r2 is rebuilt, so every iteration
      // verifies on fresh samples.
      RrCollection r2(n, options.rr_encoding, RrIndexing::kUnindexed);
      SUBSIM_RETURN_IF_ERROR(filler.Fill(rng2, r1.num_sets(), candidate,
                                         /*truncated=*/true, &r2));
      std::uint64_t cov = ComputeCoverage(r2, candidate);
      double lower = OpimLowerBound(cov, r2.num_sets(), n, delta_l);
      if (upper > 0.0 && lower / upper > target) {
        phase.stats.Absorb(r2);
        phase.stats.Absorb(r1);
        phase.sentinels = std::move(candidate);
        return phase;
      }

      // Lines 13-15: tighten the lower bound once with |R2| = 4 |R1|.
      SUBSIM_RETURN_IF_ERROR(filler.Fill(rng2, 3 * r1.num_sets(), candidate,
                                         /*truncated=*/true, &r2));
      cov = ComputeCoverage(r2, candidate);
      lower = OpimLowerBound(cov, r2.num_sets(), n, delta_l);
      phase.stats.Absorb(r2);
      if (upper > 0.0 && lower / upper > target) {
        phase.stats.Absorb(r1);
        phase.sentinels = std::move(candidate);
        return phase;
      }
      fallback = std::move(candidate);
    }

    // Line 16: double R1 and retry.
    if (i < i_max) {
      SUBSIM_RETURN_IF_ERROR(
          filler.Fill(rng1, r1.num_sets(), {}, /*truncated=*/false, &r1));
    }
  }

  // Line 17: after i_max iterations theta_max samples back the guarantee;
  // return the last candidate (or, degenerately, the full greedy prefix).
  phase.stats.Absorb(r1);
  phase.sentinels = std::move(fallback);
  return phase;
}

}  // namespace

Result<ImResult> Hist::Run(const Graph& graph,
                           const ImOptions& options) const {
  SUBSIM_RETURN_IF_ERROR(ValidateImOptions(graph, options));
  PhaseScope run_span(options.obs.tracer, "hist.run");
  MetricsRegistry* const metrics = options.obs.metrics;

  const NodeId n = graph.num_nodes();
  const std::uint32_t k = options.k;
  const double eps = options.epsilon;
  const double delta = options.EffectiveDelta(n);
  // Line 1 of Algorithm 4: split the budgets evenly across the phases.
  const double eps1 = eps / 2.0;
  const double eps2 = eps / 2.0;
  const double delta1 = delta / 2.0;
  const double delta2 = delta / 2.0;

  // Four independent counter-based sample streams; fills construct their
  // own generators, and each stream's cursor makes its samples a pure
  // function of (rng_seed, stream, index) — invariant to thread count.
  RngStream rng1 = MakeRngStream(options.rng_seed, 1);
  RngStream rng2 = MakeRngStream(options.rng_seed, 2);
  RngStream rng3 = MakeRngStream(options.rng_seed, 3);
  RngStream rng4 = MakeRngStream(options.rng_seed, 4);

  // ---- Phase 1: sentinel selection (Algorithm 7). ----
  // Guard: the sentinel phase only pays off when its relaxed target
  // 1 - (1-1/k)^b - eps1 is *looser* than the final 1 - 1/e - eps for some
  // b >= 1. At k = 1 (and tiny k with small eps) even b = 1 demands a
  // near-exact certificate — strictly harder than the original problem —
  // so HIST degenerates to the sentinel-free phase 2 (i.e. OPIM-C-style
  // selection under the Equation (4) schedule with b = 0).
  const bool sentinel_phase_useful =
      HistApproxTarget(options.k, 1, eps1) < kOneMinusInvE - eps;

  SentinelPhase phase1;
  if (sentinel_phase_useful) {
    Result<SentinelPhase> sentinel_result =
        RunSentinelSet(graph, options, eps1, delta1, rng1, rng2);
    if (!sentinel_result.ok()) {
      return sentinel_result.status();
    }
    phase1 = std::move(*sentinel_result);
  }
  std::vector<NodeId>& sentinels = phase1.sentinels;
  const std::uint32_t b = static_cast<std::uint32_t>(sentinels.size());

  ImResult result;
  result.sentinel_size = b;
  result.phase1_rr_sets = phase1.stats.rr_sets;
  if (metrics != nullptr) {
    metrics->Gauge("hist.sentinel_size").Set(static_cast<double>(b));
  }

  if (b >= k) {
    // Degenerate: phase 1 already produced k seeds with the full target.
    result.seeds = sentinels;
    result.num_rr_sets = phase1.stats.rr_sets;
    result.total_rr_nodes = phase1.stats.rr_nodes;
    result.seconds = run_span.ElapsedSeconds();
    return result;
  }

  // ---- Phase 2: IM-Sentinel (Algorithm 8). ----
  PhaseScope phase2_span(options.obs.tracer, "hist.phase2");
  // With an empty sentinel set (b == 0) phase 2 degenerates to plain
  // OPIM-C-style sampling, so its sets are metered as untruncated.
  const bool phase2_truncated = b > 0;
  const std::uint64_t theta0 = InitialTheta(delta2);
  const std::uint64_t theta_max = HistPhase2ThetaMax(n, k, b, eps2, delta2);
  const std::uint32_t i_max = DoublingIterations(theta0, theta_max);
  const double delta_iter = delta2 / (3.0 * i_max);
  const double target_ratio = kOneMinusInvE - eps;

  RrCollection r1(n, options.rr_encoding);
  // R2 is only counted (`ComputeCoverage`), so it keeps no index.
  RrCollection r2(n, options.rr_encoding, RrIndexing::kUnindexed);
  const HistFiller filler{graph, options};
  SUBSIM_RETURN_IF_ERROR(
      filler.Fill(rng3, theta0, sentinels, phase2_truncated, &r1));
  SUBSIM_RETURN_IF_ERROR(
      filler.Fill(rng4, theta0, sentinels, phase2_truncated, &r2));

  CoverageGreedyOptions greedy_options;
  greedy_options.k = k - b;
  greedy_options.tie_break_by_out_degree = true;
  greedy_options.graph = &graph;
  greedy_options.exclude_sentinel_hit_sets = true;  // line 5
  greedy_options.excluded_nodes = sentinels;
  greedy_options.singleton_top_count = k;  // maxMC ranges over k nodes
  greedy_options.approx_coverage = options.approx_coverage;
  greedy_options.metrics = metrics;

  for (std::uint32_t i = 1; i <= i_max; ++i) {
    // Line 6: residual greedy on the unhit sets.
    const CoverageGreedyResult greedy = RunCoverageGreedy(r1, greedy_options);

    // Line 7: assemble the full seed set.
    std::vector<NodeId> seeds = sentinels;
    seeds.insert(seeds.end(), greedy.seeds.begin(), greedy.seeds.end());

    // Line 8: Equation (2) on R1. Coverage of any set containing the
    // sentinels includes every truncated (hit) set.
    const double lambda_upper =
        static_cast<double>(r1.num_hit_sentinel()) +
        CoverageUpperBoundFromGreedy(greedy, k);
    const double upper =
        OpimUpperBound(lambda_upper, r1.num_sets(), n, delta_iter);

    // Line 9: Equation (1) on R2.
    const std::uint64_t cov2 = ComputeCoverage(r2, seeds);
    const double lower =
        std::max(static_cast<double>(seeds.size()),
                 OpimLowerBound(cov2, r2.num_sets(), n, delta_iter));

    result.seeds = std::move(seeds);
    result.influence_lower_bound = lower;
    result.optimal_upper_bound = upper;
    result.approx_ratio = upper > 0.0 ? lower / upper : 0.0;
    result.estimated_spread = static_cast<double>(cov2) *
                              static_cast<double>(n) /
                              static_cast<double>(r2.num_sets());

    if (metrics != nullptr) {
      metrics->Gauge("hist.upper_bound").Set(upper);
      metrics->Gauge("hist.lower_bound").Set(lower);
      metrics->Gauge("hist.approx_ratio").Set(result.approx_ratio);
    }

    // Lines 10-12.
    if (result.approx_ratio > target_ratio || i == i_max) {
      break;
    }
    SUBSIM_RETURN_IF_ERROR(
        filler.Fill(rng3, r1.num_sets(), sentinels, phase2_truncated, &r1));
    SUBSIM_RETURN_IF_ERROR(
        filler.Fill(rng4, r2.num_sets(), sentinels, phase2_truncated, &r2));
  }

  result.phase2_rr_sets = r1.num_sets() + r2.num_sets();
  result.num_rr_sets = phase1.stats.rr_sets + result.phase2_rr_sets;
  result.total_rr_nodes =
      phase1.stats.rr_nodes + r1.total_nodes() + r2.total_nodes();
  result.seconds = run_span.ElapsedSeconds();
  return result;
}

}  // namespace subsim
