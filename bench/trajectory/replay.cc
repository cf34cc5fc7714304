#include "replay.h"

#include <algorithm>
#include <utility>
#include <vector>

#include "subsim/algo/theta.h"
#include "subsim/coverage/bounds.h"
#include "subsim/coverage/max_coverage.h"
#include "subsim/rrset/parallel_fill.h"
#include "subsim/util/math.h"

namespace trajectory {

using subsim::CoverageGreedyOptions;
using subsim::CoverageGreedyResult;
using subsim::Graph;
using subsim::ImOptions;
using subsim::ImResult;
using subsim::NodeId;
using subsim::Result;
using subsim::RngStream;
using subsim::RrCollection;

namespace {

/// One fill of `count` sets into `collection` under a `rrset.fill` span.
subsim::Status Fill(const Graph& graph, const ImOptions& options,
                    RngStream* rng, std::size_t count,
                    std::span<const NodeId> sentinels, RrCollection* collection,
                    SpanLog* log, std::uint64_t op) {
  const SpanScope span(log, "rrset.fill", op);
  return subsim::FillCollection(
      {.kind = options.generator, .graph = &graph, .rng = rng,
       .count = count, .num_threads = options.num_threads,
       .sentinels = sentinels, .obs = options.obs,
       .kernel = options.fill_kernel},
      collection);
}

CoverageGreedyResult Greedy(subsim::RrCollectionView collection,
                            const CoverageGreedyOptions& options, SpanLog* log,
                            std::uint64_t op) {
  const SpanScope span(log, "coverage.greedy", op);
  return subsim::RunCoverageGreedy(collection, options);
}

std::uint64_t Coverage(subsim::RrCollectionView collection,
                       std::span<const NodeId> seeds, SpanLog* log,
                       std::uint64_t op) {
  const SpanScope span(log, "coverage.validate", op);
  return subsim::ComputeCoverage(collection, seeds);
}

struct PhaseSets {
  std::uint64_t rr_sets = 0;
  std::uint64_t rr_nodes = 0;

  void Absorb(const RrCollection& collection) {
    rr_sets += collection.num_sets();
    rr_nodes += collection.total_nodes();
  }
};

struct SentinelPhase {
  std::vector<NodeId> sentinels;
  PhaseSets sets;
};

/// Algorithm 7, as `hist.cc` runs it.
Result<SentinelPhase> ReplaySentinelSet(const Graph& graph,
                                        const ImOptions& options, double eps1,
                                        double delta1, RngStream& rng1,
                                        RngStream& rng2, SpanLog* log,
                                        std::uint64_t op) {
  const NodeId n = graph.num_nodes();
  const std::uint32_t k = options.k;
  const std::uint64_t theta0 = subsim::InitialTheta(delta1);
  const std::uint64_t theta_max =
      subsim::HistPhase1ThetaMax(n, k, eps1, delta1);
  const std::uint32_t i_max = subsim::DoublingIterations(theta0, theta_max);
  const double delta_u = delta1 / (3.0 * i_max);
  const double delta_l = delta1 / (6.0 * i_max);

  const SpanScope phase_span(log, "algo.hist.sentinel_phase", op);
  SentinelPhase phase;
  RrCollection r1(n, options.rr_encoding);
  SUBSIM_RETURN_IF_ERROR(
      Fill(graph, options, &rng1, theta0, {}, &r1, log, op));

  CoverageGreedyOptions greedy_options;
  greedy_options.k = k;
  greedy_options.tie_break_by_out_degree = true;
  greedy_options.graph = &graph;
  greedy_options.approx_coverage = options.approx_coverage;
  greedy_options.metrics = options.obs.metrics;

  std::vector<NodeId> fallback;
  for (std::uint32_t i = 1; i <= i_max; ++i) {
    const SpanScope round_span(log, "algo.round", op);
    const CoverageGreedyResult greedy = Greedy(r1, greedy_options, log, op);
    fallback = greedy.seeds;

    double upper = 0.0;
    std::uint32_t b = 0;
    {
      const SpanScope bound_span(log, "coverage.bound", op);
      const double lambda_upper =
          subsim::CoverageUpperBoundFromGreedy(greedy, k);
      upper = subsim::OpimUpperBound(lambda_upper, r1.num_sets(), n, delta_u);
      for (std::uint32_t a = 1; a <= greedy.seeds.size(); ++a) {
        const double est_lower = subsim::OpimLowerBound(
            greedy.coverage_prefix[a - 1], r1.num_sets(), n, delta_l);
        const double target = subsim::HistApproxTarget(k, a, eps1);
        if (upper > 0.0 && est_lower / upper > target) {
          b = a;
        }
      }
    }

    if (b > 0) {
      std::vector<NodeId> candidate(greedy.seeds.begin(),
                                    greedy.seeds.begin() + b);
      const double target = subsim::HistApproxTarget(k, b, eps1);

      RrCollection r2(n, options.rr_encoding);
      SUBSIM_RETURN_IF_ERROR(Fill(graph, options, &rng2, r1.num_sets(),
                                  candidate, &r2, log, op));
      std::uint64_t cov = Coverage(r2, candidate, log, op);
      double lower = 0.0;
      {
        const SpanScope bound_span(log, "coverage.bound", op);
        lower = subsim::OpimLowerBound(cov, r2.num_sets(), n, delta_l);
      }
      if (upper > 0.0 && lower / upper > target) {
        phase.sets.Absorb(r2);
        phase.sets.Absorb(r1);
        phase.sentinels = std::move(candidate);
        return phase;
      }

      SUBSIM_RETURN_IF_ERROR(Fill(graph, options, &rng2, 3 * r1.num_sets(),
                                  candidate, &r2, log, op));
      cov = Coverage(r2, candidate, log, op);
      {
        const SpanScope bound_span(log, "coverage.bound", op);
        lower = subsim::OpimLowerBound(cov, r2.num_sets(), n, delta_l);
      }
      phase.sets.Absorb(r2);
      if (upper > 0.0 && lower / upper > target) {
        phase.sets.Absorb(r1);
        phase.sentinels = std::move(candidate);
        return phase;
      }
      fallback = std::move(candidate);
    }

    if (i < i_max) {
      SUBSIM_RETURN_IF_ERROR(
          Fill(graph, options, &rng1, r1.num_sets(), {}, &r1, log, op));
    }
  }

  phase.sets.Absorb(r1);
  phase.sentinels = std::move(fallback);
  return phase;
}

}  // namespace

Result<ImResult> ReplayOpimC(const Graph& graph, const ImOptions& options,
                             subsim::SampleStore* store, SpanLog* log,
                             std::uint64_t op) {
  SUBSIM_RETURN_IF_ERROR(subsim::ValidateImOptions(graph, options));
  SUBSIM_RETURN_IF_ERROR(subsim::ValidateSampleStore(graph, options, *store));

  const NodeId n = graph.num_nodes();
  const std::uint32_t k = options.k;
  const double eps = options.epsilon;
  const double delta = options.EffectiveDelta(n);
  const std::uint64_t theta0 = subsim::InitialTheta(delta);
  const std::uint64_t theta_max = subsim::OpimThetaMax(n, k, eps, delta);
  const std::uint32_t i_max = subsim::DoublingIterations(theta0, theta_max);
  const double delta_iter = delta / (3.0 * i_max);
  const double target_ratio = subsim::kOneMinusInvE - eps;

  CoverageGreedyOptions greedy_options;
  greedy_options.k = k;
  greedy_options.approx_coverage = options.approx_coverage;
  greedy_options.metrics = options.obs.metrics;

  ImResult result;
  for (std::uint32_t i = 1; i <= i_max; ++i) {
    const SpanScope round_span(log, "algo.round", op);
    const std::uint64_t target = theta0 << (i - 1);
    {
      const SpanScope fill_span(log, "rrset.fill", op);
      SUBSIM_RETURN_IF_ERROR(store->EnsureSets(0, target));
      SUBSIM_RETURN_IF_ERROR(store->EnsureSets(1, target));
    }
    const subsim::SampleStore::ReadGuard read = store->Read();
    const subsim::RrCollectionView r1 = read.View(0, target);
    const subsim::RrCollectionView r2 = read.View(1, target);

    const CoverageGreedyResult greedy = Greedy(r1, greedy_options, log, op);
    double upper = 0.0;
    {
      const SpanScope bound_span(log, "coverage.bound", op);
      const double lambda_upper =
          subsim::CoverageUpperBoundFromGreedy(greedy, k);
      upper = subsim::OpimUpperBound(lambda_upper, r1.num_sets(), n,
                                     delta_iter);
    }
    const std::uint64_t cov2 = Coverage(r2, greedy.seeds, log, op);
    double lower = 0.0;
    {
      const SpanScope bound_span(log, "coverage.bound", op);
      lower = std::max(
          static_cast<double>(greedy.seeds.size()),
          subsim::OpimLowerBound(cov2, r2.num_sets(), n, delta_iter));
    }

    result.seeds = greedy.seeds;
    result.influence_lower_bound = lower;
    result.optimal_upper_bound = upper;
    result.approx_ratio = upper > 0.0 ? lower / upper : 0.0;
    result.achieved_epsilon =
        std::max(0.0, subsim::kOneMinusInvE - result.approx_ratio);
    result.estimated_spread = static_cast<double>(cov2) *
                              static_cast<double>(n) /
                              static_cast<double>(r2.num_sets());
    result.num_rr_sets = r1.num_sets() + r2.num_sets();
    result.total_rr_nodes = r1.total_nodes() + r2.total_nodes();
    if (result.approx_ratio >= target_ratio || i == i_max) {
      break;
    }
  }
  return result;
}

Result<ImResult> ReplayHist(const Graph& graph, const ImOptions& options,
                            SpanLog* log, std::uint64_t op,
                            std::uint64_t* rr_bytes) {
  SUBSIM_RETURN_IF_ERROR(subsim::ValidateImOptions(graph, options));
  const NodeId n = graph.num_nodes();
  const std::uint32_t k = options.k;
  const double eps = options.epsilon;
  const double delta = options.EffectiveDelta(n);
  const double eps1 = eps / 2.0;
  const double eps2 = eps / 2.0;
  const double delta1 = delta / 2.0;
  const double delta2 = delta / 2.0;

  RngStream rng1 = subsim::MakeRngStream(options.rng_seed, 1);
  RngStream rng2 = subsim::MakeRngStream(options.rng_seed, 2);
  RngStream rng3 = subsim::MakeRngStream(options.rng_seed, 3);
  RngStream rng4 = subsim::MakeRngStream(options.rng_seed, 4);

  const bool sentinel_phase_useful =
      subsim::HistApproxTarget(options.k, 1, eps1) <
      subsim::kOneMinusInvE - eps;
  SentinelPhase phase1;
  if (sentinel_phase_useful) {
    Result<SentinelPhase> sentinel_result = ReplaySentinelSet(
        graph, options, eps1, delta1, rng1, rng2, log, op);
    if (!sentinel_result.ok()) {
      return sentinel_result.status();
    }
    phase1 = std::move(*sentinel_result);
  }
  const std::vector<NodeId>& sentinels = phase1.sentinels;
  const std::uint32_t b = static_cast<std::uint32_t>(sentinels.size());

  ImResult result;
  result.sentinel_size = b;
  result.phase1_rr_sets = phase1.sets.rr_sets;
  *rr_bytes = 0;
  if (b >= k) {
    result.seeds = sentinels;
    result.num_rr_sets = phase1.sets.rr_sets;
    result.total_rr_nodes = phase1.sets.rr_nodes;
    return result;
  }

  const SpanScope phase2_span(log, "algo.hist.phase2", op);
  const std::uint64_t theta0 = subsim::InitialTheta(delta2);
  const std::uint64_t theta_max =
      subsim::HistPhase2ThetaMax(n, k, b, eps2, delta2);
  const std::uint32_t i_max = subsim::DoublingIterations(theta0, theta_max);
  const double delta_iter = delta2 / (3.0 * i_max);
  const double target_ratio = subsim::kOneMinusInvE - eps;

  RrCollection r1(n, options.rr_encoding);
  RrCollection r2(n, options.rr_encoding);
  SUBSIM_RETURN_IF_ERROR(
      Fill(graph, options, &rng3, theta0, sentinels, &r1, log, op));
  SUBSIM_RETURN_IF_ERROR(
      Fill(graph, options, &rng4, theta0, sentinels, &r2, log, op));

  CoverageGreedyOptions greedy_options;
  greedy_options.k = k - b;
  greedy_options.tie_break_by_out_degree = true;
  greedy_options.graph = &graph;
  greedy_options.exclude_sentinel_hit_sets = true;
  greedy_options.excluded_nodes = sentinels;
  greedy_options.singleton_top_count = k;
  greedy_options.approx_coverage = options.approx_coverage;
  greedy_options.metrics = options.obs.metrics;

  for (std::uint32_t i = 1; i <= i_max; ++i) {
    const SpanScope round_span(log, "algo.round", op);
    const CoverageGreedyResult greedy = Greedy(r1, greedy_options, log, op);
    std::vector<NodeId> seeds = sentinels;
    seeds.insert(seeds.end(), greedy.seeds.begin(), greedy.seeds.end());

    double upper = 0.0;
    {
      const SpanScope bound_span(log, "coverage.bound", op);
      const double lambda_upper =
          static_cast<double>(r1.num_hit_sentinel()) +
          subsim::CoverageUpperBoundFromGreedy(greedy, k);
      upper = subsim::OpimUpperBound(lambda_upper, r1.num_sets(), n,
                                     delta_iter);
    }
    const std::uint64_t cov2 = Coverage(r2, seeds, log, op);
    double lower = 0.0;
    {
      const SpanScope bound_span(log, "coverage.bound", op);
      lower = std::max(
          static_cast<double>(seeds.size()),
          subsim::OpimLowerBound(cov2, r2.num_sets(), n, delta_iter));
    }

    result.seeds = std::move(seeds);
    result.influence_lower_bound = lower;
    result.optimal_upper_bound = upper;
    result.approx_ratio = upper > 0.0 ? lower / upper : 0.0;
    result.estimated_spread = static_cast<double>(cov2) *
                              static_cast<double>(n) /
                              static_cast<double>(r2.num_sets());
    if (result.approx_ratio > target_ratio || i == i_max) {
      break;
    }
    SUBSIM_RETURN_IF_ERROR(
        Fill(graph, options, &rng3, r1.num_sets(), sentinels, &r1, log, op));
    SUBSIM_RETURN_IF_ERROR(
        Fill(graph, options, &rng4, r2.num_sets(), sentinels, &r2, log, op));
  }

  result.phase2_rr_sets = r1.num_sets() + r2.num_sets();
  result.num_rr_sets = phase1.sets.rr_sets + result.phase2_rr_sets;
  result.total_rr_nodes =
      phase1.sets.rr_nodes + r1.total_nodes() + r2.total_nodes();
  *rr_bytes = r1.ApproxMemoryBytes() + r2.ApproxMemoryBytes();
  return result;
}

bool SameResult(const ImResult& a, const ImResult& b) {
  return a.seeds == b.seeds && a.num_rr_sets == b.num_rr_sets &&
         a.total_rr_nodes == b.total_rr_nodes &&
         a.approx_ratio == b.approx_ratio &&
         a.influence_lower_bound == b.influence_lower_bound &&
         a.optimal_upper_bound == b.optimal_upper_bound &&
         a.estimated_spread == b.estimated_spread &&
         a.sentinel_size == b.sentinel_size &&
         a.phase1_rr_sets == b.phase1_rr_sets &&
         a.phase2_rr_sets == b.phase2_rr_sets;
}

}  // namespace trajectory
