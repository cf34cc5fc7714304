#include "subsim/algo/ssa.h"

#include <algorithm>
#include <cmath>

#include "subsim/algo/theta.h"
#include "subsim/coverage/bounds.h"
#include "subsim/coverage/max_coverage.h"
#include "subsim/obs/phase_tracer.h"
#include "subsim/rrset/parallel_fill.h"
#include "subsim/util/math.h"

namespace subsim {

Result<ImResult> Ssa::Run(const Graph& graph,
                          const ImOptions& options) const {
  SUBSIM_RETURN_IF_ERROR(ValidateImOptions(graph, options));
  PhaseScope run_span(options.obs.tracer, "ssa.run");

  const NodeId n = graph.num_nodes();
  const std::uint32_t k = options.k;
  const double eps = options.epsilon;
  const double delta = options.EffectiveDelta(n);

  // Epsilon split: eps1 guards the stare test (validated estimate vs
  // selection estimate), eps3 the concentration floor.
  const double eps1 = eps / 2.0;
  const double eps3 = eps / 2.0;

  // Concentration floor on coverage: below Lambda1 covered sets, the
  // estimate for the candidate cannot have converged (Chernoff with
  // relative error eps3). Deliberately *no* ln C(n,k) union-bound term —
  // being optimistic about the one selected set instead of all C(n,k)
  // candidates is SSA's whole advantage over IMM; the worst case is
  // covered by the theta_max cap below.
  const double lambda1 = (1.0 + eps1) * (1.0 + eps1) *
                         (2.0 + 2.0 / 3.0 * eps3) *
                         std::log(3.0 / delta) / (eps3 * eps3);

  const std::uint64_t theta0 = InitialTheta(delta);
  const std::uint64_t theta_max = OpimThetaMax(n, k, eps, delta);
  const std::uint32_t i_max = DoublingIterations(theta0, theta_max);
  const double delta_iter = delta / (3.0 * i_max);

  RngStream rng1 = MakeRngStream(options.rng_seed, 1);
  RngStream rng2 = MakeRngStream(options.rng_seed, 2);
  RrCollection r1(n, options.rr_encoding);
  // R2 is only counted (`ComputeCoverage`), so it keeps no index.
  RrCollection r2(n, options.rr_encoding, RrIndexing::kUnindexed);

  CoverageGreedyOptions greedy_options;
  greedy_options.k = k;
  greedy_options.approx_coverage = options.approx_coverage;
  greedy_options.metrics = options.obs.metrics;

  ImResult result;
  for (std::uint32_t i = 1; i <= i_max; ++i) {
    PhaseScope round_span(options.obs.tracer, "ssa.round");
    const std::uint64_t target = theta0 << (i - 1);
    SUBSIM_RETURN_IF_ERROR(FillCollection(
        {.kind = options.generator, .graph = &graph, .rng = &rng1,
         .count = target - r1.num_sets(), .num_threads = options.num_threads,
         .sentinels = {}, .obs = options.obs,
         .kernel = options.fill_kernel},
        &r1));

    const CoverageGreedyResult greedy = RunCoverageGreedy(r1, greedy_options);
    const double selection_estimate =
        static_cast<double>(n) *
        static_cast<double>(greedy.total_coverage()) /
        static_cast<double>(r1.num_sets());

    // Stare: validate on the independent collection.
    SUBSIM_RETURN_IF_ERROR(FillCollection(
        {.kind = options.generator, .graph = &graph, .rng = &rng2,
         .count = target - r2.num_sets(), .num_threads = options.num_threads,
         .sentinels = {}, .obs = options.obs,
         .kernel = options.fill_kernel},
        &r2));
    const std::uint64_t cov2 = ComputeCoverage(r2, greedy.seeds);
    const double validated_estimate = static_cast<double>(n) *
                                      static_cast<double>(cov2) /
                                      static_cast<double>(r2.num_sets());

    result.seeds = greedy.seeds;
    result.estimated_spread = validated_estimate;
    result.influence_lower_bound =
        std::max(static_cast<double>(greedy.seeds.size()),
                 OpimLowerBound(cov2, r2.num_sets(), n, delta_iter));
    if (options.obs.metrics != nullptr) {
      options.obs.metrics->Gauge("ssa.validated_estimate")
          .Set(validated_estimate);
      options.obs.metrics->Gauge("ssa.lower_bound")
          .Set(result.influence_lower_bound);
    }

    const bool coverage_floor =
        static_cast<double>(greedy.total_coverage()) >= lambda1;
    const bool stare_ok =
        validated_estimate >= selection_estimate / (1.0 + eps1);
    if ((coverage_floor && stare_ok) || i == i_max) {
      // At the cap, certify via the Equation (1)/(2) bounds so the final
      // answer carries the worst-case guarantee (the SSA-Fix repair).
      const double lambda_upper = CoverageUpperBoundFromGreedy(greedy, k);
      result.optimal_upper_bound =
          OpimUpperBound(lambda_upper, r1.num_sets(), n, delta_iter);
      result.approx_ratio =
          result.optimal_upper_bound > 0.0
              ? result.influence_lower_bound / result.optimal_upper_bound
              : 0.0;
      break;
    }
  }

  result.num_rr_sets = r1.num_sets() + r2.num_sets();
  result.total_rr_nodes = r1.total_nodes() + r2.total_nodes();
  result.seconds = run_span.ElapsedSeconds();
  return result;
}

}  // namespace subsim
