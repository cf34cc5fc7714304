#include "subsim/algo/tim_plus.h"

#include <algorithm>
#include <cmath>

#include "subsim/coverage/max_coverage.h"
#include "subsim/obs/phase_tracer.h"
#include "subsim/rrset/parallel_fill.h"
#include "subsim/util/math.h"

namespace subsim {

Result<ImResult> TimPlus::Run(const Graph& graph,
                              const ImOptions& options) const {
  SUBSIM_RETURN_IF_ERROR(ValidateImOptions(graph, options));
  PhaseScope run_span(options.obs.tracer, "tim_plus.run");

  const NodeId n = graph.num_nodes();
  const std::uint32_t k = options.k;
  const double eps = options.epsilon;
  const double delta = options.EffectiveDelta(n);
  const double ln_n = std::log(std::max<double>(n, 2));
  const double l = std::log(1.0 / delta) / ln_n;
  const double m = std::max<double>(1, graph.num_edges());

  Result<std::unique_ptr<RrGenerator>> generator =
      MakeRrGenerator(options.generator, graph);
  if (!generator.ok()) {
    return generator.status();
  }

  // The KPT* probe loop below draws sets one at a time (it inspects each
  // set before deciding whether to stop), so it keeps a plain sequential
  // Rng; the bulk fills use counter-based streams 2 and 3.
  Rng gen_rng(DeriveStreamSeed(options.rng_seed, 1));
  RrCollection collection(n, options.rr_encoding);
  std::vector<NodeId> scratch;

  // ---- Phase 1a: KPT* estimation (TIM Algorithm 2). ----
  // kappa(R) = 1 - (1 - w(R)/m)^k where w(R) sums the in-degrees of R's
  // members; E[kappa] = KPT / n for a random RR set.
  auto kappa = [&](std::span<const NodeId> rr_set) {
    double width = 0.0;
    for (NodeId v : rr_set) {
      width += graph.InDegree(v);
    }
    const double fraction = std::min(1.0, width / m);
    return 1.0 - std::pow(1.0 - fraction, static_cast<double>(k));
  };

  double kpt_star = 1.0;
  const int max_rounds = std::max(1, static_cast<int>(std::log2(n)) - 1);
  const double log_log = std::log(std::max(2.0, std::log2(n)));
  const RrGenStats probe_before = (*generator)->stats();
  for (int i = 1; i <= max_rounds; ++i) {
    const std::uint64_t batch = static_cast<std::uint64_t>(
        std::ceil((6.0 * l * ln_n + 6.0 * log_log) * std::pow(2.0, i)));
    double sum = 0.0;
    for (std::uint64_t j = 0; j < batch; ++j) {
      (*generator)->Generate(gen_rng, &scratch);
      collection.Add(scratch, false);
      sum += kappa(scratch);
    }
    if (sum / static_cast<double>(batch) > std::pow(2.0, -i)) {
      kpt_star = static_cast<double>(n) * sum /
                 (2.0 * static_cast<double>(batch));
      break;
    }
  }
  collection.IndexNewSets();
  kpt_star = std::max(kpt_star, static_cast<double>(k));
  // The probe loop above bypasses Fill, so flush its stats delta here.
  FlushRrGenStatsDelta(probe_before, (*generator)->stats(),
                       options.obs.metrics);

  CoverageGreedyOptions greedy_options;
  greedy_options.k = k;
  greedy_options.approx_coverage = options.approx_coverage;
  greedy_options.metrics = options.obs.metrics;

  // ---- Phase 1b: TIM+ refinement. ----
  // Greedy on the probe sets yields a candidate whose influence is
  // re-estimated on a fresh batch; its (deflated) estimate is a valid lower
  // bound on OPT and is often much tighter than KPT*.
  std::uint64_t refine_sets = 0;
  std::uint64_t refine_nodes = 0;
  {
    const double eps_prime = 5.0 * std::cbrt(l * eps * eps / (k + l));
    const CoverageGreedyResult candidate =
        RunCoverageGreedy(collection, greedy_options);
    const std::uint64_t refine_batch = static_cast<std::uint64_t>(
        std::ceil((2.0 + eps_prime) * l * ln_n * static_cast<double>(n) /
                  (eps_prime * eps_prime * kpt_star)));
    RrCollection refine(n, options.rr_encoding, RrIndexing::kUnindexed);
    RngStream refine_rng = MakeRngStream(options.rng_seed, 2);
    // Cap the refinement effort; it is a heuristic tightener.
    const std::uint64_t capped =
        std::min<std::uint64_t>(refine_batch, 1u << 18);
    SUBSIM_RETURN_IF_ERROR(FillCollection(
        {.kind = options.generator, .graph = &graph, .rng = &refine_rng,
         .count = capped, .num_threads = options.num_threads,
         .sentinels = {}, .obs = options.obs,
         .kernel = options.fill_kernel},
        &refine));
    const std::uint64_t cov = ComputeCoverage(refine, candidate.seeds);
    const double estimate = static_cast<double>(cov) * n /
                            static_cast<double>(refine.num_sets());
    const double kpt_prime = estimate / (1.0 + eps_prime);
    kpt_star = std::max(kpt_star, kpt_prime);
    refine_sets = refine.num_sets();
    refine_nodes = refine.total_nodes();
  }

  // ---- Phase 2: theta = lambda / KPT+, fresh collection, greedy. ----
  const double lambda = (8.0 + 2.0 * eps) * static_cast<double>(n) *
                        (l * ln_n + LogNChooseK(n, k) + std::log(2.0)) /
                        (eps * eps);
  const std::uint64_t theta = std::max<std::uint64_t>(
      1, static_cast<std::uint64_t>(std::ceil(lambda / kpt_star)));

  // TIM+ regenerates its RR sets for the selection phase (unlike IMM, its
  // analysis needs independence from the estimation phase).
  RrCollection selection(n, options.rr_encoding);
  RngStream selection_rng = MakeRngStream(options.rng_seed, 3);
  SUBSIM_RETURN_IF_ERROR(FillCollection(
      {.kind = options.generator, .graph = &graph, .rng = &selection_rng,
       .count = theta, .num_threads = options.num_threads,
       .sentinels = {}, .obs = options.obs,
       .kernel = options.fill_kernel},
      &selection));
  const CoverageGreedyResult greedy =
      RunCoverageGreedy(selection, greedy_options);

  ImResult result;
  result.seeds = greedy.seeds;
  result.estimated_spread = static_cast<double>(n) *
                            static_cast<double>(greedy.total_coverage()) /
                            static_cast<double>(selection.num_sets());
  result.num_rr_sets =
      collection.num_sets() + refine_sets + selection.num_sets();
  result.total_rr_nodes =
      collection.total_nodes() + refine_nodes + selection.total_nodes();
  result.seconds = run_span.ElapsedSeconds();
  return result;
}

}  // namespace subsim
