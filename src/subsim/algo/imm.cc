#include "subsim/algo/imm.h"

#include <algorithm>
#include <cmath>

#include "subsim/coverage/max_coverage.h"
#include "subsim/obs/phase_tracer.h"
#include "subsim/rrset/parallel_fill.h"
#include "subsim/util/math.h"

namespace subsim {

Result<ImResult> Imm::Run(const Graph& graph,
                          const ImOptions& options) const {
  SUBSIM_RETURN_IF_ERROR(ValidateImOptions(graph, options));
  PhaseScope run_span(options.obs.tracer, "imm.run");

  const NodeId n = graph.num_nodes();
  const std::uint32_t k = options.k;
  const double eps = options.epsilon;
  const double delta = options.EffectiveDelta(n);
  const double ln_n = std::log(std::max<double>(n, 2));

  // delta = n^-l  =>  l = ln(1/delta)/ln(n); bumped by ln2/ln n so the
  // union bound over both phases still lands at n^-l (IMM Section 4.3).
  double l = std::log(1.0 / delta) / ln_n;
  l *= 1.0 + std::log(2.0) / ln_n;

  const double log_nk = LogNChooseK(n, k);

  CoverageGreedyOptions greedy_options;
  greedy_options.k = k;

  RngStream rng = MakeRngStream(options.rng_seed, 1);
  RrCollection rr(n, options.rr_encoding);
  // Grows `rr` to `target` sets; the collection never shrinks, so phase 2
  // runs over max(theta, the phase-1 count) sets.
  const auto fill_to = [&](std::uint64_t target) -> Status {
    if (target <= rr.num_sets()) {
      return Status::Ok();
    }
    return FillCollection(
        {.kind = options.generator, .graph = &graph, .rng = &rng,
         .count = target - rr.num_sets(), .num_threads = options.num_threads,
         .sentinels = {}, .obs = options.obs, .kernel = options.fill_kernel},
        &rr);
  };

  // ---- Phase 1: estimate a lower bound LB of OPT. ----
  PhaseScope estimate_span(options.obs.tracer, "imm.estimate_opt");
  const double eps_prime = std::sqrt(2.0) * eps;
  const double lambda_prime =
      (2.0 + 2.0 / 3.0 * eps_prime) *
      (log_nk + l * ln_n + std::log(std::max(1.0, std::log2(n)))) *
      static_cast<double>(n) / (eps_prime * eps_prime);

  double lower_bound_opt = 1.0;
  const int max_rounds = std::max(1, static_cast<int>(std::log2(n)) - 1);
  for (int i = 1; i <= max_rounds; ++i) {
    const double x = static_cast<double>(n) / std::pow(2.0, i);
    SUBSIM_RETURN_IF_ERROR(fill_to(
        static_cast<std::uint64_t>(std::ceil(lambda_prime / x))));
    const CoverageGreedyResult greedy = RunCoverageGreedy(rr, greedy_options);
    const double estimated =
        static_cast<double>(n) *
        static_cast<double>(greedy.total_coverage()) /
        static_cast<double>(rr.num_sets());
    if (estimated >= (1.0 + eps_prime) * x) {
      lower_bound_opt = estimated / (1.0 + eps_prime);
      break;
    }
  }
  lower_bound_opt = std::max(lower_bound_opt, static_cast<double>(k));
  estimate_span.Close();
  if (options.obs.metrics != nullptr) {
    options.obs.metrics->Gauge("imm.lower_bound_opt").Set(lower_bound_opt);
  }

  // ---- Phase 2: theta = lambda* / LB, then final greedy. ----
  PhaseScope select_span(options.obs.tracer, "imm.select");
  const double alpha = std::sqrt(l * ln_n + std::log(2.0));
  const double beta =
      std::sqrt(kOneMinusInvE * (log_nk + l * ln_n + std::log(2.0)));
  // theta(eps') = lambda_base / (eps'^2 * LB); kept un-divided so the run
  // can invert it at the sets actually evaluated.
  const double lambda_base = 2.0 * static_cast<double>(n) *
                             (kOneMinusInvE * alpha + beta) *
                             (kOneMinusInvE * alpha + beta);
  const double lambda_star = lambda_base / (eps * eps);
  const std::uint64_t theta =
      static_cast<std::uint64_t>(std::ceil(lambda_star / lower_bound_opt));
  if (options.obs.metrics != nullptr) {
    options.obs.metrics->Gauge("imm.theta").Set(static_cast<double>(theta));
  }
  SUBSIM_RETURN_IF_ERROR(fill_to(theta));
  const CoverageGreedyResult greedy = RunCoverageGreedy(rr, greedy_options);

  ImResult result;
  result.seeds = greedy.seeds;
  result.estimated_spread = static_cast<double>(n) *
                            static_cast<double>(greedy.total_coverage()) /
                            static_cast<double>(rr.num_sets());
  result.num_rr_sets = rr.num_sets();
  result.total_rr_nodes = rr.total_nodes();
  // Invert the phase-2 sample-size formula at the evaluated set count:
  // the epsilon this many sets certify against the LB actually used. At
  // least theta sets are evaluated, so this is at most the requested eps.
  result.achieved_epsilon = std::sqrt(
      lambda_base / (static_cast<double>(rr.num_sets()) * lower_bound_opt));
  select_span.Close();
  result.seconds = run_span.ElapsedSeconds();
  return result;
}

}  // namespace subsim
