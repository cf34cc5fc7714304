#include "subsim/algo/imm.h"

#include <algorithm>
#include <cmath>

#include "subsim/coverage/max_coverage.h"
#include "subsim/obs/phase_tracer.h"
#include "subsim/util/math.h"

namespace subsim {

Result<ImResult> Imm::Run(const Graph& graph,
                          const ImOptions& options) const {
  SUBSIM_RETURN_IF_ERROR(ValidateImOptions(graph, options));
  Result<std::unique_ptr<SampleStore>> store =
      MakeSampleStore(graph, options);
  if (!store.ok()) {
    return store.status();
  }
  return RunWithStore(graph, options, store->get());
}

Result<ImResult> Imm::RunWithStore(const Graph& graph,
                                   const ImOptions& options,
                                   SampleStore* store) const {
  SUBSIM_RETURN_IF_ERROR(ValidateImOptions(graph, options));
  SUBSIM_RETURN_IF_ERROR(ValidateSampleStore(graph, options, *store));
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
  greedy_options.approx_coverage = options.approx_coverage;
  greedy_options.metrics = options.obs.metrics;

  // `cold_sets` tracks how many sets a cold run's collection would hold at
  // each point; the store may be longer (warmed by other queries), so every
  // evaluation happens on a prefix view of exactly this size.
  std::uint64_t cold_sets = 0;
  std::uint64_t generated = 0;

  // ---- Phase 1: estimate a lower bound LB of OPT. ----
  PhaseScope estimate_span(options.obs.tracer, "imm.estimate_opt");
  const double eps_prime = std::sqrt(2.0) * eps;
  const double lambda_prime =
      (2.0 + 2.0 / 3.0 * eps_prime) *
      (log_nk + l * ln_n + std::log(std::max(1.0, std::log2(n)))) *
      static_cast<double>(n) / (eps_prime * eps_prime);

  double lower_bound_opt = 1.0;
  bool deadline_hit = false;
  const int max_rounds = std::max(1, static_cast<int>(std::log2(n)) - 1);
  for (int i = 1; i <= max_rounds; ++i) {
    const double x = static_cast<double>(n) / std::pow(2.0, i);
    const std::uint64_t theta_i =
        static_cast<std::uint64_t>(std::ceil(lambda_prime / x));
    cold_sets = std::max(cold_sets, theta_i);
    SUBSIM_RETURN_IF_ERROR(store->EnsureSets(0, cold_sets, &generated));
    const SampleStore::ReadGuard read = store->Read();
    const RrCollectionView view = read.View(0, cold_sets);
    const CoverageGreedyResult greedy =
        RunCoverageGreedy(view, greedy_options);
    const double estimated =
        static_cast<double>(n) *
        static_cast<double>(greedy.total_coverage()) /
        static_cast<double>(view.num_sets());
    if (estimated >= (1.0 + eps_prime) * x) {
      lower_bound_opt = estimated / (1.0 + eps_prime);
      break;
    }
    // Round boundaries are the only deadline checkpoints (round 1 always
    // completes). Stopping here leaves `lower_bound_opt` at the k floor
    // applied below — k is unconditionally a lower bound of OPT, so the
    // degraded run's guarantee stays sound, just looser.
    if (options.deadline.Expired()) {
      deadline_hit = true;
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
  // The final greedy runs over max(theta, phase-1 watermark) sets — a cold
  // run never discards phase-1 sets even when theta is smaller.
  const double alpha = std::sqrt(l * ln_n + std::log(2.0));
  const double beta =
      std::sqrt(kOneMinusInvE * (log_nk + l * ln_n + std::log(2.0)));
  // theta(eps') = lambda_base / (eps'^2 * LB); kept un-divided so a
  // deadline-truncated run can invert it at the sets actually evaluated.
  const double lambda_base = 2.0 * static_cast<double>(n) *
                             (kOneMinusInvE * alpha + beta) *
                             (kOneMinusInvE * alpha + beta);
  const double lambda_star = lambda_base / (eps * eps);
  const std::uint64_t theta =
      static_cast<std::uint64_t>(std::ceil(lambda_star / lower_bound_opt));
  if (options.obs.metrics != nullptr) {
    options.obs.metrics->Gauge("imm.theta").Set(static_cast<double>(theta));
  }
  if (!deadline_hit && cold_sets < theta && options.deadline.Expired()) {
    deadline_hit = true;
  }
  if (!deadline_hit) {
    cold_sets = std::max(cold_sets, theta);
    SUBSIM_RETURN_IF_ERROR(store->EnsureSets(0, cold_sets, &generated));
  }
  // On deadline: select over the phase-1 prefix already committed — the
  // same sets a cold run would have drawn first, so the degraded result is
  // reproducible and prefix-consistent with the full-budget run.

  const SampleStore::ReadGuard read = store->Read();
  const RrCollectionView view = read.View(0, cold_sets);
  const CoverageGreedyResult greedy = RunCoverageGreedy(view, greedy_options);

  ImResult result;
  result.seeds = greedy.seeds;
  result.estimated_spread = static_cast<double>(n) *
                            static_cast<double>(greedy.total_coverage()) /
                            static_cast<double>(view.num_sets());
  result.num_rr_sets = view.num_sets();
  result.rr_sets_generated = generated;
  result.total_rr_nodes = view.total_nodes();
  result.deadline_hit = deadline_hit;
  // Invert the phase-2 sample-size formula at the evaluated set count:
  // the epsilon this many sets certify against the LB actually used.
  result.achieved_epsilon = std::sqrt(
      lambda_base /
      (static_cast<double>(view.num_sets()) * lower_bound_opt));
  select_span.Close();
  result.seconds = run_span.ElapsedSeconds();
  return result;
}

}  // namespace subsim
