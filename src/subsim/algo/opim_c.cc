#include "subsim/algo/opim_c.h"

#include <algorithm>
#include <bit>
#include <optional>
#include <utility>

#include "subsim/algo/theta.h"
#include "subsim/coverage/bounds.h"
#include "subsim/coverage/max_coverage.h"
#include "subsim/obs/phase_tracer.h"
#include "subsim/util/math.h"

namespace subsim {

namespace {

/// Everything besides the store's own (graph, generator, rng seed) that the
/// round schedule and each round's verdict depend on: k, eps and delta fix
/// theta0, i_max and every round's bounds. Thread count, fill kernel and
/// arena encoding never change a set or a seed, so they are left out.
SampleStore::VerdictKey MakeVerdictKey(const ImOptions& options,
                                       double delta) {
  return {options.k, std::bit_cast<std::uint64_t>(options.epsilon),
          std::bit_cast<std::uint64_t>(delta)};
}

}  // namespace

Result<ImResult> OpimC::Run(const Graph& graph,
                            const ImOptions& options) const {
  SUBSIM_RETURN_IF_ERROR(ValidateImOptions(graph, options));
  Result<std::unique_ptr<SampleStore>> store =
      MakeSampleStore(graph, options);
  if (!store.ok()) {
    return store.status();
  }
  return RunWithStore(graph, options, store->get());
}

Result<std::unique_ptr<SampleStore>> OpimC::MakeSampleStore(
    const Graph& graph, const ImOptions& options) const {
  SampleStore::Options store_options;
  store_options.num_threads = options.num_threads;
  store_options.obs = options.obs;
  store_options.kernel = options.fill_kernel;
  store_options.encoding = options.rr_encoding;
  return SampleStore::Create(graph, options.generator,
                             {MakeRngStream(options.rng_seed, 1),
                              MakeRngStream(options.rng_seed, 2)},
                             store_options);
}

Result<ImResult> OpimC::RunWithStore(const Graph& graph,
                                     const ImOptions& options,
                                     SampleStore* store) const {
  SUBSIM_RETURN_IF_ERROR(ValidateImOptions(graph, options));
  SUBSIM_RETURN_IF_ERROR(ValidateSampleStore(graph, options, *store));
  PhaseScope run_span(options.obs.tracer, "opim_c.run");
  MetricsRegistry::GaugeHandle upper_gauge, lower_gauge, ratio_gauge;
  MetricsRegistry::CounterHandle rounds_skipped;
  if (options.obs.metrics != nullptr) {
    upper_gauge = options.obs.metrics->Gauge("opim_c.upper_bound");
    lower_gauge = options.obs.metrics->Gauge("opim_c.lower_bound");
    ratio_gauge = options.obs.metrics->Gauge("opim_c.approx_ratio");
    rounds_skipped = options.obs.metrics->Counter("opim_c.rounds_skipped");
  }

  const NodeId n = graph.num_nodes();
  const std::uint32_t k = options.k;
  const double eps = options.epsilon;
  const double delta = options.EffectiveDelta(n);

  const std::uint64_t theta0 = InitialTheta(delta);
  const std::uint64_t theta_max = OpimThetaMax(n, k, eps, delta);
  const std::uint32_t i_max = DoublingIterations(theta0, theta_max);
  const double delta_iter = delta / (3.0 * i_max);

  ImResult result;
  const double target_ratio = kOneMinusInvE - eps;

  // A run with these options that already reached its verdict on this
  // store recorded it. The verdict is a pure function of the same
  // append-only prefixes and these options, so it is the cold run's
  // answer: return it without evaluating a round. A budget already spent
  // at entry ignores the table and degrades after round 1, as a cold run
  // does.
  const SampleStore::VerdictKey verdict_key = MakeVerdictKey(options, delta);
  if (!options.deadline.Expired()) {
    if (std::optional<SampleStore::Verdict> verdict =
            store->FindVerdict(verdict_key)) {
      rounds_skipped.Add(verdict->round);
      result.seeds = std::move(verdict->seeds);
      result.influence_lower_bound = verdict->influence_lower_bound;
      result.optimal_upper_bound = verdict->optimal_upper_bound;
      result.approx_ratio = verdict->approx_ratio;
      result.achieved_epsilon = verdict->achieved_epsilon;
      result.estimated_spread = verdict->estimated_spread;
      result.num_rr_sets = verdict->num_rr_sets;
      result.total_rr_nodes = verdict->total_rr_nodes;
      upper_gauge.Set(result.optimal_upper_bound);
      lower_gauge.Set(result.influence_lower_bound);
      ratio_gauge.Set(result.approx_ratio);
      result.seconds = run_span.ElapsedSeconds();
      return result;
    }
  }

  for (std::uint32_t i = 1; i <= i_max; ++i) {
    PhaseScope round_span(options.obs.tracer, "opim_c.round");
    const std::uint64_t target = theta0 << (i - 1);
    SUBSIM_RETURN_IF_ERROR(
        store->EnsureSets(0, target, &result.rr_sets_generated));
    SUBSIM_RETURN_IF_ERROR(
        store->EnsureSets(1, target, &result.rr_sets_generated));

    // Evaluate on prefixes of exactly `target` sets — with a warm store the
    // streams may be longer, and using more would diverge from a cold run.
    const SampleStore::ReadGuard read = store->Read();
    const RrCollectionView r1 = read.View(0, target);
    const RrCollectionView r2 = read.View(1, target);

    CoverageGreedyOptions greedy_options;
    greedy_options.k = k;
    const CoverageGreedyResult greedy = RunCoverageGreedy(r1, greedy_options);

    const double lambda_upper = CoverageUpperBoundFromGreedy(greedy, k);
    const double upper =
        OpimUpperBound(lambda_upper, r1.num_sets(), n, delta_iter);

    const std::uint64_t cov2 = ComputeCoverage(r2, greedy.seeds);
    // A seed set always influences at least its own members.
    const double lower =
        std::max(static_cast<double>(greedy.seeds.size()),
                 OpimLowerBound(cov2, r2.num_sets(), n, delta_iter));

    result.seeds = greedy.seeds;
    result.influence_lower_bound = lower;
    result.optimal_upper_bound = upper;
    result.approx_ratio = upper > 0.0 ? lower / upper : 0.0;
    // The slack this round certifies. Valid to report even when the run
    // stops before `target_ratio`: each round's bounds hold with failure
    // probability delta / (3 * i_max) budgeted for *all* i_max rounds up
    // front, so truncating the schedule early never spends more than the
    // requested delta.
    result.achieved_epsilon =
        std::max(0.0, kOneMinusInvE - result.approx_ratio);
    result.estimated_spread = static_cast<double>(cov2) *
                              static_cast<double>(n) /
                              static_cast<double>(r2.num_sets());
    result.num_rr_sets = r1.num_sets() + r2.num_sets();
    result.total_rr_nodes = r1.total_nodes() + r2.total_nodes();
    upper_gauge.Set(upper);
    lower_gauge.Set(lower);
    ratio_gauge.Set(result.approx_ratio);
    if (result.approx_ratio >= target_ratio || i == i_max) {
      // The verdict the full schedule reaches; a deadline stop (below) is
      // not one, so it is never recorded.
      store->RecordVerdict(
          verdict_key,
          {i, result.seeds, result.influence_lower_bound,
           result.optimal_upper_bound, result.approx_ratio,
           result.achieved_epsilon, result.estimated_spread,
           result.num_rr_sets, result.total_rr_nodes});
      break;
    }
    // Deadline checks happen only at round boundaries (the first round
    // evaluated always completes), so a degraded run evaluated an exact
    // prefix of the un-budgeted run's streams and its seeds/bounds are
    // reproducible.
    if (options.deadline.Expired()) {
      result.deadline_hit = true;
      break;
    }
  }

  result.seconds = run_span.ElapsedSeconds();
  return result;
}

}  // namespace subsim
