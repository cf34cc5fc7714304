// OPIM-C's stopping-round table (`SampleStore::StoppingRound`): a run that
// reached its verdict on a store records the round it stopped at, and the
// next run with the same options starts there. These tests check that the
// skipped rounds change nothing a caller can see (every `ImResult` field
// but wall time equals a cold run's), that a warm run evaluates exactly
// one round, that keys built from different options stay apart, that a
// deadline stop is never recorded, and that a repaired store starts empty.

#include <gtest/gtest.h>

#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "subsim/algo/opim_c.h"
#include "subsim/algo/theta.h"
#include "subsim/graph/generators.h"
#include "subsim/graph/graph_builder.h"
#include "subsim/graph/weight_models.h"
#include "subsim/obs/metrics.h"
#include "subsim/obs/phase_tracer.h"
#include "subsim/rrset/sample_store.h"
#include "subsim/util/deadline.h"

namespace subsim {
namespace {

Graph WcGraph(NodeId nodes, int seed) {
  Result<EdgeList> list = GenerateBarabasiAlbert(nodes, 3, false, seed);
  EXPECT_TRUE(list.ok());
  EXPECT_TRUE(
      AssignWeights(WeightModel::kWeightedCascade, {}, &list.value()).ok());
  Result<Graph> graph = BuildGraph(std::move(list).value());
  EXPECT_TRUE(graph.ok());
  return std::move(graph).value();
}

ImOptions Options(std::uint32_t k, double eps) {
  ImOptions options;
  options.k = k;
  options.epsilon = eps;
  options.rng_seed = 29;
  options.generator = GeneratorKind::kSubsimIc;
  return options;
}

std::string Describe(const ImOptions& options) {
  return "k=" + std::to_string(options.k) +
         " eps=" + std::to_string(options.epsilon) +
         " delta=" + std::to_string(options.delta);
}

/// Every field but `seconds`; `rr_sets_generated` only when
/// `with_generated` (a cold run generates what a warm one reuses).
void ExpectSameResult(const ImResult& a, const ImResult& b,
                      bool with_generated) {
  EXPECT_EQ(a.seeds, b.seeds);
  EXPECT_EQ(a.influence_lower_bound, b.influence_lower_bound);
  EXPECT_EQ(a.optimal_upper_bound, b.optimal_upper_bound);
  EXPECT_EQ(a.approx_ratio, b.approx_ratio);
  EXPECT_EQ(a.estimated_spread, b.estimated_spread);
  EXPECT_EQ(a.num_rr_sets, b.num_rr_sets);
  EXPECT_EQ(a.total_rr_nodes, b.total_rr_nodes);
  EXPECT_EQ(a.deadline_hit, b.deadline_hit);
  EXPECT_EQ(a.achieved_epsilon, b.achieved_epsilon);
  EXPECT_EQ(a.sentinel_size, b.sentinel_size);
  EXPECT_EQ(a.phase1_rr_sets, b.phase1_rr_sets);
  EXPECT_EQ(a.phase2_rr_sets, b.phase2_rr_sets);
  if (with_generated) {
    EXPECT_EQ(a.rr_sets_generated, b.rr_sets_generated);
  }
}

/// The round a run stopped at, from the sets it evaluated: round i uses
/// theta0 << (i - 1) sets per stream.
std::uint32_t StopRound(const Graph& graph, const ImOptions& options,
                        const ImResult& result) {
  const std::uint64_t theta0 =
      InitialTheta(options.EffectiveDelta(graph.num_nodes()));
  std::uint32_t round = 1;
  while ((theta0 << (round - 1)) * 2 < result.num_rr_sets) {
    ++round;
  }
  EXPECT_EQ((theta0 << (round - 1)) * 2, result.num_rr_sets);
  return round;
}

std::uint32_t MaxRound(const Graph& graph, const ImOptions& options) {
  const double delta = options.EffectiveDelta(graph.num_nodes());
  return DoublingIterations(
      InitialTheta(delta),
      OpimThetaMax(graph.num_nodes(), options.k, options.epsilon, delta));
}

/// One `RunWithStore` with its own metrics and tracer: the result, the
/// rounds it skipped and the rounds it evaluated.
struct Observed {
  ImResult result;
  std::uint64_t skipped = 0;
  std::uint64_t evaluated = 0;
};

Observed RunObserved(const Graph& graph, ImOptions options,
                     SampleStore* store) {
  MetricsRegistry metrics;
  PhaseTracer tracer;
  options.obs = ObsContext{&metrics, &tracer};
  Result<ImResult> result = OpimC().RunWithStore(graph, options, store);
  EXPECT_TRUE(result.ok()) << result.status().ToString();
  Observed observed;
  if (result.ok()) {
    observed.result = std::move(*result);
  }
  observed.skipped = metrics.Snapshot().counters["opim_c.rounds_skipped"];
  for (const PhaseSpan& span : tracer.Spans()) {
    observed.evaluated += span.name == "opim_c.round" ? 1 : 0;
  }
  return observed;
}

std::unique_ptr<SampleStore> MakeStore(const Graph& graph,
                                       const ImOptions& options) {
  Result<std::unique_ptr<SampleStore>> store =
      OpimC().MakeSampleStore(graph, options);
  EXPECT_TRUE(store.ok());
  return std::move(store).value();
}

ImResult Cold(const Graph& graph, const ImOptions& options) {
  Result<ImResult> result = OpimC().Run(graph, options);
  EXPECT_TRUE(result.ok()) << result.status().ToString();
  return result.ok() ? *result : ImResult{};
}

TEST(StoppingRoundTest, WarmRunsEqualColdOverTheOptionGrid) {
  const Graph graph = WcGraph(600, 5);
  std::vector<ImOptions> cases;
  for (const std::uint32_t k : {1u, 10u, 50u}) {
    for (const double eps : {0.1, 0.3}) {
      for (const double delta : {0.0, 0.01}) {
        ImOptions options = Options(k, eps);
        options.delta = delta;
        cases.push_back(options);
      }
    }
  }

  int skipped_rounds = 0;
  for (const ImOptions& options : cases) {
    SCOPED_TRACE(Describe(options));
    const ImResult cold = Cold(graph, options);
    EXPECT_EQ(cold.rr_sets_generated, cold.num_rr_sets);
    const std::uint32_t round = StopRound(graph, options, cold);
    ASSERT_LE(round, MaxRound(graph, options));

    // A store already holding the cold run's sets: both warm runs reuse
    // every set, the first replays the schedule and records its round.
    const std::unique_ptr<SampleStore> store = MakeStore(graph, options);
    ASSERT_TRUE(store->EnsureSets(0, cold.num_rr_sets / 2).ok());
    ASSERT_TRUE(store->EnsureSets(1, cold.num_rr_sets / 2).ok());
    const Observed first = RunObserved(graph, options, store.get());
    const Observed second = RunObserved(graph, options, store.get());

    ExpectSameResult(first.result, cold, /*with_generated=*/false);
    ExpectSameResult(second.result, first.result, /*with_generated=*/true);
    EXPECT_EQ(first.result.rr_sets_generated, 0u);
    EXPECT_EQ(first.skipped, 0u);
    EXPECT_EQ(first.evaluated, round);
    EXPECT_EQ(second.skipped, round - 1);
    EXPECT_EQ(second.evaluated, 1u);
    EXPECT_EQ(store->num_stopping_rounds(), 1u);
    skipped_rounds += static_cast<int>(second.skipped);
  }
  EXPECT_GT(skipped_rounds, 0) << "every case stopped at round 1";
}

// The table holds a fixed number of keys: once other keys push a run's
// entry out, the next run with its options replays the whole schedule
// again, with the same answer.
TEST(StoppingRoundTest, EvictedKeyReplaysTheSchedule) {
  const Graph graph = WcGraph(300, 10);
  const ImOptions options = Options(5, 0.2);
  const std::unique_ptr<SampleStore> store = MakeStore(graph, options);
  const Observed first = RunObserved(graph, options, store.get());
  const std::uint32_t round = StopRound(graph, options, first.result);
  ASSERT_GT(round, 1u);
  EXPECT_EQ(RunObserved(graph, options, store.get()).skipped, round - 1);

  // Keys OPIM-C never builds (k = 0).
  for (std::uint64_t i = 0; i < SampleStore::kMaxRoundEntries; ++i) {
    store->RecordStoppingRound({i, 0, 0}, 1);
  }
  EXPECT_EQ(store->num_stopping_rounds(), SampleStore::kMaxRoundEntries);
  const Observed after_eviction = RunObserved(graph, options, store.get());
  EXPECT_EQ(after_eviction.skipped, 0u);
  EXPECT_EQ(after_eviction.evaluated, round);
  ExpectSameResult(after_eviction.result, first.result, false);
}

TEST(StoppingRoundTest, KeysFromDifferentOptionsStayApart) {
  const Graph graph = WcGraph(600, 7);
  const ImOptions eps_01 = Options(10, 0.1);
  const ImOptions eps_02 = Options(10, 0.2);
  const std::unique_ptr<SampleStore> store = MakeStore(graph, eps_01);

  // eps = 0.1 stops later than eps = 0.2 would: a key without eps would
  // start the eps = 0.2 run past its own stopping round.
  const Observed strict = RunObserved(graph, eps_01, store.get());
  const Observed loose = RunObserved(graph, eps_02, store.get());
  ExpectSameResult(strict.result, Cold(graph, eps_01), false);
  ExpectSameResult(loose.result, Cold(graph, eps_02), false);
  EXPECT_LT(StopRound(graph, eps_02, loose.result),
            StopRound(graph, eps_01, strict.result));
  EXPECT_EQ(loose.skipped, 0u);
  EXPECT_EQ(store->num_stopping_rounds(), 2u);

  // k and delta are part of the key too.
  ImOptions other_delta = eps_01;
  other_delta.delta = 0.02;
  for (const ImOptions& other : {Options(11, 0.1), other_delta}) {
    SCOPED_TRACE(Describe(other));
    const Observed run = RunObserved(graph, other, store.get());
    EXPECT_EQ(run.skipped, 0u);
    ExpectSameResult(run.result, Cold(graph, other), false);
  }
  EXPECT_EQ(store->num_stopping_rounds(), 4u);
}

TEST(StoppingRoundTest, DeadlineStopRecordsNothing) {
  const Graph graph = WcGraph(600, 8);
  ImOptions options = Options(50, 0.1);
  const ImResult cold = Cold(graph, options);
  ASSERT_GT(StopRound(graph, options, cold), 1u);

  const std::unique_ptr<SampleStore> store = MakeStore(graph, options);
  ImOptions degraded = options;
  degraded.deadline = Deadline::AlreadyExpired();
  const Observed cut = RunObserved(graph, degraded, store.get());
  EXPECT_TRUE(cut.result.deadline_hit);
  EXPECT_EQ(cut.evaluated, 1u);
  EXPECT_EQ(store->num_stopping_rounds(), 0u);

  // The full-budget run after it replays every round, then records.
  const Observed full = RunObserved(graph, options, store.get());
  EXPECT_EQ(full.skipped, 0u);
  ExpectSameResult(full.result, cold, false);
  EXPECT_EQ(store->num_stopping_rounds(), 1u);

  // A budget already spent at entry ignores the certified round and
  // degrades at round 1 exactly as the first cut did.
  const Observed warm_cut = RunObserved(graph, degraded, store.get());
  EXPECT_TRUE(warm_cut.result.deadline_hit);
  EXPECT_EQ(warm_cut.skipped, 0u);
  EXPECT_EQ(warm_cut.evaluated, 1u);
  ExpectSameResult(warm_cut.result, cut.result, false);

  // An unspent budget starts at the recorded round, which ends the
  // schedule, so it gives the full-budget answer.
  ImOptions budgeted = options;
  budgeted.deadline = Deadline::AfterSeconds(3600);
  const Observed warm_budgeted = RunObserved(graph, budgeted, store.get());
  EXPECT_FALSE(warm_budgeted.result.deadline_hit);
  EXPECT_EQ(warm_budgeted.evaluated, 1u);
  ExpectSameResult(warm_budgeted.result, cold, false);
}

TEST(StoppingRoundTest, RepairedStoreStartsWithAnEmptyTable) {
  const Graph graph = WcGraph(600, 9);
  const ImOptions options = Options(20, 0.1);
  const std::unique_ptr<SampleStore> store = MakeStore(graph, options);
  const Observed first = RunObserved(graph, options, store.get());
  ASSERT_EQ(store->num_stopping_rounds(), 1u);
  ASSERT_GT(StopRound(graph, options, first.result), 1u);

  // No dirty node: every set is carried over unchanged, and still no
  // round is, since a repaired store's sets differ in general.
  Result<std::unique_ptr<SampleStore>> repaired =
      SampleStore::CreateRepaired(graph, *store, {}, {});
  ASSERT_TRUE(repaired.ok());
  EXPECT_EQ((*repaired)->num_stopping_rounds(), 0u);
  const Observed after = RunObserved(graph, options, repaired->get());
  EXPECT_EQ(after.skipped, 0u);
  ExpectSameResult(after.result, first.result, false);
  EXPECT_EQ((*repaired)->num_stopping_rounds(), 1u);
}

}  // namespace
}  // namespace subsim
