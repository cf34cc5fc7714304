// End-to-end tests for the serving engine: warm results must be
// bit-identical to cold ones, concurrent queries must share one cache
// safely (this is the TSan acceptance test), and non-reusable algorithms
// must bypass the cache entirely.

#include "subsim/serve/query_engine.h"

#include <gtest/gtest.h>

#include <future>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "subsim/algo/registry.h"
#include "subsim/graph/generators.h"
#include "subsim/graph/graph_builder.h"
#include "subsim/graph/weight_models.h"
#include "subsim/serve/query.h"
#include "subsim/util/deadline.h"

namespace subsim {
namespace {

Graph ServeGraph(std::uint64_t seed) {
  Result<EdgeList> list = GenerateBarabasiAlbert(400, 3, false, seed);
  EXPECT_TRUE(list.ok());
  EXPECT_TRUE(
      AssignWeights(WeightModel::kWeightedCascade, {}, &list.value()).ok());
  Result<Graph> graph = BuildGraph(std::move(list).value());
  EXPECT_TRUE(graph.ok());
  return std::move(graph).value();
}

SelectSeedsQuery BaseQuery(const std::string& graph_name) {
  SelectSeedsQuery query;
  query.graph = graph_name;
  query.algo = "opim-c";
  query.k = 5;
  query.epsilon = 0.3;
  query.rng_seed = 17;
  query.generator = GeneratorKind::kSubsimIc;
  return query;
}

class QueryEngineTest : public ::testing::Test {
 protected:
  void SetUp() override {
    ASSERT_TRUE(registry_.Register("g", ServeGraph(21)).ok());
  }

  GraphRegistry registry_;
};

TEST_F(QueryEngineTest, WarmRepeatMatchesColdAndHitsCache) {
  QueryEngine engine(&registry_);
  const SelectSeedsQuery query = BaseQuery("g");

  const QueryResponse cold = engine.Execute(query);
  ASSERT_TRUE(cold.status.ok()) << cold.status.ToString();
  EXPECT_TRUE(cold.stats.cache_eligible);
  EXPECT_FALSE(cold.stats.cache_hit);
  EXPECT_GT(cold.stats.rr_sets_generated, 0u);
  EXPECT_EQ(cold.stats.rr_sets_reused, 0u);
  ASSERT_FALSE(cold.result.seeds.empty());

  const QueryResponse warm = engine.Execute(query);
  ASSERT_TRUE(warm.status.ok()) << warm.status.ToString();
  EXPECT_TRUE(warm.stats.cache_hit);
  EXPECT_EQ(warm.stats.rr_sets_generated, 0u);
  EXPECT_EQ(warm.stats.rr_sets_reused, warm.result.num_rr_sets);
  EXPECT_EQ(warm.result.seeds, cold.result.seeds);
  EXPECT_EQ(warm.result.num_rr_sets, cold.result.num_rr_sets);
  EXPECT_DOUBLE_EQ(warm.result.estimated_spread, cold.result.estimated_spread);
}

TEST_F(QueryEngineTest, EngineResultMatchesDirectAlgorithmRun) {
  QueryEngine engine(&registry_);
  const SelectSeedsQuery query = BaseQuery("g");

  const QueryResponse served = engine.Execute(query);
  ASSERT_TRUE(served.status.ok()) << served.status.ToString();

  Result<GraphSnapshot> snapshot = registry_.GetSnapshot("g");
  ASSERT_TRUE(snapshot.ok());
  Result<std::unique_ptr<ImAlgorithm>> algo = MakeImAlgorithm(query.algo);
  ASSERT_TRUE(algo.ok());
  Result<ImResult> direct =
      (*algo)->Run(*snapshot->graph, query.ToImOptions());
  ASSERT_TRUE(direct.ok()) << direct.status().ToString();

  EXPECT_EQ(served.result.seeds, direct->seeds);
  EXPECT_EQ(served.result.num_rr_sets, direct->num_rr_sets);
  EXPECT_DOUBLE_EQ(served.result.estimated_spread, direct->estimated_spread);
}

TEST_F(QueryEngineTest, ImmAfterOpimCHitsTheSameEntryAndMatchesColdImm) {
  QueryEngine engine(&registry_);
  const QueryResponse opim_c = engine.Execute(BaseQuery("g"));
  ASSERT_TRUE(opim_c.status.ok()) << opim_c.status.ToString();
  EXPECT_FALSE(opim_c.stats.cache_hit);

  SelectSeedsQuery query = BaseQuery("g");
  query.algo = "imm";
  const QueryResponse imm = engine.Execute(query);
  ASSERT_TRUE(imm.status.ok()) << imm.status.ToString();
  EXPECT_TRUE(imm.stats.cache_hit);
  EXPECT_GT(imm.stats.rr_sets_reused, 0u);
  EXPECT_EQ(engine.cache().num_entries(), 1u);

  Result<GraphSnapshot> snapshot = registry_.GetSnapshot("g");
  ASSERT_TRUE(snapshot.ok());
  Result<std::unique_ptr<ImAlgorithm>> cold_imm = MakeImAlgorithm("imm");
  ASSERT_TRUE(cold_imm.ok());
  Result<ImResult> cold =
      (*cold_imm)->Run(*snapshot->graph, query.ToImOptions());
  ASSERT_TRUE(cold.ok()) << cold.status().ToString();
  EXPECT_EQ(imm.result.seeds, cold->seeds);
  EXPECT_EQ(imm.result.num_rr_sets, cold->num_rr_sets);
  EXPECT_DOUBLE_EQ(imm.result.estimated_spread, cold->estimated_spread);
}

TEST_F(QueryEngineTest, GrowingKReusesEarlierSamples) {
  QueryEngine engine(&registry_);
  SelectSeedsQuery query = BaseQuery("g");
  query.k = 2;
  const QueryResponse small = engine.Execute(query);
  ASSERT_TRUE(small.status.ok());

  query.k = 10;
  const QueryResponse large = engine.Execute(query);
  ASSERT_TRUE(large.status.ok());
  EXPECT_TRUE(large.stats.cache_hit);
  EXPECT_GT(large.stats.rr_sets_reused, 0u);
  // Only the schedule gap beyond the k = 2 run should be freshly sampled.
  EXPECT_LT(large.stats.rr_sets_generated, large.result.num_rr_sets);
}

TEST_F(QueryEngineTest, ConcurrentQueriesShareOneCache) {
  // The TSan acceptance scenario: >= 4 in-flight queries, one shared cache,
  // mixed algorithms and ks, all racing against the same store entries.
  QueryEngineOptions options;
  options.num_workers = 4;
  QueryEngine engine(&registry_, options);

  std::vector<std::future<QueryResponse>> futures;
  for (int round = 0; round < 2; ++round) {
    for (const std::uint32_t k : {2u, 4u, 6u, 8u}) {
      SelectSeedsQuery query = BaseQuery("g");
      query.k = k;
      futures.push_back(engine.Submit(std::move(query)));
      SelectSeedsQuery imm_query = BaseQuery("g");
      imm_query.algo = "imm";
      imm_query.k = k;
      futures.push_back(engine.Submit(std::move(imm_query)));
    }
  }
  ASSERT_EQ(futures.size(), 16u);

  std::vector<QueryResponse> responses;
  responses.reserve(futures.size());
  for (auto& future : futures) {
    responses.push_back(future.get());
  }
  for (const QueryResponse& response : responses) {
    ASSERT_TRUE(response.status.ok()) << response.status.ToString();
    EXPECT_FALSE(response.result.seeds.empty());
    EXPECT_TRUE(response.stats.cache_eligible);
  }
  // One entry: graph/generator/seed/encoding agree across queries, and
  // OPIM-C and IMM build the same store.
  EXPECT_EQ(engine.cache().num_entries(), 1u);

  // Determinism survives the race: re-running any query warm gives the same
  // seeds the concurrent run produced.
  for (const QueryResponse& response : responses) {
    const QueryResponse again = engine.Execute(response.query);
    ASSERT_TRUE(again.status.ok());
    EXPECT_EQ(again.result.seeds, response.result.seeds)
        << "algo=" << response.query.algo << " k=" << response.query.k;
  }
}

TEST_F(QueryEngineTest, WarmHitsMatchColdMultiThreadedRun) {
  // Generation thread count is an execution knob, not query identity:
  // a cold run on an 8-thread engine, a cold run on a 1-thread engine,
  // and a warm cache hit must all return identical results.
  QueryEngineOptions eight;
  eight.num_threads = 8;
  QueryEngine parallel_engine(&registry_, eight);
  QueryEngine sequential_engine(&registry_);
  const SelectSeedsQuery query = BaseQuery("g");

  const QueryResponse cold_parallel = parallel_engine.Execute(query);
  ASSERT_TRUE(cold_parallel.status.ok()) << cold_parallel.status.ToString();
  EXPECT_FALSE(cold_parallel.stats.cache_hit);

  const QueryResponse cold_sequential = sequential_engine.Execute(query);
  ASSERT_TRUE(cold_sequential.status.ok());
  EXPECT_EQ(cold_parallel.result.seeds, cold_sequential.result.seeds);
  EXPECT_EQ(cold_parallel.result.num_rr_sets,
            cold_sequential.result.num_rr_sets);
  EXPECT_DOUBLE_EQ(cold_parallel.result.estimated_spread,
                   cold_sequential.result.estimated_spread);

  // Warm hit on the parallel engine reuses the multi-threaded samples.
  const QueryResponse warm = parallel_engine.Execute(query);
  ASSERT_TRUE(warm.status.ok());
  EXPECT_TRUE(warm.stats.cache_hit);
  EXPECT_EQ(warm.result.seeds, cold_parallel.result.seeds);
  EXPECT_DOUBLE_EQ(warm.result.estimated_spread,
                   cold_parallel.result.estimated_spread);

  // A grown-k warm query extends the 8-thread store and still matches a
  // cold 1-thread run of the bigger query.
  SelectSeedsQuery bigger = query;
  bigger.k = 9;
  const QueryResponse grown = parallel_engine.Execute(bigger);
  ASSERT_TRUE(grown.status.ok());
  EXPECT_TRUE(grown.stats.cache_hit);
  const QueryResponse cold_bigger = sequential_engine.Execute(bigger);
  ASSERT_TRUE(cold_bigger.status.ok());
  EXPECT_EQ(grown.result.seeds, cold_bigger.result.seeds);
}

TEST_F(QueryEngineTest, HistBypassesTheCache) {
  QueryEngine engine(&registry_);
  SelectSeedsQuery query = BaseQuery("g");
  query.algo = "hist";
  const QueryResponse response = engine.Execute(query);
  ASSERT_TRUE(response.status.ok()) << response.status.ToString();
  EXPECT_FALSE(response.stats.cache_eligible);
  EXPECT_FALSE(response.stats.cache_hit);
  EXPECT_EQ(response.stats.rr_sets_reused, 0u);
  EXPECT_EQ(response.stats.rr_sets_generated, response.result.num_rr_sets);
  EXPECT_EQ(engine.cache().num_entries(), 0u);
}

TEST_F(QueryEngineTest, UnknownGraphAndAlgoFailCleanly) {
  QueryEngine engine(&registry_);
  SelectSeedsQuery query = BaseQuery("nope");
  const QueryResponse missing_graph = engine.Execute(query);
  EXPECT_FALSE(missing_graph.status.ok());

  query = BaseQuery("g");
  query.algo = "not-an-algorithm";
  const QueryResponse missing_algo = engine.Execute(query);
  EXPECT_FALSE(missing_algo.status.ok());

  // Submitted failures surface through the future, not as exceptions.
  SelectSeedsQuery bad = BaseQuery("nope");
  QueryResponse via_pool = engine.Submit(std::move(bad)).get();
  EXPECT_FALSE(via_pool.status.ok());
}

TEST_F(QueryEngineTest, PerQueryMetricsFoldIntoEngineStats) {
  QueryEngine engine(&registry_);

  const QueryResponse cold = engine.Execute(BaseQuery("g"));
  ASSERT_TRUE(cold.status.ok()) << cold.status.ToString();
  const QueryResponse warm = engine.Execute(BaseQuery("g"));
  ASSERT_TRUE(warm.status.ok());
  SelectSeedsQuery bad = BaseQuery("nope");
  EXPECT_FALSE(engine.Execute(bad).status.ok());

  const MetricsSnapshot snapshot = engine.metrics().Snapshot();
  EXPECT_EQ(snapshot.counters.at("serve.queries"), 3u);
  EXPECT_EQ(snapshot.counters.at("serve.errors"), 1u);
  // Query execution latencies all land in the histogram...
  EXPECT_EQ(snapshot.histograms.at("serve.exec_us").count, 3u);
  // ...and the algorithm + generator work of both successful queries
  // flowed into the same registry (the cold fill generated RR sets).
  EXPECT_GE(snapshot.counters.at("rr.sets_generated"),
            cold.stats.rr_sets_generated);
  EXPECT_GT(snapshot.counters.count("store.fill_rounds"), 0u);
  EXPECT_DOUBLE_EQ(snapshot.gauges.at("serve.cache_entries"), 1.0);

  // The engine run traces spans for both serve and algorithm phases.
  bool saw_exec = false;
  bool saw_algo = false;
  for (const PhaseSpan& span : engine.tracer().Spans()) {
    saw_exec = saw_exec || span.name == "serve.exec";
    saw_algo = saw_algo || span.name == "opim_c.run";
  }
  EXPECT_TRUE(saw_exec);
  EXPECT_TRUE(saw_algo);
}

TEST_F(QueryEngineTest, StatsJsonMergesCacheAndMetrics) {
  QueryEngine engine(&registry_);
  ASSERT_TRUE(engine.Execute(BaseQuery("g")).status.ok());

  const std::string json = engine.StatsJson();
  EXPECT_EQ(json.front(), '{');
  EXPECT_EQ(json.back(), '}');
  // Cache keys keep their documented names (`/metricsz` and the `batch`
  // summary line are greppable on "cache_entries"), and both documents
  // spell them from the same builder...
  const std::string cache_json = engine.CacheStatsJson();
  EXPECT_EQ(cache_json.front(), '{');
  EXPECT_EQ(cache_json.back(), '}');
  EXPECT_EQ(json.compare(0, cache_json.size() - 1, cache_json, 0,
                         cache_json.size() - 1),
            0);
  EXPECT_NE(cache_json.find("\"cache_entries\":1"), std::string::npos);
  EXPECT_NE(cache_json.find("\"cache_misses\":1"), std::string::npos);
  EXPECT_NE(cache_json.find("\"cache_bytes\":"), std::string::npos);
  // ...and the observability fields ride along in the same object.
  EXPECT_NE(json.find("\"schema_version\":1"), std::string::npos);
  EXPECT_NE(json.find("\"serve.queries\":1"), std::string::npos);
  EXPECT_NE(json.find("\"rr.set_size\""), std::string::npos);
  EXPECT_NE(json.find("\"spans\":["), std::string::npos);
}

TEST_F(QueryEngineTest, DestructionRacesInFlightQueries) {
  // Shutdown-ordering regression test (run under TSan in CI): destroy the
  // engine while 16 submitted queries are anywhere between queued and
  // executing. Every future must yield a value — either a real answer or a
  // clean kUnavailable — and never a broken_promise or a crash.
  std::vector<std::future<QueryResponse>> futures;
  {
    QueryEngineOptions options;
    options.num_workers = 4;
    QueryEngine engine(&registry_, options);
    for (int i = 0; i < 16; ++i) {
      SelectSeedsQuery query = BaseQuery("g");
      query.k = 2 + static_cast<std::uint32_t>(i % 5);
      query.rng_seed = static_cast<std::uint64_t>(i);  // all cold: slow
      futures.push_back(engine.Submit(std::move(query)));
    }
    // Engine destructor runs here, racing the in-flight work.
  }
  int answered = 0;
  for (auto& future : futures) {
    const QueryResponse response = future.get();  // must not throw
    if (response.status.ok()) {
      ++answered;
      EXPECT_FALSE(response.result.seeds.empty());
    } else {
      EXPECT_EQ(response.status.code(), StatusCode::kUnavailable)
          << response.status.ToString();
    }
  }
  // The current destructor drains the queue, so everything got a real
  // answer; the invariant that matters is "no future is ever abandoned".
  EXPECT_GE(answered, 0);
}

TEST_F(QueryEngineTest, ConcurrentSameKeyQueriesShareOneFill) {
  // Same SketchKey from many threads, with one k for all and with a
  // different k each. The store appends every stream index exactly once,
  // so each response's split is exact: generated + reused = evaluated, and
  // the per-query generated counts sum to what the shared store grew by.
  // With one k that is exactly one cold run's bill, and every caller gets
  // identical seeds.
  const Result<GraphSnapshot> snapshot = registry_.GetSnapshot("g");
  ASSERT_TRUE(snapshot.ok());
  for (const bool same_k : {true, false}) {
    SCOPED_TRACE(same_k ? "same k" : "k = 5 * (i + 1)");
    QueryEngineOptions options;
    options.num_workers = 8;
    QueryEngine engine(&registry_, options);

    SelectSeedsQuery query = BaseQuery("g");
    query.epsilon = 0.12;  // slow enough that callers overlap

    std::vector<std::future<QueryResponse>> futures;
    for (std::uint32_t i = 0; i < 8; ++i) {
      if (!same_k) {
        query.k = 5 * (i + 1);
      }
      futures.push_back(engine.Submit(query));
    }
    std::vector<QueryResponse> responses;
    for (auto& future : futures) {
      responses.push_back(future.get());
    }

    std::uint64_t generated = 0;
    for (const QueryResponse& response : responses) {
      ASSERT_TRUE(response.status.ok()) << response.status.ToString();
      EXPECT_EQ(response.stats.rr_sets_generated +
                    response.stats.rr_sets_reused,
                response.result.num_rr_sets);
      if (same_k) {
        EXPECT_EQ(response.result.seeds, responses.front().result.seeds);
      }
      generated += response.stats.rr_sets_generated;
    }
    const auto entries =
        engine.cache().EntriesForGraph("g", snapshot->version);
    ASSERT_EQ(entries.size(), 1u);
    EXPECT_EQ(generated, entries.front().second->store->total_generated());

    if (same_k) {
      // Nobody duplicates the fill: the group generated exactly what one
      // cold run needs.
      const QueryResponse cold_reference = [&] {
        QueryEngine fresh(&registry_);
        return fresh.Execute(query);
      }();
      ASSERT_TRUE(cold_reference.status.ok());
      EXPECT_EQ(generated, cold_reference.stats.rr_sets_generated);
    }
  }
}

TEST_F(QueryEngineTest, ExpiredDeadlineIsShedBeforeExecution) {
  QueryEngine engine(&registry_);
  QueryEngine::ExecContext ctx;
  ctx.deadline = Deadline::AlreadyExpired();
  const QueryResponse response = engine.Execute(BaseQuery("g"), ctx);
  EXPECT_EQ(response.status.code(), StatusCode::kDeadlineExceeded)
      << response.status.ToString();
  EXPECT_NE(engine.StatsJson().find("\"serve.shed\":1"), std::string::npos);
}

TEST_F(QueryEngineTest, DeadlineDegradedRunIsAPrefixOfTheFullRun) {
  // The degradation contract end to end: a degraded run's sets are an
  // exact prefix of the full run's sample stream, so a full-budget query
  // arriving after a degraded one (same SketchKey) reuses every degraded
  // set and still returns seeds bit-identical to a cold full run.
  const auto algorithm = MakeImAlgorithm("opim-c");
  ASSERT_TRUE(algorithm.ok());
  const Result<GraphSnapshot> snapshot = registry_.GetSnapshot("g");
  ASSERT_TRUE(snapshot.ok());
  const Graph& graph = *snapshot->graph;

  ImOptions options;
  options.k = 5;
  options.epsilon = 0.15;
  options.rng_seed = 17;
  options.generator = GeneratorKind::kSubsimIc;

  // Degraded run into a fresh store: stops at the first round boundary.
  auto shared_store = (*algorithm)->MakeSampleStore(graph, options);
  ASSERT_TRUE(shared_store.ok());
  ImOptions degraded_options = options;
  degraded_options.deadline = Deadline::AlreadyExpired();
  const Result<ImResult> degraded = (*algorithm)->RunWithStore(
      graph, degraded_options, shared_store->get());
  ASSERT_TRUE(degraded.ok());
  ASSERT_TRUE(degraded->deadline_hit);
  const std::uint64_t prefix_sets = (*shared_store)->total_generated();
  ASSERT_GT(prefix_sets, 0u);

  // Full run over the SAME store: extends the prefix, never resamples it.
  const Result<ImResult> warm =
      (*algorithm)->RunWithStore(graph, options, shared_store->get());
  ASSERT_TRUE(warm.ok());
  EXPECT_FALSE(warm->deadline_hit);
  EXPECT_GE((*shared_store)->total_generated(), prefix_sets);

  // And matches a cold full-budget run bit for bit.
  const Result<ImResult> cold = (*algorithm)->Run(graph, options);
  ASSERT_TRUE(cold.ok());
  EXPECT_EQ(warm->seeds, cold->seeds);
  EXPECT_EQ(warm->num_rr_sets, cold->num_rr_sets);
}

TEST(QueryParseTest, RoundTripsThroughEngine) {
  GraphRegistry registry;
  ASSERT_TRUE(registry.Register("g", ServeGraph(5)).ok());
  QueryEngine engine(&registry);

  Result<SelectSeedsQuery> parsed = ParseSelectSeedsQuery(
      "graph=g algo=opim-c k=3 eps=0.3 seed=9 generator=subsim");
  ASSERT_TRUE(parsed.ok()) << parsed.status().ToString();
  const QueryResponse response = engine.Execute(*parsed);
  ASSERT_TRUE(response.status.ok());
  EXPECT_EQ(response.result.seeds.size(), 3u);

  const std::string json = FormatQueryResponseJson(response);
  EXPECT_NE(json.find("\"ok\":true"), std::string::npos);
  EXPECT_NE(json.find("\"seeds\":["), std::string::npos);
  EXPECT_NE(json.find("\"cache_hit\":false"), std::string::npos);
}

}  // namespace
}  // namespace subsim
