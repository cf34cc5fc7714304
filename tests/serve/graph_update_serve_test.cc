// End-to-end tests for dynamic graphs in the serving layer: the
// stale-sketch regression (the bug versioned SketchKeys exist to kill),
// incremental cache repair on update, graph removal, the HTTP routes, and
// the eviction-vs-update race (run under TSan in CI).

#include <gtest/gtest.h>

#include <atomic>
#include <memory>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "subsim/graph/generators.h"
#include "subsim/graph/graph_builder.h"
#include "subsim/graph/graph_update.h"
#include "subsim/graph/weight_models.h"
#include "subsim/net/serve_app.h"
#include "subsim/serve/query.h"
#include "subsim/serve/query_engine.h"

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

/// Halves the weight of a handful of distinct edges — valid for every
/// generator kind and guaranteed to perturb RR sampling.
UpdateBatch ShrinkBatch(const Graph& graph) {
  const EdgeList list = graph.ToEdgeList();
  UpdateBatch batch;
  const std::size_t stride = list.edges.size() / 4 + 1;
  for (std::size_t i = 0; i < list.edges.size() && batch.ops.size() < 3;
       i += stride) {
    const Edge& e = list.edges[i];
    batch.ops.push_back({EdgeOpKind::kSetWeight, e.src, e.dst,
                         e.weight * 0.5});
  }
  EXPECT_FALSE(batch.ops.empty());
  return batch;
}

class GraphUpdateServeTest : public ::testing::Test {
 protected:
  void SetUp() override {
    ASSERT_TRUE(registry_.Register("g", ServeGraph(21)).ok());
  }

  GraphRegistry registry_;
};

TEST_F(GraphUpdateServeTest, StaleSketchRegressionOnReRegister) {
  // The headline bug: warm a sketch, swap the graph under the same name
  // WITHOUT erasing its cache entries, and query again. Before versioned
  // keys the second query would hit the stale sketch and return seeds
  // sampled on the old topology; now the version bump makes the old entry
  // unreachable, so the answer must equal a fresh engine's.
  QueryEngine engine(&registry_);
  const SelectSeedsQuery query = BaseQuery("g");
  ASSERT_TRUE(engine.Execute(query).status.ok());
  ASSERT_EQ(engine.cache().num_entries(), 1u);

  ASSERT_TRUE(registry_.Register("g", ServeGraph(99)).ok());
  // Deliberately no cache().EraseGraph("g") here.

  const QueryResponse after_swap = engine.Execute(query);
  ASSERT_TRUE(after_swap.status.ok()) << after_swap.status.ToString();
  EXPECT_FALSE(after_swap.stats.cache_hit);

  GraphRegistry fresh_registry;
  ASSERT_TRUE(fresh_registry.Register("g", ServeGraph(99)).ok());
  QueryEngine fresh_engine(&fresh_registry);
  const QueryResponse fresh = fresh_engine.Execute(query);
  ASSERT_TRUE(fresh.status.ok());
  EXPECT_EQ(after_swap.result.seeds, fresh.result.seeds);
  EXPECT_EQ(after_swap.result.num_rr_sets, fresh.result.num_rr_sets);
  EXPECT_DOUBLE_EQ(after_swap.result.estimated_spread,
                   fresh.result.estimated_spread);
}

TEST_F(GraphUpdateServeTest, ApplyUpdatesRepairsWarmCacheBitIdentically) {
  QueryEngine engine(&registry_);
  const SelectSeedsQuery query = BaseQuery("g");
  ASSERT_TRUE(engine.Execute(query).status.ok());
  ASSERT_EQ(engine.cache().num_entries(), 1u);

  const UpdateBatch batch = ShrinkBatch(ServeGraph(21));
  Result<QueryEngine::GraphUpdateOutcome> outcome =
      engine.ApplyGraphUpdates("g", batch);
  ASSERT_TRUE(outcome.ok()) << outcome.status().ToString();
  EXPECT_EQ(outcome->previous_version, 1u);
  EXPECT_EQ(outcome->version, 2u);
  EXPECT_EQ(outcome->entries_repaired, 1u);
  EXPECT_EQ(outcome->entries_dropped, 0u);
  EXPECT_GT(outcome->sets_repaired, 0u);
  EXPECT_GT(outcome->sets_kept, 0u);
  // The repaired entry replaced the old-version one; nothing stale stays.
  EXPECT_EQ(engine.cache().num_entries(), 1u);

  // Post-update query: warm (the repair kept the cache hot across the
  // version bump) and bit-identical to a fresh engine on the new topology.
  const QueryResponse warm = engine.Execute(query);
  ASSERT_TRUE(warm.status.ok()) << warm.status.ToString();
  EXPECT_TRUE(warm.stats.cache_hit);

  Result<EdgeUpdateResult> updated = ApplyEdgeUpdates(ServeGraph(21), batch);
  ASSERT_TRUE(updated.ok());
  GraphRegistry fresh_registry;
  ASSERT_TRUE(
      fresh_registry.Register("g", std::move(updated->graph)).ok());
  QueryEngine fresh_engine(&fresh_registry);
  const QueryResponse fresh = fresh_engine.Execute(query);
  ASSERT_TRUE(fresh.status.ok());
  EXPECT_EQ(warm.result.seeds, fresh.result.seeds);
  EXPECT_EQ(warm.result.num_rr_sets, fresh.result.num_rr_sets);
  EXPECT_DOUBLE_EQ(warm.result.estimated_spread,
                   fresh.result.estimated_spread);

  // Update observability landed in the engine metrics.
  const MetricsSnapshot snapshot = engine.metrics().Snapshot();
  EXPECT_EQ(snapshot.counters.at("update.batches"), 1u);
  EXPECT_EQ(snapshot.counters.at("update.sets_repaired"),
            outcome->sets_repaired);
  EXPECT_EQ(snapshot.counters.at("update.sets_kept"), outcome->sets_kept);
  EXPECT_EQ(snapshot.histograms.at("update.repair_us").count, 1u);
}

TEST_F(GraphUpdateServeTest, VersionSkewRejectsWithoutSideEffects) {
  QueryEngine engine(&registry_);
  ASSERT_TRUE(engine.Execute(BaseQuery("g")).status.ok());

  UpdateBatch batch = ShrinkBatch(ServeGraph(21));
  batch.expect_version = 999;
  Result<QueryEngine::GraphUpdateOutcome> outcome =
      engine.ApplyGraphUpdates("g", batch);
  ASSERT_FALSE(outcome.ok());
  EXPECT_EQ(outcome.status().code(), StatusCode::kFailedPrecondition);

  // Nothing was published and the cache is untouched.
  Result<GraphSnapshot> snapshot = registry_.GetSnapshot("g");
  ASSERT_TRUE(snapshot.ok());
  EXPECT_EQ(snapshot->version, 1u);
  EXPECT_EQ(engine.cache().num_entries(), 1u);
  EXPECT_TRUE(engine.Execute(BaseQuery("g")).stats.cache_hit);

  // The matching expect_version goes through.
  batch.expect_version = 1;
  EXPECT_TRUE(engine.ApplyGraphUpdates("g", batch).ok());
}

TEST_F(GraphUpdateServeTest, UpdateAndRemoveUnknownGraphFailCleanly) {
  QueryEngine engine(&registry_);
  Result<QueryEngine::GraphUpdateOutcome> outcome =
      engine.ApplyGraphUpdates("nope", ShrinkBatch(ServeGraph(21)));
  ASSERT_FALSE(outcome.ok());
  EXPECT_EQ(outcome.status().code(), StatusCode::kNotFound);

  Result<std::size_t> removed = engine.RemoveGraph("nope");
  ASSERT_FALSE(removed.ok());
  EXPECT_EQ(removed.status().code(), StatusCode::kNotFound);
}

TEST_F(GraphUpdateServeTest, RemoveGraphEndToEnd) {
  QueryEngine engine(&registry_);
  ASSERT_TRUE(engine.Execute(BaseQuery("g")).status.ok());
  ASSERT_EQ(engine.cache().num_entries(), 1u);

  Result<std::size_t> removed = engine.RemoveGraph("g");
  ASSERT_TRUE(removed.ok());
  EXPECT_EQ(*removed, 1u);
  EXPECT_FALSE(registry_.Contains("g"));
  EXPECT_EQ(engine.cache().num_entries(), 0u);

  const QueryResponse after = engine.Execute(BaseQuery("g"));
  EXPECT_EQ(after.status.code(), StatusCode::kNotFound)
      << after.status.ToString();
  EXPECT_FALSE(engine.RemoveGraph("g").ok());
}

TEST_F(GraphUpdateServeTest, EvictionVsUpdateRace) {
  // TSan scenario: queries with rotating seeds force misses + budget
  // evictions while an updater thread keeps publishing new versions and
  // repairing entries. Every operation must succeed; no operation may
  // observe a torn snapshot.
  QueryEngineOptions options;
  options.cache.max_bytes = 1 << 18;  // tight: evictions happen constantly
  QueryEngine engine(&registry_, options);

  const EdgeList base_edges = ServeGraph(21).ToEdgeList();
  const Edge toggled = base_edges.edges.front();

  std::atomic<bool> stop{false};
  std::atomic<int> failures{0};

  std::thread updater([&] {
    for (int round = 0; round < 8; ++round) {
      UpdateBatch batch;
      const double weight =
          (round % 2 == 0) ? toggled.weight * 0.5 : toggled.weight;
      batch.ops.push_back(
          {EdgeOpKind::kSetWeight, toggled.src, toggled.dst, weight});
      if (!engine.ApplyGraphUpdates("g", batch).ok()) {
        failures.fetch_add(1);
      }
    }
    stop.store(true);
  });

  std::vector<std::thread> query_threads;
  for (unsigned t = 0; t < 3; ++t) {
    query_threads.emplace_back([&, t] {
      std::uint64_t seed = 100 + t;
      while (!stop.load()) {
        SelectSeedsQuery query = BaseQuery("g");
        query.k = 2;
        query.epsilon = 0.5;
        query.rng_seed = seed++;  // new SketchKey every time: miss + insert
        if (!engine.Execute(query).status.ok()) {
          failures.fetch_add(1);
        }
      }
    });
  }
  updater.join();
  for (std::thread& thread : query_threads) {
    thread.join();
  }
  EXPECT_EQ(failures.load(), 0);
  Result<GraphSnapshot> snapshot = registry_.GetSnapshot("g");
  ASSERT_TRUE(snapshot.ok());
  EXPECT_EQ(snapshot->version, 9u);  // 1 initial + 8 updates

  // The engine still answers correctly after the storm.
  const QueryResponse final_response = engine.Execute(BaseQuery("g"));
  EXPECT_TRUE(final_response.status.ok())
      << final_response.status.ToString();
}

// ---------------------------------------------------------------------------
// HTTP routes (driven through ServeApp::Handle directly; no sockets).

HttpRequest PostRequest(const std::string& target, const std::string& body) {
  HttpRequest request;
  request.method = "POST";
  request.target = target;
  request.body = body;
  return request;
}

TEST_F(GraphUpdateServeTest, UpdateGraphRoute) {
  QueryEngine engine(&registry_);
  ServeApp app(&engine);
  ASSERT_TRUE(engine.Execute(BaseQuery("g")).status.ok());

  const Edge edge = ServeGraph(21).ToEdgeList().edges.front();
  const std::string body = "graph=g expect_version=1\nweight " +
                           std::to_string(edge.src) + " " +
                           std::to_string(edge.dst) + " " +
                           std::to_string(edge.weight * 0.5) + "\n";
  const HttpResponse ok_response =
      app.Handle(PostRequest("/v1/update_graph", body), HttpRequestContext{});
  EXPECT_EQ(ok_response.status_code, 200) << ok_response.body;
  EXPECT_NE(ok_response.body.find("\"ok\":true"), std::string::npos);
  EXPECT_NE(ok_response.body.find("\"version\":2"), std::string::npos);
  EXPECT_NE(ok_response.body.find("\"entries_repaired\":1"),
            std::string::npos);

  // Version skew -> 409 (the header still says expect_version=1).
  const HttpResponse skew =
      app.Handle(PostRequest("/v1/update_graph", body), HttpRequestContext{});
  EXPECT_EQ(skew.status_code, 409) << skew.body;

  // Parse error -> 400; unknown graph -> 404; wrong method -> 405.
  EXPECT_EQ(app.Handle(PostRequest("/v1/update_graph", "not a batch"),
                       HttpRequestContext{})
                .status_code,
            400);
  EXPECT_EQ(app.Handle(PostRequest("/v1/update_graph",
                                   "graph=nope\ndelete 0 1\n"),
                       HttpRequestContext{})
                .status_code,
            404);
  HttpRequest get = PostRequest("/v1/update_graph", body);
  get.method = "GET";
  EXPECT_EQ(app.Handle(get, HttpRequestContext{}).status_code, 405);
}

TEST_F(GraphUpdateServeTest, RemoveGraphRoute) {
  QueryEngine engine(&registry_);
  ServeApp app(&engine);
  ASSERT_TRUE(engine.Execute(BaseQuery("g")).status.ok());

  const HttpResponse removed = app.Handle(
      PostRequest("/v1/remove_graph", "graph=g"), HttpRequestContext{});
  EXPECT_EQ(removed.status_code, 200) << removed.body;
  EXPECT_NE(removed.body.find("\"cache_entries_dropped\":1"),
            std::string::npos);
  EXPECT_FALSE(registry_.Contains("g"));

  EXPECT_EQ(app.Handle(PostRequest("/v1/remove_graph", "graph=g"),
                       HttpRequestContext{})
                .status_code,
            404);
  EXPECT_EQ(app.Handle(PostRequest("/v1/remove_graph", "bogus body"),
                       HttpRequestContext{})
                .status_code,
            400);
}

}  // namespace
}  // namespace subsim
