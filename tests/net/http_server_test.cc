// End-to-end tests for the HTTP serving stack: server + client round
// trips, the ServeApp routes, bit-identical seeds between the wire and a
// direct engine call, and a deterministic overload-shedding scenario
// (1 worker + 1 queue slot + 3 concurrent requests = exactly one 429).
//
// Everything talks to the server through `HttpClient` — tests are outside
// src/subsim/net/ and therefore not allowed to make raw socket calls.

#include "subsim/net/http_server.h"

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <future>
#include <string>
#include <thread>
#include <utility>

#include "subsim/graph/generators.h"
#include "subsim/graph/graph_builder.h"
#include "subsim/graph/weight_models.h"
#include "subsim/net/http_client.h"
#include "subsim/net/serve_app.h"
#include "subsim/serve/query.h"
#include "subsim/serve/query_engine.h"

namespace subsim {
namespace {

Graph ServeGraph(std::uint64_t seed) {
  Result<EdgeList> list = GenerateBarabasiAlbert(300, 3, false, seed);
  EXPECT_TRUE(list.ok());
  EXPECT_TRUE(
      AssignWeights(WeightModel::kWeightedCascade, {}, &list.value()).ok());
  Result<Graph> graph = BuildGraph(std::move(list).value());
  EXPECT_TRUE(graph.ok());
  return std::move(graph).value();
}

/// The "seeds":[...] slice of a response JSON line; empty when absent.
std::string ExtractSeeds(const std::string& json) {
  const std::size_t start = json.find("\"seeds\":[");
  if (start == std::string::npos) {
    return "";
  }
  const std::size_t end = json.find(']', start);
  return json.substr(start, end - start + 1);
}

class ServeAppServerTest : public ::testing::Test {
 protected:
  void SetUp() override {
    ASSERT_TRUE(registry_.Register("g", ServeGraph(33)).ok());
    engine_ = std::make_unique<QueryEngine>(&registry_);
    app_ = std::make_unique<ServeApp>(engine_.get());
    HttpServer::Options options;
    options.num_workers = 2;
    options.metrics = &engine_->metrics();
    server_ = std::make_unique<HttpServer>(
        [this](const HttpRequest& request, const HttpRequestContext& context) {
          return app_->Handle(request, context);
        },
        options);
    ASSERT_TRUE(server_->Start().ok());
  }

  void TearDown() override { server_->Stop(); }

  GraphRegistry registry_;
  std::unique_ptr<QueryEngine> engine_;
  std::unique_ptr<ServeApp> app_;
  std::unique_ptr<HttpServer> server_;
};

TEST_F(ServeAppServerTest, HealthzReportsGraphs) {
  HttpClient client("127.0.0.1", server_->port());
  const auto response = client.Get("/healthz");
  ASSERT_TRUE(response.ok()) << response.status().ToString();
  EXPECT_EQ(response->status_code, 200);
  EXPECT_NE(response->body.find("\"ok\":true"), std::string::npos);
  EXPECT_NE(response->body.find("\"graphs\":1"), std::string::npos);
}

TEST_F(ServeAppServerTest, SelectSeedsMatchesDirectExecuteBitForBit) {
  const std::string query_line = "graph=g algo=opim-c k=6 eps=0.3 seed=11";
  HttpClient client("127.0.0.1", server_->port());
  const auto wire = client.Post("/v1/select_seeds", query_line);
  ASSERT_TRUE(wire.ok()) << wire.status().ToString();
  ASSERT_EQ(wire->status_code, 200) << wire->body;

  Result<SelectSeedsQuery> query = ParseSelectSeedsQuery(query_line);
  ASSERT_TRUE(query.ok());
  const QueryResponse direct = engine_->Execute(*query);
  ASSERT_TRUE(direct.status.ok());

  const std::string wire_seeds = ExtractSeeds(wire->body);
  const std::string direct_seeds =
      ExtractSeeds(FormatQueryResponseJson(direct));
  ASSERT_FALSE(wire_seeds.empty());
  EXPECT_EQ(wire_seeds, direct_seeds);
}

TEST_F(ServeAppServerTest, KeepAliveReusesOneConnection) {
  HttpClient client("127.0.0.1", server_->port());
  for (int i = 0; i < 3; ++i) {
    const auto response = client.Get("/healthz");
    ASSERT_TRUE(response.ok()) << response.status().ToString();
    EXPECT_EQ(response->status_code, 200);
  }
  // All three rode the same accepted connection.
  const MetricsSnapshot snapshot = engine_->metrics().Snapshot();
  EXPECT_EQ(snapshot.counters.at("http.accepted"), 1u);
  EXPECT_GE(snapshot.counters.at("http.requests"), 3u);
}

TEST_F(ServeAppServerTest, MetricszCarriesGoldenKeysBeforeTraffic) {
  HttpClient client("127.0.0.1", server_->port());
  const auto response = client.Get("/metricsz");
  ASSERT_TRUE(response.ok());
  ASSERT_EQ(response->status_code, 200);
  // Dashboards key on these names; they must exist even before the first
  // query (eager registration in QueryEngine / ServeApp / HttpServer).
  for (const char* key :
       {"\"serve.queries\"", "\"serve.shed\"", "\"serve.errors\"",
        "\"serve.deadline_hits\"", "\"serve.queue_us\"",
        "\"serve.exec_us\"", "\"slo.queue_us_p50\"", "\"slo.queue_us_p99\"",
        "\"slo.exec_us_p50\"", "\"slo.exec_us_p99\"", "\"http.accepted\"",
        "\"http.requests\""}) {
    EXPECT_NE(response->body.find(key), std::string::npos) << key;
  }
}

TEST_F(ServeAppServerTest, BadInputsGetFourHundreds) {
  HttpClient client("127.0.0.1", server_->port());

  const auto missing = client.Get("/no/such/route");
  ASSERT_TRUE(missing.ok());
  EXPECT_EQ(missing->status_code, 404);

  const auto wrong_method = client.Get("/v1/select_seeds");
  ASSERT_TRUE(wrong_method.ok());
  EXPECT_EQ(wrong_method->status_code, 405);

  const auto bad_query = client.Post("/v1/select_seeds", "k=not-a-number");
  ASSERT_TRUE(bad_query.ok());
  EXPECT_EQ(bad_query->status_code, 400);

  // The engine serves only the algorithms that keep a deadline.
  const auto unserved_algo =
      client.Post("/v1/select_seeds", "graph=g algo=ssa k=3");
  ASSERT_TRUE(unserved_algo.ok());
  EXPECT_EQ(unserved_algo->status_code, 400) << unserved_algo->body;
  EXPECT_NE(unserved_algo->body.find("\"ok\":false"), std::string::npos)
      << unserved_algo->body;

  const auto unknown_graph =
      client.Post("/v1/select_seeds", "graph=missing k=3");
  ASSERT_TRUE(unknown_graph.ok());
  EXPECT_EQ(unknown_graph->status_code, 404);

  // Error text echoes the client's bytes; quotes and control bytes must
  // come back escaped so the body stays valid JSON.
  const auto hostile_body =
      client.Post("/v1/remove_graph", std::string("a\"b\x01", 4));
  ASSERT_TRUE(hostile_body.ok());
  EXPECT_EQ(hostile_body->status_code, 400);
  EXPECT_NE(hostile_body->body.find("got 'a\\\"b\\u0001'"), std::string::npos)
      << hostile_body->body;
}

TEST_F(ServeAppServerTest, ExpiredDeadlineIsShedBeforeExecution) {
  // deadline_ms covers queue + exec; the queue alone cannot have consumed
  // it here, so drive the degraded path through the engine instead: a
  // 1 ms budget on a cold heavy query must still return a valid response
  // (either completed in time, or degraded with deadline_hit).
  HttpClient client("127.0.0.1", server_->port());
  const auto response = client.Post(
      "/v1/select_seeds", "graph=g algo=opim-c k=6 eps=0.1 deadline_ms=1");
  ASSERT_TRUE(response.ok());
  // Whatever happened, the answer is well-formed and carries a bound.
  EXPECT_TRUE(response->status_code == 200 || response->status_code == 429)
      << response->body;
  if (response->status_code == 200) {
    EXPECT_NE(ExtractSeeds(response->body), "");
  }
}

// The deterministic shed scenario: one worker pinned by a blocking
// handler, one queue slot occupied, so a third concurrent connection must
// bounce with 429 + Retry-After from the acceptor.
TEST(HttpServerShedTest, ThirdConcurrentRequestIsShedWith429) {
  MetricsRegistry metrics;
  std::atomic<int> entered{0};
  std::promise<void> release_promise;
  std::shared_future<void> release(release_promise.get_future());

  HttpServer::Options options;
  options.num_workers = 1;
  options.max_pending = 1;
  options.metrics = &metrics;
  HttpServer server(
      [&](const HttpRequest&, const HttpRequestContext&) {
        entered.fetch_add(1);
        release.wait();
        HttpResponse response;
        response.body = "done";
        return response;
      },
      options);
  ASSERT_TRUE(server.Start().ok());

  const auto wait_until = [](const std::function<bool()>& ready) {
    for (int i = 0; i < 5000 && !ready(); ++i) {
      std::this_thread::sleep_for(std::chrono::milliseconds(1));
    }
    return ready();
  };

  // First request occupies the only worker.
  std::thread first([&] {
    HttpClient client("127.0.0.1", server.port());
    const auto response = client.Get("/a");
    EXPECT_TRUE(response.ok());
    EXPECT_EQ(response->status_code, 200);
  });
  ASSERT_TRUE(wait_until([&] { return entered.load() == 1; }));

  // Second occupies the single queue slot (accepted but not picked up).
  std::thread second([&] {
    HttpClient client("127.0.0.1", server.port());
    const auto response = client.Get("/b");
    EXPECT_TRUE(response.ok());
    EXPECT_EQ(response->status_code, 200);
  });
  ASSERT_TRUE(wait_until([&] {
    return metrics.Snapshot().counters.at("http.accepted") >= 2;
  }));

  // Third must be shed by the acceptor: fast 429, Retry-After set.
  HttpClient third("127.0.0.1", server.port());
  const auto shed = third.Get("/c");
  ASSERT_TRUE(shed.ok()) << shed.status().ToString();
  EXPECT_EQ(shed->status_code, 429);
  ASSERT_NE(shed->FindHeader("Retry-After"), nullptr);
  EXPECT_GE(metrics.Snapshot().counters.at("serve.shed"), 1u);

  release_promise.set_value();
  first.join();
  second.join();
  server.Stop();
}

// Stopping with a connection mid-flight must not hang or crash; queued
// connections drain with 503.
TEST(HttpServerShutdownTest, StopWithIdleKeepAliveConnection) {
  MetricsRegistry metrics;
  HttpServer::Options options;
  options.num_workers = 1;
  options.io_timeout_seconds = 1;
  options.metrics = &metrics;
  HttpServer server(
      [](const HttpRequest&, const HttpRequestContext&) {
        return HttpResponse{};
      },
      options);
  ASSERT_TRUE(server.Start().ok());

  HttpClient client("127.0.0.1", server.port());
  const auto response = client.Get("/x");
  ASSERT_TRUE(response.ok());
  EXPECT_EQ(response->status_code, 200);
  // The connection is now idle and kept alive; Stop must still return.
  server.Stop();
}

}  // namespace
}  // namespace subsim
