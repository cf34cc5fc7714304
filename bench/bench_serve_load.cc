// Load generator for the HTTP serving stack — the serving subsystem's
// acceptance bench. Runs an in-process `HttpServer` + `ServeApp` +
// `QueryEngine` on an ephemeral port and drives it through `HttpClient`
// (tests and benches may not touch raw sockets) in four phases:
//
//   1. closed-loop: N clients, each issuing its next request as soon as
//      the previous answer lands (classic throughput probe). Asserts a
//      p99 latency bar on the warm steady state.
//   2. open-loop: requests dispatched on a fixed arrival schedule
//      regardless of completions (the arrival pattern that actually
//      exposes queueing). Same p99 bar, each request timed from its due
//      time, so queueing and thread-start lag both count.
//   3. coalescing: K identical cold queries launched together must
//      generate ~one cold run's worth of RR sets, not K of them.
//   4. overload + degradation: a deliberately tiny server (1 worker, 1
//      queue slot) under a burst must shed with 429 + Retry-After within
//      the expected ceiling, and a 1 ms `deadline_ms` query must come
//      back degraded with the achieved bound annotated (or be shed).
//
// Any violated assertion exits non-zero, so CI can run this under
// `--smoke` (smaller counts, same checks) as a regression gate.

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "subsim/graph/generators.h"
#include "subsim/graph/graph_builder.h"
#include "subsim/graph/weight_models.h"
#include "subsim/net/http_client.h"
#include "subsim/net/http_server.h"
#include "subsim/net/serve_app.h"
#include "subsim/serve/graph_registry.h"
#include "subsim/serve/query.h"
#include "subsim/serve/query_engine.h"

namespace {

using Clock = std::chrono::steady_clock;

int g_failures = 0;

void Check(bool ok, const char* what) {
  std::printf("%-58s %s\n", what, ok ? "PASS" : "FAIL");
  if (!ok) {
    ++g_failures;
  }
}

double Quantile(std::vector<double> values, double q) {
  if (values.empty()) {
    return 0.0;
  }
  std::sort(values.begin(), values.end());
  const std::size_t index = std::min(
      values.size() - 1,
      static_cast<std::size_t>(q * static_cast<double>(values.size())));
  return values[index];
}

/// Pulls `"name":<number>` out of the /metricsz JSON; 0 when absent.
double ScrapeNumber(const std::string& json, const std::string& name) {
  const std::string needle = "\"" + name + "\":";
  const std::size_t at = json.find(needle);
  if (at == std::string::npos) {
    return 0.0;
  }
  return std::strtod(json.c_str() + at + needle.size(), nullptr);
}

subsim::Result<subsim::Graph> BuildBenchGraph() {
  auto list = subsim::GenerateBarabasiAlbert(2000, 4, false, 23);
  if (!list.ok()) {
    return list.status();
  }
  if (const subsim::Status status = subsim::AssignWeights(
          subsim::WeightModel::kWeightedCascade, {}, &list.value());
      !status.ok()) {
    return status;
  }
  return subsim::BuildGraph(std::move(list).value());
}

std::string QueryLine(std::uint32_t k, std::uint64_t seed, double eps) {
  return "graph=bench algo=opim-c k=" + std::to_string(k) +
         " eps=" + std::to_string(eps) + " seed=" + std::to_string(seed) +
         " generator=subsim";
}

/// One POST timed from `start` to its answer; returns the latency in
/// milliseconds and records failures. The open loop passes each request's
/// due time, so lag in starting its thread counts against the server rather
/// than vanishing from the tail (coordinated omission).
double TimedPost(subsim::HttpClient* client, const std::string& body,
                 Clock::time_point start, std::atomic<int>* errors) {
  const auto response = client->Post("/v1/select_seeds", body);
  const double ms =
      std::chrono::duration<double, std::milli>(Clock::now() - start)
          .count();
  if (!response.ok() || response->status_code != 200) {
    errors->fetch_add(1);
  }
  return ms;
}

}  // namespace

int main(int argc, char** argv) {
  bool smoke = false;
  for (int i = 1; i < argc; ++i) {
    if (std::string(argv[i]) == "--smoke") {
      smoke = true;
    }
  }
  const int kClients = smoke ? 2 : 4;
  const int kRequestsPerClient = smoke ? 6 : 25;
  const int kOpenLoopRequests = smoke ? 12 : 60;
  const double kOpenLoopIntervalMs = smoke ? 20.0 : 10.0;
  const int kCoalesceFanout = smoke ? 4 : 8;
  const int kBurst = 8;
  // Generous on purpose: the bar catches order-of-magnitude regressions
  // (a lost TCP_NODELAY, an accidental cold run per request), not CI
  // scheduler jitter.
  const double kP99BarMs = 2000.0;

  auto graph = BuildBenchGraph();
  if (!graph.ok()) {
    std::fprintf(stderr, "graph build failed: %s\n",
                 graph.status().ToString().c_str());
    return 1;
  }
  subsim::GraphRegistry registry;
  if (!registry.Register("bench", std::move(graph).value()).ok()) {
    return 1;
  }
  subsim::QueryEngineOptions engine_options;
  engine_options.num_workers = 4;
  subsim::QueryEngine engine(&registry, engine_options);
  subsim::ServeApp app(&engine);
  subsim::HttpServer::Options server_options;
  server_options.num_workers = 4;
  server_options.metrics = &engine.metrics();
  subsim::HttpServer server(
      [&app](const subsim::HttpRequest& request,
             const subsim::HttpRequestContext& context) {
        return app.Handle(request, context);
      },
      server_options);
  if (!server.Start().ok()) {
    std::fprintf(stderr, "server start failed\n");
    return 1;
  }
  const std::uint16_t port = server.port();
  std::printf("bench_serve_load: port=%u smoke=%d\n", port, smoke ? 1 : 0);

  // Warm the cache so the latency phases measure serving, not sampling.
  {
    subsim::HttpClient client("127.0.0.1", port);
    for (std::uint32_t k = 2; k <= 10; k += 2) {
      (void)client.Post("/v1/select_seeds", QueryLine(k, 1, 0.3));
    }
  }

  // --- Phase 1: closed loop ------------------------------------------
  std::vector<double> closed_latencies;
  {
    std::atomic<int> errors{0};
    std::vector<std::vector<double>> per_client(kClients);
    std::vector<std::thread> clients;
    for (int c = 0; c < kClients; ++c) {
      clients.emplace_back([&, c] {
        subsim::HttpClient client("127.0.0.1", port);
        for (int i = 0; i < kRequestsPerClient; ++i) {
          const std::uint32_t k = 2 + 2 * static_cast<std::uint32_t>(
                                          (c + i) % 5);  // warm mix
          per_client[c].push_back(
              TimedPost(&client, QueryLine(k, 1, 0.3), Clock::now(),
                        &errors));
        }
      });
    }
    for (std::thread& t : clients) {
      t.join();
    }
    for (const auto& v : per_client) {
      closed_latencies.insert(closed_latencies.end(), v.begin(), v.end());
    }
    const double p50 = Quantile(closed_latencies, 0.5);
    const double p99 = Quantile(closed_latencies, 0.99);
    std::printf("closed-loop: n=%zu p50=%.2fms p99=%.2fms errors=%d\n",
                closed_latencies.size(), p50, p99, errors.load());
    Check(errors.load() == 0, "closed-loop: all requests answered 200");
    Check(p99 <= kP99BarMs, "closed-loop: p99 under the bar");
  }

  // --- Phase 2: open loop --------------------------------------------
  {
    std::atomic<int> errors{0};
    std::vector<double> latencies(kOpenLoopRequests, 0.0);
    std::vector<std::thread> inflight;
    const auto epoch = Clock::now();
    for (int i = 0; i < kOpenLoopRequests; ++i) {
      // Fixed arrival schedule: dispatch happens at i * interval whether
      // or not earlier requests came back (that is the point).
      const auto due =
          epoch + std::chrono::duration_cast<Clock::duration>(
                      std::chrono::duration<double, std::milli>(
                          static_cast<double>(i) * kOpenLoopIntervalMs));
      std::this_thread::sleep_until(due);
      inflight.emplace_back([&, i, due] {
        subsim::HttpClient client("127.0.0.1", port);
        const std::uint32_t k =
            2 + 2 * static_cast<std::uint32_t>(i % 5);
        latencies[i] =
            TimedPost(&client, QueryLine(k, 1, 0.3), due, &errors);
      });
    }
    for (std::thread& t : inflight) {
      t.join();
    }
    const double p50 = Quantile(latencies, 0.5);
    const double p99 = Quantile(latencies, 0.99);
    std::printf("open-loop:   n=%d p50=%.2fms p99=%.2fms errors=%d\n",
                kOpenLoopRequests, p50, p99, errors.load());
    Check(errors.load() == 0, "open-loop: all requests answered 200");
    Check(p99 <= kP99BarMs, "open-loop: p99 under the bar");
  }

  // --- Phase 3: coalescing sublinearity ------------------------------
  {
    subsim::HttpClient client("127.0.0.1", port);
    const auto before_solo = client.Get("/metricsz");
    // Solo cold query on a fresh sketch key: the per-run sampling bill.
    (void)client.Post("/v1/select_seeds", QueryLine(6, 101, 0.15));
    const auto after_solo = client.Get("/metricsz");
    const double solo_sets =
        ScrapeNumber(after_solo->body, "rr.sets_generated") -
        ScrapeNumber(before_solo->body, "rr.sets_generated");

    // Exact reference bill for the fan-out query: the same cold query on
    // a private engine (identical counter-based streams, so identical
    // schedule) tells us what ONE run must generate.
    const std::string fan_query = QueryLine(6, 202, 0.15);
    double reference_sets = 0.0;
    {
      subsim::QueryEngine reference(&registry);
      const auto parsed = subsim::ParseSelectSeedsQuery(fan_query);
      const subsim::QueryResponse response = reference.Execute(*parsed);
      reference_sets =
          static_cast<double>(response.stats.rr_sets_generated);
    }

    // Fan out the SAME cold query (another fresh seed) concurrently.
    std::vector<std::thread> fan;
    for (int i = 0; i < kCoalesceFanout; ++i) {
      fan.emplace_back([&] {
        subsim::HttpClient c("127.0.0.1", port);
        (void)c.Post("/v1/select_seeds", fan_query);
      });
    }
    for (std::thread& t : fan) {
      t.join();
    }
    const auto after_fan = client.Get("/metricsz");
    const double fan_sets =
        ScrapeNumber(after_fan->body, "rr.sets_generated") -
        ScrapeNumber(after_solo->body, "rr.sets_generated");
    const double coalesced =
        ScrapeNumber(after_fan->body, "serve.coalesced");
    std::printf(
        "coalescing:  solo=%.0f sets, one-run bill=%.0f, "
        "%dx concurrent=%.0f sets, coalesced=%.0f\n",
        solo_sets, reference_sets, kCoalesceFanout, fan_sets, coalesced);
    Check(solo_sets > 0, "coalescing: solo cold query generated sets");
    // The sublinearity bar: the whole fan-out pays ONE run's sampling
    // bill (identical queries share one fill, they don't multiply it).
    Check(reference_sets > 0 && fan_sets <= 1.25 * reference_sets,
          "coalescing: concurrent identical queries share the fill");
  }

  // --- Phase 4: overload shedding + deadline degradation -------------
  {
    // A deliberately tiny second server over the same app: 1 worker, 1
    // queue slot, so a burst must shed.
    subsim::HttpServer::Options tiny_options;
    tiny_options.num_workers = 1;
    tiny_options.max_pending = 1;
    tiny_options.metrics = &engine.metrics();
    subsim::HttpServer tiny(
        [&app](const subsim::HttpRequest& request,
               const subsim::HttpRequestContext& context) {
          return app.Handle(request, context);
        },
        tiny_options);
    if (!tiny.Start().ok()) {
      std::fprintf(stderr, "tiny server start failed\n");
      return 1;
    }
    std::atomic<int> shed{0};
    std::atomic<int> ok{0};
    std::atomic<int> retry_after_seen{0};
    std::vector<std::thread> burst;
    for (int i = 0; i < kBurst; ++i) {
      burst.emplace_back([&, i] {
        // Slight arrival stagger: gives the worker a chance to dequeue
        // the first connection, so "at least two served" holds on any
        // scheduler, while the cold heavy queries (fresh seed each) keep
        // the worker busy far longer than the whole arrival span.
        std::this_thread::sleep_for(std::chrono::milliseconds(2 * i));
        subsim::HttpClient client("127.0.0.1", tiny.port());
        const auto response = client.Post(
            "/v1/select_seeds",
            QueryLine(10, 300 + static_cast<std::uint64_t>(i), 0.1));
        if (!response.ok()) {
          return;
        }
        if (response->status_code == 429) {
          shed.fetch_add(1);
          if (response->FindHeader("Retry-After") != nullptr) {
            retry_after_seen.fetch_add(1);
          }
        } else if (response->status_code == 200) {
          ok.fetch_add(1);
        }
      });
    }
    for (std::thread& t : burst) {
      t.join();
    }
    std::printf("overload:    burst=%d ok=%d shed=%d\n", kBurst, ok.load(),
                shed.load());
    Check(shed.load() >= 1, "overload: burst produced 429 shedding");
    // Shed-rate ceiling: capacity is worker + queue slot, so at least two
    // requests of the burst must land, whatever the interleaving.
    Check(shed.load() <= kBurst - 2,
          "overload: shed rate stays under the ceiling");
    Check(shed.load() == 0 || retry_after_seen.load() >= 1,
          "overload: shed responses carry Retry-After");
    tiny.Stop();

    // Deadline degradation: a 1 ms budget on a cold heavy query either
    // comes back degraded with the achieved bound annotated, or is shed.
    subsim::HttpClient client("127.0.0.1", port);
    const auto degraded = client.Post(
        "/v1/select_seeds", QueryLine(8, 999, 0.1) + " deadline_ms=1");
    const bool got = degraded.ok();
    const bool was_shed = got && degraded->status_code == 429;
    const bool was_degraded =
        got && degraded->status_code == 200 &&
        degraded->body.find("\"deadline_hit\":true") != std::string::npos &&
        degraded->body.find("\"achieved_eps\":") != std::string::npos;
    Check(was_shed || was_degraded,
          "deadline: 1ms budget answers degraded with achieved bound");
  }

  // --- Final scrape: the SLO gauges moved ----------------------------
  {
    subsim::HttpClient client("127.0.0.1", port);
    const auto metrics = client.Get("/metricsz");
    Check(metrics.ok() && metrics->status_code == 200,
          "metricsz: final scrape succeeds");
    if (metrics.ok()) {
      const double queue_p99 =
          ScrapeNumber(metrics->body, "slo.queue_us_p99");
      const double exec_p99 = ScrapeNumber(metrics->body, "slo.exec_us_p99");
      std::printf("slo gauges:  queue_us_p99=%.0f exec_us_p99=%.0f\n",
                  queue_p99, exec_p99);
      Check(exec_p99 > 0, "metricsz: exec_us p99 gauge is live");
    }
  }

  server.Stop();
  if (g_failures > 0) {
    std::fprintf(stderr, "bench_serve_load: %d check(s) FAILED\n",
                 g_failures);
    return 1;
  }
  std::printf("bench_serve_load: all checks passed\n");
  return 0;
}
