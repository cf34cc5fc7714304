#include "subsim/net/serve_app.h"

#include <string_view>
#include <utility>

#include "subsim/graph/graph_update.h"
#include "subsim/obs/metrics.h"
#include "subsim/util/deadline.h"
#include "subsim/util/string_util.h"

namespace subsim {

namespace {

HttpResponse JsonResponse(int status_code, std::string body) {
  HttpResponse response;
  response.status_code = status_code;
  response.headers.emplace_back("Content-Type", "application/json");
  response.body = std::move(body);
  return response;
}

HttpResponse JsonError(int status_code, std::string_view message) {
  return JsonResponse(status_code, "{\"ok\":false,\"error\":\"" +
                                       JsonEscape(message) + "\"}\n");
}

int HttpStatusFor(const Status& status) {
  switch (status.code()) {
    case StatusCode::kOk:
      return 200;
    case StatusCode::kInvalidArgument:
    case StatusCode::kOutOfRange:
      return 400;
    case StatusCode::kNotFound:
      return 404;
    case StatusCode::kFailedPrecondition:
      return 409;  // version skew: the client should refetch and retry
    case StatusCode::kDeadlineExceeded:
      return 429;
    case StatusCode::kUnavailable:
      return 503;
    default:
      return 500;
  }
}

}  // namespace

ServeApp::ServeApp(QueryEngine* engine)
    : engine_(engine),
      shed_(engine->metrics().Counter("serve.shed")),
      queue_us_p50_(engine->metrics().Gauge("slo.queue_us_p50")),
      queue_us_p99_(engine->metrics().Gauge("slo.queue_us_p99")),
      exec_us_p50_(engine->metrics().Gauge("slo.exec_us_p50")),
      exec_us_p99_(engine->metrics().Gauge("slo.exec_us_p99")) {}

std::string ServeApp::MetricsJson() {
  // Refresh the SLO gauges from the latency histograms at scrape time:
  // scraping is rare, quantile extraction is O(buckets), and the gauges
  // then ride along in the same stats JSON as everything else.
  const MetricsSnapshot snapshot = engine_->metrics().Snapshot();
  const auto refresh = [&](const char* histogram,
                           MetricsRegistry::GaugeHandle p50,
                           MetricsRegistry::GaugeHandle p99) {
    const auto it = snapshot.histograms.find(histogram);
    if (it == snapshot.histograms.end()) {
      return;
    }
    p50.Set(it->second.ApproxQuantile(0.5));
    p99.Set(it->second.ApproxQuantile(0.99));
  };
  refresh("serve.queue_us", queue_us_p50_, queue_us_p99_);
  refresh("serve.exec_us", exec_us_p50_, exec_us_p99_);
  return engine_->StatsJson();
}

HttpResponse ServeApp::Handle(const HttpRequest& request,
                              const HttpRequestContext& context) {
  if (request.target == "/healthz") {
    if (request.method != "GET") {
      return JsonError(405, "use GET");
    }
    return JsonResponse(
        200, "{\"ok\":true,\"graphs\":" +
                 std::to_string(engine_->registry().Names().size()) + "}\n");
  }
  if (request.target == "/metricsz") {
    if (request.method != "GET") {
      return JsonError(405, "use GET");
    }
    return JsonResponse(200, MetricsJson() + "\n");
  }
  if (request.target == "/v1/select_seeds") {
    if (request.method != "POST") {
      return JsonError(405, "use POST");
    }
    return HandleSelectSeeds(request, context);
  }
  if (request.target == "/v1/update_graph") {
    if (request.method != "POST") {
      return JsonError(405, "use POST");
    }
    return HandleUpdateGraph(request);
  }
  if (request.target == "/v1/remove_graph") {
    if (request.method != "POST") {
      return JsonError(405, "use POST");
    }
    return HandleRemoveGraph(request);
  }
  return JsonError(404, "no such endpoint");
}

HttpResponse ServeApp::HandleUpdateGraph(const HttpRequest& request) {
  Result<GraphUpdateRequest> parsed = ParseGraphUpdateRequest(request.body);
  if (!parsed.ok()) {
    return JsonError(400, parsed.status().ToString());
  }
  Result<QueryEngine::GraphUpdateOutcome> outcome =
      engine_->ApplyGraphUpdates(parsed->graph, parsed->batch);
  if (!outcome.ok()) {
    return JsonError(HttpStatusFor(outcome.status()),
                     outcome.status().ToString());
  }
  std::string body = "{\"ok\":true";
  body += ",\"graph\":\"" + JsonEscape(parsed->graph) + "\"";
  body += ",\"version\":" + std::to_string(outcome->version);
  body += ",\"previous_version\":" +
          std::to_string(outcome->previous_version);
  body += ",\"num_edges\":" + std::to_string(outcome->num_edges);
  body += ",\"entries_repaired\":" +
          std::to_string(outcome->entries_repaired);
  body += ",\"entries_dropped\":" + std::to_string(outcome->entries_dropped);
  body += ",\"sets_repaired\":" + std::to_string(outcome->sets_repaired);
  body += ",\"sets_kept\":" + std::to_string(outcome->sets_kept);
  body += ",\"repair_ms\":" + JsonDouble(outcome->repair_seconds * 1000.0);
  body += "}\n";
  return JsonResponse(200, std::move(body));
}

HttpResponse ServeApp::HandleRemoveGraph(const HttpRequest& request) {
  // Body: `graph=NAME` (single line, same key=value idiom as queries).
  std::string name;
  for (const std::string_view token :
       SplitAndTrim(StripWhitespace(request.body), " \t\r\n")) {
    const std::size_t eq = token.find('=');
    if (eq == std::string_view::npos || token.substr(0, eq) != "graph") {
      return JsonError(400, "expected body 'graph=NAME', got '" +
                                std::string(token) + "'");
    }
    name = std::string(token.substr(eq + 1));
  }
  if (name.empty()) {
    return JsonError(400, "expected body 'graph=NAME'");
  }
  Result<std::size_t> dropped = engine_->RemoveGraph(name);
  if (!dropped.ok()) {
    return JsonError(HttpStatusFor(dropped.status()),
                     dropped.status().ToString());
  }
  return JsonResponse(200, "{\"ok\":true,\"graph\":\"" +
                               JsonEscape(name) +
                               "\",\"cache_entries_dropped\":" +
                               std::to_string(*dropped) + "}\n");
}

HttpResponse ServeApp::HandleSelectSeeds(const HttpRequest& request,
                                         const HttpRequestContext& context) {
  Result<SelectSeedsQuery> query = ParseSelectSeedsQuery(request.body);
  if (!query.ok()) {
    return JsonError(400, query.status().ToString());
  }

  QueryEngine::ExecContext exec;
  exec.queue_seconds = context.queue_seconds;
  if (query->deadline_ms > 0) {
    // The budget covers queueing too: subtract the time already spent
    // waiting for a worker. A budget that is already gone is shed here —
    // cheaper for everyone than starting work the client gave up on.
    const double remaining_seconds =
        static_cast<double>(query->deadline_ms) / 1000.0 -
        context.queue_seconds;
    if (remaining_seconds <= 0.0) {
      shed_.Increment();
      HttpResponse response =
          JsonError(429, "deadline consumed while queued");
      response.headers.emplace_back("Retry-After", "1");
      return response;
    }
    exec.deadline = Deadline::AfterSeconds(remaining_seconds);
  }

  const QueryResponse query_response = engine_->Execute(*query, exec);
  HttpResponse response = JsonResponse(
      HttpStatusFor(query_response.status),
      FormatQueryResponseJson(query_response) + "\n");
  if (response.status_code == 429 || response.status_code == 503) {
    response.headers.emplace_back("Retry-After", "1");
  }
  return response;
}

}  // namespace subsim
