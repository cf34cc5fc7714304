#ifndef SUBSIM_NET_SERVE_APP_H_
#define SUBSIM_NET_SERVE_APP_H_

#include <string>

#include "subsim/net/http.h"
#include "subsim/net/http_server.h"
#include "subsim/obs/metrics.h"
#include "subsim/serve/query_engine.h"

namespace subsim {

/// HTTP routing + admission policy in front of a `QueryEngine` — the
/// handler an `HttpServer` runs (docs/serving.md for the wire protocol).
///
/// Routes:
///   POST /v1/select_seeds  body = one query line (`graph=g algo=opim-c
///                          k=8 eps=0.3 seed=7 deadline_ms=50`), response
///                          = the query's JSON line.
///   POST /v1/update_graph  body = an update request (header line
///                          `graph=g [expect_version=V]` then
///                          `insert/delete/weight` op lines — see
///                          `ParseGraphUpdateRequest`); publishes a new
///                          snapshot version and incrementally repairs the
///                          warm cache. 409 on version skew.
///   POST /v1/remove_graph  body = `graph=g`; removes the graph and its
///                          cache entries end to end.
///   GET  /healthz          liveness + registered graph count.
///   GET  /metricsz         engine stats JSON; refreshes the SLO gauges
///                          (`slo.queue_us_p50/p99`, `slo.exec_us_p50/p99`)
///                          from the `serve.queue_us`/`serve.exec_us`
///                          histograms at scrape time.
///
/// Admission: a query whose `deadline_ms` budget was fully consumed while
/// the connection waited for a worker is shed with 429 + `Retry-After`
/// before touching the engine (counted in `serve.shed`, same counter the
/// server's accept-queue overflow uses); otherwise the remaining budget is
/// passed down so the algorithms can degrade at a round boundary.
class ServeApp {
 public:
  explicit ServeApp(QueryEngine* engine);

  /// Thread-safe (called concurrently from server workers).
  HttpResponse Handle(const HttpRequest& request,
                      const HttpRequestContext& context);

  /// The `/metricsz` payload (also usable without a server in front).
  std::string MetricsJson();

 private:
  HttpResponse HandleSelectSeeds(const HttpRequest& request,
                                 const HttpRequestContext& context);
  HttpResponse HandleUpdateGraph(const HttpRequest& request);
  HttpResponse HandleRemoveGraph(const HttpRequest& request);

  QueryEngine* engine_;
  // Taken once: a shed request and a scrape write through these, with no
  // name lookup under the registry mutex. Taking a gauge registers its
  // key, so /metricsz carries the SLO keys before the first query lands.
  MetricsRegistry::CounterHandle shed_;
  MetricsRegistry::GaugeHandle queue_us_p50_;
  MetricsRegistry::GaugeHandle queue_us_p99_;
  MetricsRegistry::GaugeHandle exec_us_p50_;
  MetricsRegistry::GaugeHandle exec_us_p99_;
};

}  // namespace subsim

#endif  // SUBSIM_NET_SERVE_APP_H_
