#ifndef SUBSIM_NET_HTTP_SERVER_H_
#define SUBSIM_NET_HTTP_SERVER_H_

#include <atomic>
#include <chrono>
#include <cstdint>
#include <deque>
#include <functional>
#include <string>
#include <thread>
#include <vector>

#include "subsim/net/http.h"
#include "subsim/obs/metrics.h"
#include "subsim/util/mutex.h"
#include "subsim/util/status.h"
#include "subsim/util/thread_annotations.h"

namespace subsim {

/// What the server tells the handler about how a request got to it.
struct HttpRequestContext {
  /// Seconds the connection sat in the admission queue between `accept`
  /// and a worker picking it up (0 for follow-up requests on a kept-alive
  /// connection — those were never queued).
  double queue_seconds = 0.0;
};

/// A minimal dependency-free HTTP/1.1 server: one acceptor thread feeding
/// a *bounded* queue of accepted connections, drained by a fixed worker
/// pool that parses with `HttpRequestParser` and calls the handler.
///
/// The bounded queue is the admission layer: when it is full the acceptor
/// sheds the connection immediately with `429 Too Many Requests` +
/// `Retry-After` instead of letting latency collapse — clients get a fast,
/// explicit backpressure signal while in-flight requests keep their SLO.
/// (docs/serving.md discusses sizing.)
///
/// Keep-alive is supported with `Content-Length` framing; per-socket IO
/// timeouts bound how long an idle or trickling peer can pin a worker.
///
/// This file and its .cc are the only places in the library allowed to
/// make raw socket calls (`subsim_analyze.py` raw-socket rule);
/// everything above the wire goes through the handler.
class HttpServer {
 public:
  /// Handlers run on worker threads and must be thread-safe.
  using Handler =
      std::function<HttpResponse(const HttpRequest&, const HttpRequestContext&)>;

  struct Options {
    /// Bind address; default loopback-only.
    std::string bind_address = "127.0.0.1";
    /// TCP port; 0 binds an ephemeral port (read it back via `port()`).
    std::uint16_t port = 0;
    /// Worker threads; 0 = hardware concurrency.
    unsigned num_workers = 0;
    /// Accepted connections allowed to wait for a worker before the
    /// acceptor starts shedding with 429.
    std::size_t max_pending = 128;
    /// Per-socket receive/send timeout; bounds worker occupancy per peer.
    int io_timeout_seconds = 10;
    /// Wire-format limits handed to every `HttpRequestParser`.
    HttpRequestParser::Limits limits;
    /// Optional instrumentation sink (e.g. the engine registry, so the
    /// admission counters land next to `serve.*`): `serve.shed`,
    /// `http.accepted`, `http.requests`, `http.parse_errors`.
    MetricsRegistry* metrics = nullptr;
  };

  HttpServer(Handler handler, const Options& options);
  /// Stops and joins if still running.
  ~HttpServer();
  HttpServer(const HttpServer&) = delete;
  HttpServer& operator=(const HttpServer&) = delete;

  /// Binds, listens, and starts the acceptor + workers. Fails with
  /// `kIoError` if the address cannot be bound.
  Status Start();

  /// Idempotent: wakes the acceptor, drains queued connections with 503,
  /// and joins all threads.
  void Stop();

  /// The bound port — the ephemeral one when `Options::port` was 0.
  /// Valid after a successful `Start`.
  std::uint16_t port() const { return port_; }

 private:
  struct PendingConn {
    int fd = -1;
    std::chrono::steady_clock::time_point enqueued;
  };

  void AcceptLoop();
  void WorkerLoop();
  void ServeConnection(int fd, double queue_seconds);

  Handler handler_;
  Options options_;
  int listen_fd_ = -1;
  std::uint16_t port_ = 0;
  bool started_ = false;
  std::atomic<bool> stopping_{false};

  Mutex mu_;
  CondVar cv_;
  std::deque<PendingConn> pending_ SUBSIM_GUARDED_BY(mu_);

  std::thread acceptor_;
  std::vector<std::thread> workers_;

  MetricsRegistry::CounterHandle shed_counter_;
  MetricsRegistry::CounterHandle accepted_counter_;
  MetricsRegistry::CounterHandle requests_counter_;
  MetricsRegistry::CounterHandle parse_error_counter_;
};

}  // namespace subsim

#endif  // SUBSIM_NET_HTTP_SERVER_H_
