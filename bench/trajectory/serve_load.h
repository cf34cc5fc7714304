#ifndef SUBSIM_BENCH_TRAJECTORY_SERVE_LOAD_H_
#define SUBSIM_BENCH_TRAJECTORY_SERVE_LOAD_H_

// The serving side of the trajectory: an in-process HTTP stack over one
// graph, and a load generator with a fixed number of keep-alive client
// connections. The open loop times every request from the moment it was
// due, so a stall that delays later sends is charged to them, and reports
// how late the generator itself sent.

#include <cstdint>
#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "subsim/graph/graph.h"
#include "subsim/graph/types.h"
#include "subsim/net/http_client.h"
#include "subsim/net/http_server.h"
#include "subsim/net/serve_app.h"
#include "subsim/serve/graph_registry.h"
#include "subsim/serve/query_engine.h"
#include "subsim/util/status.h"

namespace trajectory {

/// Name the rig registers its graph under.
inline constexpr const char* kServeGraph = "g";

/// `GraphRegistry` + `QueryEngine` + `ServeApp` + `HttpServer` on an
/// ephemeral loopback port. Queries execute on the HTTP workers; the engine
/// pool keeps one idle worker because `Execute` never uses it.
class ServeRig {
 public:
  static subsim::Result<std::unique_ptr<ServeRig>> Start(subsim::Graph graph,
                                                         unsigned http_workers);

  ServeRig(const ServeRig&) = delete;
  ServeRig& operator=(const ServeRig&) = delete;

  std::uint16_t port() const { return server_.port(); }

 private:
  explicit ServeRig(unsigned http_workers);

  subsim::GraphRegistry registry_;
  subsim::QueryEngine engine_;
  subsim::ServeApp app_;
  subsim::HttpServer server_;  // last: stopped before what it calls into
};

/// One request/response exchange. Times are milliseconds since the start
/// of the phase that sent it.
struct Exchange {
  std::size_t index = 0;
  int cls = 0;
  double due_ms = 0.0;
  double send_ms = 0.0;
  double done_ms = 0.0;
  bool transport_ok = false;
  int status = 0;
  std::string request_body;
  std::string body;
};

/// Sends request `index` on `client`; fills cls, request_body,
/// transport_ok, status and body. Called concurrently from the connection
/// threads.
using SendFn =
    std::function<void(subsim::HttpClient& client, std::size_t index,
                       Exchange* exchange)>;

/// Requests 0..count-1, request i due at i / rate_qps, spread over
/// `connections` keep-alive clients: a free connection takes the next
/// request and waits for its due time. The calling thread runs `tick`
/// about every 50 ms meanwhile. Returns the exchanges in index order.
std::vector<Exchange> RunOpenLoop(std::uint16_t port, std::size_t count,
                                  double rate_qps, int connections,
                                  const SendFn& send,
                                  const std::function<void()>& tick);

/// Each connection sends its next request as soon as the previous answer
/// lands, starting at `first_index`, until `seconds` have passed; the
/// exchanges that began inside the window are returned. The calling thread
/// runs `tick` about every 50 ms meanwhile. `elapsed_s` receives the time
/// until the last of them completed.
std::vector<Exchange> RunClosedLoop(std::uint16_t port,
                                    std::size_t first_index, double seconds,
                                    int connections, const SendFn& send,
                                    const std::function<void()>& tick,
                                    double* elapsed_s);

/// `"key":<number>` from a flat JSON object; `fallback` when absent.
double JsonNumber(const std::string& body, const std::string& key,
                  double fallback);

/// True when the body holds `"key":true`.
bool JsonTrue(const std::string& body, const std::string& key);

/// The `"seeds":[...]` array of a select_seeds response.
std::vector<subsim::NodeId> JsonSeeds(const std::string& body);

/// The wire bytes of `POST target` with `body`, as a client sends them.
std::string PostBytes(const std::string& target, const std::string& body);

}  // namespace trajectory

#endif  // SUBSIM_BENCH_TRAJECTORY_SERVE_LOAD_H_
