#include "serve_load.h"

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdlib>
#include <thread>
#include <utility>

namespace trajectory {

namespace {

using Clock = std::chrono::steady_clock;

constexpr const char* kHost = "127.0.0.1";

double MsSince(Clock::time_point start, Clock::time_point t) {
  return std::chrono::duration<double, std::milli>(t - start).count();
}

/// Calls `tick` about every 50 ms until `running` reaches 0, then joins
/// `threads`.
void TickUntilDone(std::vector<std::thread>* threads,
                   const std::atomic<int>& running,
                   const std::function<void()>& tick) {
  while (running.load() > 0) {
    tick();
    std::this_thread::sleep_for(std::chrono::milliseconds(50));
  }
  for (std::thread& thread : *threads) {
    thread.join();
  }
}

subsim::QueryEngineOptions EngineOptions() {
  subsim::QueryEngineOptions options;
  options.num_workers = 1;
  options.num_threads = 1;
  return options;
}

}  // namespace

ServeRig::ServeRig(unsigned http_workers)
    : engine_(&registry_, EngineOptions()),
      app_(&engine_),
      server_(
          [this](const subsim::HttpRequest& request,
                 const subsim::HttpRequestContext& context) {
            return app_.Handle(request, context);
          },
          [&] {
            subsim::HttpServer::Options options;
            options.num_workers = http_workers;
            options.metrics = &engine_.metrics();
            return options;
          }()) {}

subsim::Result<std::unique_ptr<ServeRig>> ServeRig::Start(
    subsim::Graph graph, unsigned http_workers) {
  std::unique_ptr<ServeRig> rig(new ServeRig(http_workers));
  SUBSIM_RETURN_IF_ERROR(rig->registry_.Register(kServeGraph, std::move(graph)));
  SUBSIM_RETURN_IF_ERROR(rig->server_.Start());
  return rig;
}

std::vector<Exchange> RunOpenLoop(std::uint16_t port, std::size_t count,
                                  double rate_qps, int connections,
                                  const SendFn& send,
                                  const std::function<void()>& tick) {
  std::vector<Exchange> exchanges(count);
  std::atomic<std::size_t> next{0};
  std::atomic<int> running{connections};
  // Start slightly in the future so every connection is up before the
  // first request falls due.
  const Clock::time_point start = Clock::now() + std::chrono::milliseconds(20);
  std::vector<std::thread> threads;
  for (int c = 0; c < connections; ++c) {
    threads.emplace_back([&] {
      subsim::HttpClient client(kHost, port);
      for (;;) {
        const std::size_t i = next.fetch_add(1);
        if (i >= count) {
          running.fetch_sub(1);
          return;
        }
        const Clock::time_point due =
            start + std::chrono::duration_cast<Clock::duration>(
                        std::chrono::duration<double>(
                            static_cast<double>(i) / rate_qps));
        std::this_thread::sleep_until(due);
        Exchange& exchange = exchanges[i];
        exchange.index = i;
        exchange.due_ms = MsSince(start, due);
        exchange.send_ms = MsSince(start, Clock::now());
        send(client, i, &exchange);
        exchange.done_ms = MsSince(start, Clock::now());
      }
    });
  }
  TickUntilDone(&threads, running, tick);
  return exchanges;
}

std::vector<Exchange> RunClosedLoop(std::uint16_t port,
                                    std::size_t first_index, double seconds,
                                    int connections, const SendFn& send,
                                    const std::function<void()>& tick,
                                    double* elapsed_s) {
  std::vector<std::vector<Exchange>> per_connection(
      static_cast<std::size_t>(connections));
  std::atomic<std::size_t> next{first_index};
  std::atomic<int> running{connections};
  const Clock::time_point start = Clock::now();
  const Clock::time_point end =
      start + std::chrono::duration_cast<Clock::duration>(
                  std::chrono::duration<double>(seconds));
  std::vector<std::thread> threads;
  for (int c = 0; c < connections; ++c) {
    threads.emplace_back([&, c] {
      subsim::HttpClient client(kHost, port);
      while (Clock::now() < end) {
        Exchange exchange;
        exchange.index = next.fetch_add(1);
        exchange.send_ms = MsSince(start, Clock::now());
        exchange.due_ms = exchange.send_ms;
        send(client, exchange.index, &exchange);
        exchange.done_ms = MsSince(start, Clock::now());
        per_connection[static_cast<std::size_t>(c)].push_back(
            std::move(exchange));
      }
      running.fetch_sub(1);
    });
  }
  TickUntilDone(&threads, running, tick);
  std::vector<Exchange> exchanges;
  double last_done_ms = 0.0;
  for (std::vector<Exchange>& list : per_connection) {
    for (Exchange& exchange : list) {
      last_done_ms = std::max(last_done_ms, exchange.done_ms);
      exchanges.push_back(std::move(exchange));
    }
  }
  std::sort(exchanges.begin(), exchanges.end(),
            [](const Exchange& a, const Exchange& b) {
              return a.index < b.index;
            });
  *elapsed_s = last_done_ms / 1000.0;
  return exchanges;
}

double JsonNumber(const std::string& body, const std::string& key,
                  double fallback) {
  const std::string needle = "\"" + key + "\":";
  const std::size_t at = body.find(needle);
  if (at == std::string::npos) {
    return fallback;
  }
  const char* begin = body.c_str() + at + needle.size();
  char* end = nullptr;
  const double value = std::strtod(begin, &end);
  return end == begin ? fallback : value;
}

bool JsonTrue(const std::string& body, const std::string& key) {
  return body.find("\"" + key + "\":true") != std::string::npos;
}

std::vector<subsim::NodeId> JsonSeeds(const std::string& body) {
  std::vector<subsim::NodeId> seeds;
  const std::string needle = "\"seeds\":[";
  const std::size_t at = body.find(needle);
  if (at == std::string::npos) {
    return seeds;
  }
  const char* p = body.c_str() + at + needle.size();
  while (*p != ']' && *p != '\0') {
    char* end = nullptr;
    const unsigned long value = std::strtoul(p, &end, 10);
    if (end == p) {
      break;
    }
    seeds.push_back(static_cast<subsim::NodeId>(value));
    p = *end == ',' ? end + 1 : end;
  }
  return seeds;
}

std::string PostBytes(const std::string& target, const std::string& body) {
  return "POST " + target + " HTTP/1.1\r\nHost: " + kHost +
         "\r\nContent-Length: " + std::to_string(body.size()) + "\r\n\r\n" +
         body;
}

}  // namespace trajectory
