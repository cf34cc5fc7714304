// subsim command-line tool: generate graphs, assign weights, run influence
// maximization, evaluate seed sets, and calibrate influence levels without
// writing any C++.
//
// Subcommands:
//   generate  --type=ba|er|plc|ws --nodes=N [--degree=D] [--undirected]
//             [--seed=S] --out=FILE
//   weight    --in=FILE --model=wc|uniform|wc-variant|exponential|weibull|
//             trivalency|lt [--p=P] [--theta=T] [--seed=S] --out=FILE
//   stats     --in=FILE
//   run       --in=FILE --algo=imm|opim-c|ssa|hist|celf-mc|max-degree|
//             single-discount|degree-discount [--k=K] [--eps=E]
//             [--generator=vanilla|subsim|lt] [--seed=S]
//             [--threads=N] [--kernel=auto|scalar|batched]
//             [--rr-encoding=raw|delta]
//             [--evaluate[=SIMS]] [--metrics-json=FILE]
//   calibrate --in=FILE --model=wc-variant|uniform --target=AVG [--seed=S]
//   batch     --graph=NAME=FILE [--graph=...] [--in=QUERIES|-]
//             [--workers=N] [--threads=N] [--cache-mb=M]
//   serve     --graph=NAME=FILE [--graph=...] [--threads=N] [--cache-mb=M]
//             [--port=P] [--bind=ADDR] [--http-workers=N] [--max-pending=N]
//   update    --port=P [--host=ADDR] --in=BATCH|-
//
// Each subcommand accepts only the flags listed for it; any other flag is
// an error.
//
// Files are whitespace-separated edge lists ("src dst [weight]"); lines
// starting with '#' or '%' are comments. `weight` writes the third column.
//
// `batch` is the offline path: it executes one query per input line
// concurrently on a worker pool (see src/subsim/serve/query.h for the line
// grammar) and prints one JSON result line per query, in input order.
// `batch` and `serve` run only opim-c and hist, the algorithms that keep a
// query's deadline and certify their answer; any other algo, imm included,
// answers "ok":false (HTTP 400).
// `serve` is the HTTP/1.1 front end (POST /v1/select_seeds,
// POST /v1/update_graph, POST /v1/remove_graph, GET /healthz,
// GET /metricsz — docs/serving.md); queries run on its --http-workers.
// It prints one {"listening":true,"port":N} line to stdout so scripts can
// discover the ephemeral port of the default --port=0, and drains
// in-flight requests on SIGINT/SIGTERM. Both share RR sketches between
// queries through the serving cache.
//
// `update` posts an edge-update batch file (header `graph=NAME
// [expect_version=V]`, then `insert SRC DST W` / `delete SRC DST` /
// `weight SRC DST W` lines — docs/serving.md) to a running HTTP server;
// the server publishes a new snapshot version and incrementally repairs
// its warm RR sketches.

#include <algorithm>
#include <atomic>
#include <chrono>
#include <csignal>
#include <cstdio>
#include <future>
#include <initializer_list>
#include <string>
#include <string_view>
#include <thread>
#include <utility>
#include <vector>

#include "subsim/algo/registry.h"
#include "subsim/benchsup/calibration.h"
#include "subsim/net/http_client.h"
#include "subsim/net/http_server.h"
#include "subsim/net/serve_app.h"
#include "subsim/eval/spread_estimator.h"
#include "subsim/graph/generators.h"
#include "subsim/graph/graph_builder.h"
#include "subsim/graph/graph_update.h"
#include "subsim/graph/graph_io.h"
#include "subsim/graph/graph_stats.h"
#include "subsim/graph/weight_models.h"
#include "subsim/obs/metrics.h"
#include "subsim/obs/obs_json.h"
#include "subsim/obs/phase_tracer.h"
#include "subsim/rrset/parallel_fill.h"
#include "subsim/rrset/rr_encoding.h"
#include "subsim/serve/graph_registry.h"
#include "subsim/serve/query.h"
#include "subsim/serve/query_engine.h"
#include "subsim/util/string_util.h"

namespace subsim {
namespace {

/// Parsed "--key=value" flags (value "true" for bare "--key").
class Flags {
 public:
  static Result<Flags> Parse(int argc, char** argv, int first) {
    Flags flags;
    for (int i = first; i < argc; ++i) {
      const std::string_view arg(argv[i]);
      if (!StartsWith(arg, "--")) {
        return Status::InvalidArgument("expected --flag, got " +
                                       std::string(arg));
      }
      const std::size_t eq = arg.find('=');
      if (eq == std::string_view::npos) {
        flags.values_.emplace_back(std::string(arg.substr(2)), "true");
      } else {
        flags.values_.emplace_back(std::string(arg.substr(2, eq - 2)),
                                   std::string(arg.substr(eq + 1)));
      }
    }
    return flags;
  }

  /// Last occurrence wins, matching common CLI conventions; `GetAll` is for
  /// genuinely repeatable flags (--graph).
  std::string Get(const std::string& key, const std::string& fallback) const {
    std::string value = fallback;
    for (const auto& [k, v] : values_) {
      if (k == key) {
        value = v;
      }
    }
    return value;
  }
  std::vector<std::string> GetAll(const std::string& key) const {
    std::vector<std::string> all;
    for (const auto& [k, v] : values_) {
      if (k == key) {
        all.push_back(v);
      }
    }
    return all;
  }
  bool Has(const std::string& key) const {
    for (const auto& [k, v] : values_) {
      if (k == key) {
        return true;
      }
    }
    return false;
  }

  Result<std::uint64_t> GetUint(const std::string& key,
                                std::uint64_t fallback) const {
    if (!Has(key)) {
      return fallback;
    }
    std::uint64_t value = 0;
    if (!ParseUint64(Get(key, ""), &value)) {
      return Status::InvalidArgument("--" + key + " must be an integer");
    }
    return value;
  }

  Result<double> GetDouble(const std::string& key, double fallback) const {
    if (!Has(key)) {
      return fallback;
    }
    double value = 0;
    if (!ParseDouble(Get(key, ""), &value)) {
      return Status::InvalidArgument("--" + key + " must be a number");
    }
    return value;
  }

  /// InvalidArgument naming the first flag not in `known`, so a misspelled
  /// flag fails instead of running with the default it meant to override.
  Status CheckKnown(std::initializer_list<std::string_view> known) const {
    for (const auto& [k, v] : values_) {
      if (std::find(known.begin(), known.end(), k) == known.end()) {
        return Status::InvalidArgument("unrecognized flag: --" + k);
      }
    }
    return Status::Ok();
  }

 private:
  std::vector<std::pair<std::string, std::string>> values_;
};

int Fail(const Status& status) {
  std::fprintf(stderr, "error: %s\n", status.ToString().c_str());
  return 1;
}

int CmdGenerate(const Flags& flags) {
  const std::string type = flags.Get("type", "ba");
  const std::string out = flags.Get("out", "");
  if (out.empty()) {
    return Fail(Status::InvalidArgument("generate requires --out=FILE"));
  }
  const auto nodes = flags.GetUint("nodes", 10000);
  const auto degree = flags.GetUint("degree", 8);
  const auto seed = flags.GetUint("seed", 1);
  if (!nodes.ok() || !degree.ok() || !seed.ok()) {
    return Fail(!nodes.ok() ? nodes.status()
                            : !degree.ok() ? degree.status() : seed.status());
  }
  const NodeId n = static_cast<NodeId>(*nodes);
  const bool undirected = flags.Has("undirected");

  Result<EdgeList> list = Status::InvalidArgument(
      "unknown --type (expected ba | er | plc | ws)");
  if (type == "ba") {
    list = GenerateBarabasiAlbert(
        n, static_cast<NodeId>(std::max<std::uint64_t>(1, *degree / 2)),
        undirected, *seed);
  } else if (type == "er") {
    list = GenerateErdosRenyi(n, *degree * static_cast<EdgeIndex>(n), *seed);
  } else if (type == "plc") {
    list = GeneratePowerLawConfiguration(n, 2.1, n / 10,
                                         static_cast<double>(*degree), *seed);
  } else if (type == "ws") {
    list = GenerateWattsStrogatz(
        n, static_cast<NodeId>(std::max<std::uint64_t>(1, *degree / 4)), 0.1,
        *seed);
  }
  if (!list.ok()) {
    return Fail(list.status());
  }
  if (const Status status = WriteEdgeListText(*list, out); !status.ok()) {
    return Fail(status);
  }
  std::printf("wrote %s: %u nodes, %zu edges\n", out.c_str(),
              list->num_nodes, list->edges.size());
  return 0;
}

int CmdWeight(const Flags& flags) {
  const std::string in = flags.Get("in", "");
  const std::string out = flags.Get("out", "");
  if (in.empty() || out.empty()) {
    return Fail(Status::InvalidArgument("weight requires --in and --out"));
  }
  const auto model = ParseWeightModel(flags.Get("model", "wc"));
  if (!model.ok()) {
    return Fail(model.status());
  }
  auto list = ReadEdgeListText(in);
  if (!list.ok()) {
    return Fail(list.status());
  }
  WeightModelParams params;
  const auto p = flags.GetDouble("p", params.uniform_p);
  const auto theta = flags.GetDouble("theta", params.wc_variant_theta);
  const auto seed = flags.GetUint("seed", params.seed);
  if (!p.ok() || !theta.ok() || !seed.ok()) {
    return Fail(!p.ok() ? p.status()
                        : !theta.ok() ? theta.status() : seed.status());
  }
  params.uniform_p = *p;
  params.wc_variant_theta = *theta;
  params.seed = *seed;
  if (const Status status = AssignWeights(*model, params, &list.value());
      !status.ok()) {
    return Fail(status);
  }
  if (const Status status = WriteEdgeListText(*list, out); !status.ok()) {
    return Fail(status);
  }
  std::printf("wrote %s with %s weights\n", out.c_str(),
              WeightModelName(*model));
  return 0;
}

int CmdStats(const Flags& flags) {
  const std::string in = flags.Get("in", "");
  if (in.empty()) {
    return Fail(Status::InvalidArgument("stats requires --in=FILE"));
  }
  auto list = ReadEdgeListText(in);
  if (!list.ok()) {
    return Fail(list.status());
  }
  auto graph = BuildGraph(std::move(list).value());
  if (!graph.ok()) {
    return Fail(graph.status());
  }
  std::printf("%s\n", ComputeGraphStats(*graph).ToString().c_str());
  return 0;
}

int CmdRun(const Flags& flags) {
  const std::string in = flags.Get("in", "");
  if (in.empty()) {
    return Fail(Status::InvalidArgument("run requires --in=FILE"));
  }
  auto list = ReadEdgeListText(in);
  if (!list.ok()) {
    return Fail(list.status());
  }
  auto graph = BuildGraph(std::move(list).value());
  if (!graph.ok()) {
    return Fail(graph.status());
  }

  const auto algorithm = MakeImAlgorithm(flags.Get("algo", "opim-c"));
  if (!algorithm.ok()) {
    return Fail(algorithm.status());
  }
  const auto generator = ParseGeneratorKind(flags.Get("generator", "subsim"));
  if (!generator.ok()) {
    return Fail(generator.status());
  }
  // Kernel choice never changes the selected seeds (streams are
  // byte-identical); the flag exists for A/B timing against the scalar
  // reference path.
  const auto kernel = ParseFillKernel(flags.Get("kernel", "auto"));
  if (!kernel.ok()) {
    return Fail(kernel.status());
  }
  // Storage encoding never changes the selected seeds either — delta just
  // shrinks the resident arena (docs/memory.md).
  const auto encoding = ParseRrEncoding(flags.Get("rr-encoding", "raw"));
  if (!encoding.ok()) {
    return Fail(encoding.status());
  }
  ImOptions options;
  const auto k = flags.GetUint("k", 50);
  const auto eps = flags.GetDouble("eps", 0.1);
  const auto seed = flags.GetUint("seed", 1);
  // 0 = one fill worker per hardware thread. The sample stream is
  // thread-count invariant, so any value selects the same seeds.
  const auto threads = flags.GetUint("threads", 0);
  if (!k.ok() || !eps.ok() || !seed.ok() || !threads.ok()) {
    return Fail(!k.ok() ? k.status()
                        : !eps.ok() ? eps.status()
                                    : !seed.ok() ? seed.status()
                                                 : threads.status());
  }
  options.k = static_cast<std::uint32_t>(*k);
  options.epsilon = *eps;
  options.rng_seed = *seed;
  options.generator = *generator;
  options.num_threads = static_cast<unsigned>(*threads);
  options.fill_kernel = *kernel;
  options.rr_encoding = *encoding;

  // Observability is opt-in: without --metrics-json the run carries no
  // registry and the instrumentation handles stay no-ops.
  const std::string metrics_path = flags.Get("metrics-json", "");
  MetricsRegistry metrics;
  PhaseTracer tracer(/*max_spans=*/4096);
  if (!metrics_path.empty()) {
    options.obs = ObsContext{&metrics, &tracer};
  }

  const auto result = (*algorithm)->Run(*graph, options);
  if (!result.ok()) {
    return Fail(result.status());
  }

  if (!metrics_path.empty()) {
    const std::string json = ObsJson(metrics.Snapshot(), &tracer);
    std::FILE* out = std::fopen(metrics_path.c_str(), "w");
    if (out == nullptr) {
      return Fail(Status::IoError("cannot open " + metrics_path));
    }
    // Buffered writes fail late (a full disk surfaces at fclose), so both
    // results count.
    const bool wrote = std::fputs(json.c_str(), out) >= 0;
    if (std::fclose(out) != 0 || !wrote) {
      return Fail(Status::IoError("cannot write " + metrics_path));
    }
    std::printf("metrics: %s\n", metrics_path.c_str());
  }

  std::printf("seeds:");
  for (NodeId v : result->seeds) {
    std::printf(" %u", v);
  }
  std::printf("\ntime: %s   rr_sets: %llu   avg_rr_size: %.1f\n",
              HumanSeconds(result->seconds).c_str(),
              static_cast<unsigned long long>(result->num_rr_sets),
              result->average_rr_size());
  if (result->optimal_upper_bound > 0.0) {
    std::printf("certified: I(S) >= %.1f, OPT <= %.1f (ratio %.3f)\n",
                result->influence_lower_bound, result->optimal_upper_bound,
                result->approx_ratio);
  }
  if (result->sentinel_size > 0) {
    std::printf("sentinels: %u (phase1 %llu RR sets, phase2 %llu)\n",
                result->sentinel_size,
                static_cast<unsigned long long>(result->phase1_rr_sets),
                static_cast<unsigned long long>(result->phase2_rr_sets));
  }

  if (flags.Has("evaluate")) {
    const std::string sims_text = flags.Get("evaluate", "10000");
    std::uint64_t sims = 10000;
    if (sims_text != "true" && !ParseUint64(sims_text, &sims)) {
      return Fail(Status::InvalidArgument("--evaluate expects a count"));
    }
    const CascadeModel model = *generator == GeneratorKind::kLt
                                   ? CascadeModel::kLinearThreshold
                                   : CascadeModel::kIndependentCascade;
    SpreadEstimator estimator(*graph, model);
    Rng rng(*seed + 1);
    const SpreadEstimate estimate =
        estimator.Estimate(result->seeds, sims, rng);
    std::printf("monte-carlo spread (%llu sims, %s): %.1f +- %.1f\n",
                static_cast<unsigned long long>(sims),
                CascadeModelName(model), estimate.spread,
                2.0 * estimate.std_error);
  }
  return 0;
}

int CmdCalibrate(const Flags& flags) {
  const std::string in = flags.Get("in", "");
  if (in.empty()) {
    return Fail(Status::InvalidArgument("calibrate requires --in=FILE"));
  }
  const auto list = ReadEdgeListText(in);
  if (!list.ok()) {
    return Fail(list.status());
  }
  const auto target = flags.GetDouble("target", 1000.0);
  const auto seed = flags.GetUint("seed", 1);
  if (!target.ok() || !seed.ok()) {
    return Fail(!target.ok() ? target.status() : seed.status());
  }
  const std::string model = flags.Get("model", "wc-variant");
  Result<CalibrationResult> calibration =
      model == "uniform" ? CalibrateUniformP(*list, *target, *seed)
                         : CalibrateWcVariantTheta(*list, *target, *seed);
  if (!calibration.ok()) {
    return Fail(calibration.status());
  }
  std::printf("%s = %.6f  (achieved avg RR size %.1f%s)\n",
              model == "uniform" ? "p" : "theta", calibration->parameter,
              calibration->achieved_avg_size,
              calibration->saturated ? ", saturated" : "");
  return 0;
}


/// Reads one line (without the trailing newline); false on EOF.
bool ReadLine(std::FILE* stream, std::string* out) {
  out->clear();
  char buffer[4096];
  while (std::fgets(buffer, sizeof(buffer), stream) != nullptr) {
    out->append(buffer);
    if (!out->empty() && out->back() == '\n') {
      out->pop_back();
      if (!out->empty() && out->back() == '\r') {
        out->pop_back();
      }
      return true;
    }
  }
  return !out->empty();
}

/// Loads every repeatable --graph=NAME=FILE flag into the registry.
Status LoadGraphFlags(const Flags& flags, GraphRegistry* registry) {
  for (const std::string& spec : flags.GetAll("graph")) {
    const std::size_t eq = spec.find('=');
    if (eq == std::string::npos || eq == 0 || eq + 1 == spec.size()) {
      return Status::InvalidArgument("--graph expects NAME=FILE, got '" +
                                     spec + "'");
    }
    SUBSIM_RETURN_IF_ERROR(
        registry->LoadFromFile(spec.substr(0, eq), spec.substr(eq + 1)));
  }
  return Status::Ok();
}

/// The engine options `batch` and `serve` share; each sets `num_workers`
/// itself.
Result<QueryEngineOptions> EngineOptionsFromFlags(const Flags& flags) {
  QueryEngineOptions options;
  // Generation threads per query; results are identical for any value
  // (generation is thread-count invariant), so the default stays at 1 to
  // leave cores to the query-level workers.
  const auto threads = flags.GetUint("threads", 1);
  const auto cache_mb = flags.GetUint("cache-mb", 512);
  if (!threads.ok() || !cache_mb.ok()) {
    return !threads.ok() ? threads.status() : cache_mb.status();
  }
  options.num_threads = static_cast<unsigned>(*threads);
  options.cache.max_bytes = *cache_mb << 20;
  return options;
}

/// Reads a whole file ("-" = stdin) into `out`.
Status ReadWholeFile(const std::string& path, std::string* out) {
  out->clear();
  std::FILE* stream = stdin;
  if (path != "-") {
    stream = std::fopen(path.c_str(), "r");
    if (stream == nullptr) {
      return Status::IoError("cannot open " + path);
    }
  }
  char buffer[4096];
  std::size_t got = 0;
  while ((got = std::fread(buffer, 1, sizeof(buffer), stream)) > 0) {
    out->append(buffer, got);
  }
  if (stream != stdin) {
    std::fclose(stream);
  }
  return Status::Ok();
}

/// `update`: post a batch file to a running HTTP server.
int CmdUpdate(const Flags& flags) {
  const auto port = flags.GetUint("port", 0);
  if (!port.ok() || *port == 0 || *port > 65535) {
    return Fail(Status::InvalidArgument("update requires --port=P"));
  }
  const std::string in = flags.Get("in", "");
  if (in.empty()) {
    return Fail(Status::InvalidArgument("update requires --in=BATCH|-"));
  }
  std::string body;
  if (const Status status = ReadWholeFile(in, &body); !status.ok()) {
    return Fail(status);
  }
  // Parse locally first: a malformed batch fails fast with a line-accurate
  // error instead of a round trip.
  if (const auto parsed = ParseGraphUpdateRequest(body); !parsed.ok()) {
    return Fail(parsed.status());
  }
  HttpClient client(flags.Get("host", "127.0.0.1"),
                    static_cast<std::uint16_t>(*port));
  const Result<HttpClientResponse> response =
      client.Post("/v1/update_graph", body);
  if (!response.ok()) {
    return Fail(response.status());
  }
  std::printf("%s", response->body.c_str());
  if (!response->body.empty() && response->body.back() != '\n') {
    std::printf("\n");
  }
  return response->status_code == 200 ? 0 : 1;
}

int CmdBatch(const Flags& flags) {
  GraphRegistry registry;
  if (const Status status = LoadGraphFlags(flags, &registry); !status.ok()) {
    return Fail(status);
  }
  if (registry.Names().empty()) {
    return Fail(Status::InvalidArgument(
        "batch requires at least one --graph=NAME=FILE"));
  }
  auto engine_options = EngineOptionsFromFlags(flags);
  const auto workers = flags.GetUint("workers", 0);
  if (!engine_options.ok() || !workers.ok()) {
    return Fail(!engine_options.ok() ? engine_options.status()
                                     : workers.status());
  }
  engine_options->num_workers = static_cast<unsigned>(*workers);
  QueryEngine engine(&registry, *engine_options);

  const std::string in = flags.Get("in", "-");
  std::FILE* stream = stdin;
  if (in != "-") {
    stream = std::fopen(in.c_str(), "r");
    if (stream == nullptr) {
      return Fail(Status::IoError("cannot open " + in));
    }
  }

  // Submit everything up front so queries overlap on the pool, then print
  // responses in input order.
  std::vector<std::future<QueryResponse>> futures;
  std::string line;
  while (ReadLine(stream, &line)) {
    const std::string_view text = StripWhitespace(line);
    if (text.empty() || text.front() == '#') {
      continue;
    }
    Result<SelectSeedsQuery> query = ParseSelectSeedsQuery(text);
    if (!query.ok()) {
      std::promise<QueryResponse> failed;
      QueryResponse response;
      response.status = query.status();
      failed.set_value(std::move(response));
      futures.push_back(failed.get_future());
      continue;
    }
    futures.push_back(engine.Submit(std::move(*query)));
  }
  if (stream != stdin) {
    std::fclose(stream);
  }

  for (std::future<QueryResponse>& future : futures) {
    const QueryResponse response = future.get();
    std::printf("%s\n", FormatQueryResponseJson(response).c_str());
  }
  std::fprintf(stderr, "batch: %zu queries  %s\n", futures.size(),
               engine.CacheStatsJson().c_str());
  return 0;
}

/// Set by the SIGINT/SIGTERM handler; the serve loop polls it.
std::atomic<bool> g_serve_stop{false};

extern "C" void ServeSignalHandler(int) { g_serve_stop.store(true); }

/// `serve`: the HTTP/1.1 front end. Blocks until SIGINT/SIGTERM, then
/// stops the server (draining in-flight requests) before the engine and
/// registry unwind.
int CmdServe(const Flags& flags) {
  GraphRegistry registry;
  if (const Status status = LoadGraphFlags(flags, &registry); !status.ok()) {
    return Fail(status);
  }
  if (registry.Names().empty()) {
    return Fail(Status::InvalidArgument(
        "serve requires at least one --graph=NAME=FILE"));
  }
  auto engine_options = EngineOptionsFromFlags(flags);
  const auto port = flags.GetUint("port", 0);
  const auto http_workers = flags.GetUint("http-workers", 0);
  const auto max_pending = flags.GetUint("max-pending", 128);
  if (!engine_options.ok() || !port.ok() || !http_workers.ok() ||
      !max_pending.ok()) {
    return Fail(!engine_options.ok() ? engine_options.status()
                : !port.ok()         ? port.status()
                : !http_workers.ok() ? http_workers.status()
                                     : max_pending.status());
  }
  if (*port > 65535) {
    return Fail(Status::InvalidArgument("--port must be <= 65535"));
  }
  // Handlers call `QueryEngine::Execute` on the HTTP workers, so the
  // engine's own pool never gets a job; keep it at one idle thread.
  engine_options->num_workers = 1;
  QueryEngine engine(&registry, *engine_options);

  ServeApp app(&engine);
  HttpServer::Options options;
  options.bind_address = flags.Get("bind", "127.0.0.1");
  options.port = static_cast<std::uint16_t>(*port);
  options.num_workers = static_cast<unsigned>(*http_workers);
  options.max_pending = static_cast<std::size_t>(*max_pending);
  options.metrics = &engine.metrics();
  HttpServer server(
      [&app](const HttpRequest& request, const HttpRequestContext& context) {
        return app.Handle(request, context);
      },
      options);
  if (const Status status = server.Start(); !status.ok()) {
    return Fail(status);
  }

  // One machine-readable line on stdout so scripts can discover the
  // ephemeral port when started with --port=0.
  std::printf("{\"listening\":true,\"port\":%u}\n",
              static_cast<unsigned>(server.port()));
  std::fflush(stdout);

  g_serve_stop.store(false);
  std::signal(SIGINT, ServeSignalHandler);
  std::signal(SIGTERM, ServeSignalHandler);
  while (!g_serve_stop.load()) {
    std::this_thread::sleep_for(std::chrono::milliseconds(50));
  }
  std::fprintf(stderr, "subsim serve: shutting down\n");
  server.Stop();
  return 0;
}

int Usage() {
  std::fprintf(
      stderr,
      "usage: subsim_cli "
      "<generate|weight|stats|run|calibrate|batch|serve|update> [--flags]\n"
      "  batch   run a file of query lines on a worker pool\n"
      "  serve   HTTP front end; prints {\"listening\":true,\"port\":N}\n"
      "  update  post an edge-update batch to a running serve\n"
      "  see the header comment of tools/subsim_cli.cc for every flag\n");
  return 2;
}

int Main(int argc, char** argv) {
  if (argc < 2) {
    return Usage();
  }
  const std::string command = argv[1];
  const auto flags = Flags::Parse(argc, argv, 2);
  if (!flags.ok()) {
    return Fail(flags.status());
  }
  // Each subcommand with the flags it reads (the header comment's list).
  const auto dispatch = [&flags](int (*run)(const Flags&),
                                 std::initializer_list<std::string_view>
                                     known) {
    if (const Status status = flags->CheckKnown(known); !status.ok()) {
      return Fail(status);
    }
    return run(*flags);
  };
  if (command == "generate") {
    return dispatch(CmdGenerate,
                    {"type", "nodes", "degree", "undirected", "seed", "out"});
  }
  if (command == "weight") {
    return dispatch(CmdWeight, {"in", "model", "p", "theta", "seed", "out"});
  }
  if (command == "stats") return dispatch(CmdStats, {"in"});
  if (command == "run") {
    return dispatch(CmdRun, {"in", "algo", "k", "eps", "generator", "seed",
                             "threads", "kernel", "rr-encoding", "evaluate",
                             "metrics-json"});
  }
  if (command == "calibrate") {
    return dispatch(CmdCalibrate, {"in", "model", "target", "seed"});
  }
  if (command == "batch") {
    return dispatch(CmdBatch,
                    {"graph", "in", "workers", "threads", "cache-mb"});
  }
  if (command == "serve") {
    return dispatch(CmdServe, {"graph", "threads", "cache-mb", "port", "bind",
                               "http-workers", "max-pending"});
  }
  if (command == "update") return dispatch(CmdUpdate, {"port", "host", "in"});
  return Usage();
}

}  // namespace
}  // namespace subsim

int main(int argc, char** argv) { return subsim::Main(argc, argv); }
