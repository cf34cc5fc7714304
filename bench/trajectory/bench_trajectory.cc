// bench_trajectory: the benchmark every performance change is judged by.
//
//   bench_trajectory --workload=NAME --seed=S [--seconds=T] [--trace=0|1]
//                    [--out=FILE]
//   bench_trajectory --smoke
//
// One workload per process, so peak_rss_mb belongs to that workload. The
// graphs and the server's cached entries are fixed (graph seed 7); --seed
// derives every solve's rng_seed and the serve traffic schedule, so a claim
// can be rechecked on a seed nobody tuned against. Every configuration uses
// the library defaults (FillKernel::kAuto, raw encoding, exact coverage,
// one fill thread), so deleting a knob later never edits this file.
//
// The untraced run (--trace=0) reports the end-to-end metrics; the traced
// run (--trace=1) replays the same work with spans around each library
// call and reports the per-layer metrics. Every answer is checked. The
// last stdout line is one JSON object:
//   {"correct":..,"attempted":..,"failed":..,"metrics":{name:{value,unit}}}
// and the exit status is non-zero when any check failed. --out=FILE also
// writes that object with the run's workload, seed and detail lines (per
// class sample counts and timings as measured), and the traced run writes
// its spans to FILE.spans.jsonl.
//
// --smoke runs all four workloads at tiny sizes, untraced and traced, with
// every check and the replay-equality check, in about ten seconds.
//
// README.md in this directory explains why each workload exists and which
// end-to-end metric each per-layer metric should move.

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <utility>
#include <vector>
#ifdef __GLIBC__  // defined by the headers above
#include <malloc.h>
#endif

#include "replay.h"
#include "serve_load.h"
#include "span_log.h"
#include "speed_probe.h"
#include "subsim/algo/hist.h"
#include "subsim/algo/opim_c.h"
#include "subsim/benchsup/experiment.h"
#include "subsim/coverage/max_coverage.h"
#include "subsim/graph/generators.h"
#include "subsim/graph/graph_builder.h"
#include "subsim/graph/graph_update.h"
#include "subsim/graph/weight_models.h"
#include "subsim/net/http.h"
#include "subsim/obs/metrics.h"
#include "subsim/random/rng.h"
#include "subsim/rrset/parallel_fill.h"
#include "subsim/rrset/sample_store.h"
#include "subsim/util/math.h"
#include "subsim/util/resource.h"
#include "subsim/util/string_util.h"

namespace trajectory {
namespace {

using Clock = std::chrono::steady_clock;
using subsim::GeneratorKind;
using subsim::Graph;
using subsim::ImOptions;
using subsim::ImResult;
using subsim::NodeId;
using subsim::Result;
using subsim::WeightModel;

constexpr std::uint64_t kGraphSeed = 7;
constexpr int kSetupRepeats = 5;

// ---------------------------------------------------------------------------
// Statistics and reporting.

double SecondsSince(Clock::time_point start) {
  return std::chrono::duration<double>(Clock::now() - start).count();
}

/// Linearly interpolated quantile (the "type 7" estimator), so a p90 of
/// few samples is not simply their maximum.
double Quantile(std::vector<double> values, double q) {
  if (values.empty()) {
    return 0.0;
  }
  std::sort(values.begin(), values.end());
  const double position = q * static_cast<double>(values.size() - 1);
  const std::size_t lo = static_cast<std::size_t>(position);
  const std::size_t hi = std::min(lo + 1, values.size() - 1);
  return values[lo] +
         (position - static_cast<double>(lo)) * (values[hi] - values[lo]);
}

double Median(std::vector<double> values) {
  return Quantile(std::move(values), 0.5);
}

double GeoMean(const std::vector<double>& values) {
  double log_sum = 0.0;
  for (const double value : values) {
    log_sum += std::log(value);
  }
  return values.empty() ? 0.0
                        : std::exp(log_sum / static_cast<double>(values.size()));
}

double Ratio(double numerator, double denominator) {
  return denominator > 0.0 ? numerator / denominator : 0.0;
}

/// The process's peak resident set without the speed probe's `probe_bytes`,
/// which are resident from before set-up to exit (speed_probe.h).
double PeakRssMb(std::size_t probe_bytes) {
  return static_cast<double>(subsim::PeakRssBytes() - probe_bytes) /
         (1024.0 * 1024.0);
}

std::string Format(const char* fmt, double a, double b = 0.0,
                   double c = 0.0) {
  char buf[160];
  std::snprintf(buf, sizeof(buf), fmt, a, b, c);
  return buf;
}

struct MetricDef {
  const char* name;
  const char* unit;
};

/// The end-to-end metrics, reported by every untraced run. Times are scaled
/// to the nominal host speed (speed_probe.h). A solve workload's latency is
/// the geometric mean of its (graph, k) classes' medians, so no median sits
/// on the boundary between two classes; serve-mixed's is the median read,
/// timed from its due time.
constexpr MetricDef kEndToEnd[] = {
    {"setup_s", "s"},
    {"ops_per_s", "1/s"},
    {"latency_ms_p50", "ms"},
    {"peak_rss_mb", "MB"},
};

/// The per-layer metrics, reported by every traced run (README.md maps each
/// to the end-to-end metric it should move). Counts come from the first
/// cycle of the schedule only, so they repeat exactly for a seed. A metric
/// a workload never exercises (no HIST solve, no update) reads 0.
constexpr MetricDef kPerLayer[] = {
    {"graph.build_s", "s"},
    {"graph.update_apply_ms", "ms"},
    {"rrset.fill_ms_per_solve", "ms"},
    {"rrset.sets_per_s", "1/s"},
    {"rrset.sets_per_solve", "count"},
    {"rrset.avg_set_size", "count"},
    {"rrset.edges_per_set", "count"},
    {"rrset.sentinel_hit_ratio", "ratio"},
    {"rrset.store_mb", "MB"},
    {"rrset.repair_ms", "ms"},
    {"coverage.greedy_ms_per_solve", "ms"},
    {"coverage.greedy_calls_per_solve", "count"},
    {"coverage.greedy_ms_per_call", "ms"},
    {"coverage.validate_ms_per_solve", "ms"},
    {"coverage.bound_ms_per_solve", "ms"},
    {"algo.rounds_per_solve", "count"},
    {"algo.self_ms_per_solve", "ms"},
    {"hist.sentinel_phase_ms_per_solve", "ms"},
    {"hist.phase2_ms_per_solve", "ms"},
    {"hist.sentinel_size", "count"},
    {"hist.phase1_sets", "count"},
    {"hist.phase2_sets", "count"},
    {"serve.read_ms_p90", "ms"},
    {"serve.update_ms_p50", "ms"},
    {"serve.exec_ms_p50", "ms"},
    {"serve.exec_ms_p99", "ms"},
    {"serve.warm_exec_ms_p50", "ms"},
    {"serve.hist_exec_ms_p50", "ms"},
    {"serve.queue_ms_p99", "ms"},
    {"serve.cache_hit_ratio", "ratio"},
    {"serve.sets_reused_ratio", "ratio"},
    {"serve.repair_ms_p50", "ms"},
    {"serve.sets_repaired_ratio", "ratio"},
    {"net.overhead_ms_p50", "ms"},
    {"net.parse_us_per_req", "us"},
    {"net.shed_ratio", "ratio"},
    {"trace.overhead_ratio", "ratio"},
    {"trace.attributed_share", "ratio"},
};

/// Collects checks, metrics and per-class detail for one run.
class Report {
 public:
  /// One operation (solve, request) or standalone check; `error` empty
  /// means it passed.
  void Attempt(const std::string& error) {
    ++attempted_;
    if (!error.empty()) {
      ++failed_;
      if (failed_ <= 20) {
        std::fprintf(stderr, "check failed: %s\n", error.c_str());
      }
    }
  }

  void Set(const std::string& name, double value) { values_[name] = value; }

  /// A line of detail: printed, and kept in the --out file.
  void Detail(const std::string& line) {
    std::printf("  %s\n", line.c_str());
    details_.push_back(line);
  }

  bool ok() const { return failed_ == 0; }

  /// Prints each metric with its unit, then the result object as the last
  /// stdout line; writes it, after the `run` fields (workload, seed, ...)
  /// and before the detail lines, to `out_path` if set.
  void Finish(bool trace, const std::string& run, const std::string& out_path) {
    std::string metrics;
    for (const MetricDef& def : trace ? std::span<const MetricDef>(kPerLayer)
                                      : std::span<const MetricDef>(kEndToEnd)) {
      const auto it = values_.find(def.name);
      if (it == values_.end() || !std::isfinite(it->second)) {
        Attempt(std::string("metric not measured: ") + def.name);
        continue;
      }
      std::printf("%-34s %.6g %s\n", def.name, it->second, def.unit);
      char buf[96];
      std::snprintf(buf, sizeof(buf), "%.17g", it->second);
      metrics += std::string(metrics.empty() ? "" : ", ") + "\"" + def.name +
                 "\": {\"value\": " + buf + ", \"unit\": \"" + def.unit +
                 "\"}";
    }
    const std::string result =
        std::string("{\"correct\": ") + (ok() ? "true" : "false") +
        ", \"attempted\": " + std::to_string(attempted_) +
        ", \"failed\": " + std::to_string(failed_) + ", \"metrics\": {" +
        metrics + "}}";
    if (!out_path.empty()) {
      if (std::FILE* out = std::fopen(out_path.c_str(), "w")) {
        std::fprintf(out, "{%s, \"result\": %s, \"detail\": [", run.c_str(),
                     result.c_str());
        for (std::size_t i = 0; i < details_.size(); ++i) {
          std::fprintf(out, "%s\"%s\"", i == 0 ? "" : ", ",
                       details_[i].c_str());
        }
        std::fprintf(out, "]}\n");
        std::fclose(out);
      } else {
        std::fprintf(stderr, "cannot write %s\n", out_path.c_str());
      }
    }
    std::printf("%s\n", result.c_str());
    std::fflush(stdout);
  }

 private:
  std::uint64_t attempted_ = 0;
  std::uint64_t failed_ = 0;
  std::map<std::string, double> values_;
  std::vector<std::string> details_;
};

// ---------------------------------------------------------------------------
// Inputs.

struct GraphSpec {
  /// Dataset stand-in name, or "ba" for the Barabási–Albert graph.
  std::string dataset;
  double scale = 1.0;
  WeightModel model = WeightModel::kWeightedCascade;
  double wc_variant_theta = 1.0;
  NodeId ba_nodes = 0;
};

/// One kind of solve in a workload's cycle.
struct JobClass {
  std::size_t graph = 0;
  bool hist = false;
  GeneratorKind generator = GeneratorKind::kSubsimIc;
  std::uint32_t k = 50;
  double epsilon = 0.1;
};

Result<Graph> BuildSpecGraph(const GraphSpec& spec) {
  if (spec.dataset != "ba") {
    subsim::WeightModelParams params;
    params.wc_variant_theta = spec.wc_variant_theta;
    return subsim::BuildDatasetGraph(spec.dataset, spec.scale, kGraphSeed,
                                     spec.model, params);
  }
  Result<subsim::EdgeList> edges =
      subsim::GenerateBarabasiAlbert(spec.ba_nodes, 10, false, 5);
  if (!edges.ok()) {
    return edges.status();
  }
  SUBSIM_RETURN_IF_ERROR(
      subsim::AssignWeights(spec.model, {}, &edges.value()));
  return subsim::BuildGraph(std::move(edges).value());
}

/// Builds `specs` kSetupRepeats times (dropping the previous copy first, so
/// memory holds one copy) and keeps the last; `seconds` gets each time, and
/// `probe_ms` a `speed` sample before each build and after the last.
Result<std::vector<Graph>> BuildRepeatedly(const std::vector<GraphSpec>& specs,
                                           StreamProbe* speed,
                                           std::vector<double>* seconds,
                                           std::vector<double>* probe_ms) {
  std::vector<Graph> graphs;
  for (int r = 0; r < kSetupRepeats; ++r) {
    graphs.clear();
    probe_ms->push_back(speed->Sample());
    const Clock::time_point start = Clock::now();
    for (const GraphSpec& spec : specs) {
      Result<Graph> graph = BuildSpecGraph(spec);
      if (!graph.ok()) {
        return graph.status();
      }
      graphs.push_back(std::move(graph).value());
    }
    seconds->push_back(SecondsSince(start));
  }
  probe_ms->push_back(speed->Sample());
  return graphs;
}

ImOptions SolveOptions(const JobClass& job, std::uint64_t rng_seed) {
  ImOptions options;
  options.k = job.k;
  options.epsilon = job.epsilon;
  options.generator = job.generator;
  options.rng_seed = rng_seed;
  return options;
}

std::string QueryLine(const JobClass& job, std::uint64_t rng_seed) {
  return std::string("graph=") + kServeGraph +
         " algo=" + (job.hist ? "hist" : "opim-c") +
         " k=" + std::to_string(job.k) + " eps=" + Format("%g", job.epsilon) +
         " seed=" + std::to_string(rng_seed) +
         " generator=" + subsim::GeneratorKindName(job.generator);
}

std::string ClassLabel(const GraphSpec& graph, const JobClass& job) {
  return graph.dataset + "/" + (job.hist ? "hist" : "opim-c") + "/" +
         subsim::GeneratorKindName(job.generator) +
         "/k=" + std::to_string(job.k);
}

/// Empty when `seeds` are k distinct in-range nodes.
std::string CheckSeeds(const std::vector<NodeId>& seeds, std::uint32_t k,
                       NodeId n) {
  if (seeds.size() != k) {
    return "expected " + std::to_string(k) + " seeds, got " +
           std::to_string(seeds.size());
  }
  std::vector<NodeId> sorted = seeds;
  std::sort(sorted.begin(), sorted.end());
  if (std::adjacent_find(sorted.begin(), sorted.end()) != sorted.end()) {
    return "duplicate seeds";
  }
  if (!sorted.empty() && sorted.back() >= n) {
    return "seed out of range";
  }
  return "";
}

/// Structural and certificate checks on one solve.
std::string CheckSolve(const Result<ImResult>& result, const JobClass& job,
                       const Graph& graph) {
  if (!result.ok()) {
    return result.status().ToString();
  }
  std::string error = CheckSeeds(result->seeds, job.k, graph.num_nodes());
  if (!error.empty()) {
    return error;
  }
  // A HIST solve whose sentinel phase already picked all k seeds carries
  // the phase-1 guarantee and reports no bounds.
  const bool certified = !(job.hist && result->sentinel_size >= job.k);
  if (certified &&
      !(result->influence_lower_bound > 0.0 &&
        result->influence_lower_bound <= result->optimal_upper_bound &&
        result->approx_ratio >= subsim::kOneMinusInvE - job.epsilon)) {
    return "approximation ratio not certified";
  }
  if (result->num_rr_sets == 0) {
    return "no RR sets counted";
  }
  return "";
}

/// Independent check of a certified lower bound L on the seeds' spread.
/// The number of fresh RR sets (from a stream no solve uses) the seeds
/// cover is Binomial(N, spread / n), so it must not fall more than four
/// standard deviations below L * N / n. N is chosen so that mean is about
/// 400 sets, which catches a bound more than ~20% too high.
std::string CheckSpread(const ImResult& result, const JobClass& job,
                        const Graph& graph, std::uint64_t stream_seed,
                        std::size_t min_sets) {
  const double n = graph.num_nodes();
  const double lower = result.influence_lower_bound;
  if (lower <= 0.0) {
    return "";  // nothing certified (a HIST sentinel set of k seeds)
  }
  const std::size_t num_sets = static_cast<std::size_t>(std::clamp(
      400.0 * n / lower, static_cast<double>(min_sets), 2e6));
  subsim::RrCollection sample(graph.num_nodes());
  subsim::RngStream rng = subsim::MakeRngStream(stream_seed, 9);
  subsim::FillRequest request;
  request.kind = job.generator;
  request.graph = &graph;
  request.rng = &rng;
  request.count = num_sets;
  const subsim::Status status = subsim::FillCollection(request, &sample);
  if (!status.ok()) {
    return status.ToString();
  }
  const double covered = static_cast<double>(
      subsim::ComputeCoverage(sample, result.seeds));
  const double expected = lower * static_cast<double>(num_sets) / n;
  if (covered < expected - 4.0 * std::sqrt(expected)) {
    return "seeds cover " + Format("%.0f", covered) + " of " +
           Format("%.0f", static_cast<double>(num_sets)) +
           " fresh RR sets; the certified lower bound " +
           Format("%.1f", lower) + " implies about " +
           Format("%.0f", expected);
  }
  return "";
}

/// Average size of `count` untruncated SUBSIM RR sets drawn on `graph`.
double SampleAverageRrSize(const Graph& graph, std::size_t count) {
  subsim::RrCollection sample(graph.num_nodes());
  subsim::RngStream rng = subsim::MakeRngStream(kGraphSeed, 11);
  subsim::FillRequest request;
  request.kind = GeneratorKind::kSubsimIc;
  request.graph = &graph;
  request.rng = &rng;
  request.count = count;
  const subsim::Status status = subsim::FillCollection(request, &sample);
  return status.ok() ? sample.average_size() : 0.0;
}

// ---------------------------------------------------------------------------
// Per-layer bookkeeping shared by the traced solve and serve runs.

/// Span totals over the solves with op ids in [op_begin, op_end).
struct LayerTotals {
  double solve_s = 0.0;
  double fill_s = 0.0;
  double attributed_s = 0.0;  // every rrset.* and coverage.* span
  double greedy_s = 0.0;
  double validate_s = 0.0;
  double bound_s = 0.0;
  double sentinel_s = 0.0;
  double phase2_s = 0.0;
  double greedy_calls = 0.0;
  double rounds = 0.0;
  double solves = 0.0;
};

LayerTotals Totals(const SpanLog& log, std::uint64_t op_begin,
                   std::uint64_t op_end) {
  LayerTotals totals;
  for (const Span& span : log.spans()) {
    if (span.op < op_begin || span.op >= op_end) {
      continue;
    }
    const double s = span.seconds();
    if (span.name == "algo.solve") {
      totals.solve_s += s;
      totals.solves += 1;
    } else if (span.name == "algo.round") {
      totals.rounds += 1;
    } else if (span.name == "algo.hist.sentinel_phase") {
      totals.sentinel_s += s;
    } else if (span.name == "algo.hist.phase2") {
      totals.phase2_s += s;
    }
    if (span.name.rfind("rrset.", 0) == 0 ||
        span.name.rfind("coverage.", 0) == 0) {
      totals.attributed_s += s;
    }
    if (span.name == "rrset.fill") {
      totals.fill_s += s;
    } else if (span.name == "coverage.greedy") {
      totals.greedy_s += s;
      totals.greedy_calls += 1;
    } else if (span.name == "coverage.validate") {
      totals.validate_s += s;
    } else if (span.name == "coverage.bound") {
      totals.bound_s += s;
    }
  }
  return totals;
}

/// Traced-solve state: spans, rr.* counters, and the replay-vs-Run check.
/// A replay that differs from `ImAlgorithm::Run` leaves the trace
/// unattributed (trace.attributed_share reads 0): the splits would describe
/// some other computation. With `strict`, it is also a failed check.
class SolveTracer {
 public:
  SolveTracer(Report* report, bool strict)
      : report_(report), strict_(strict) {}

  /// Runs `job` untraced through `ImAlgorithm::Run` (timed), then replays
  /// it with spans, and compares the two bit for bit. `store` (may be
  /// null) is a warm OPIM-C store to run both against instead of a fresh
  /// one. Returns the untraced result.
  Result<ImResult> Solve(const JobClass& job, const Graph& graph,
                         const ImOptions& options, subsim::SampleStore* store) {
    const std::uint64_t op = next_op_++;
    const Clock::time_point start = Clock::now();
    Result<ImResult> plain =
        store != nullptr ? opim_.RunWithStore(graph, options, store)
        : job.hist       ? hist_.Run(graph, options)
                         : opim_.Run(graph, options);
    plain_s_ += SecondsSince(start);

    ImOptions traced_options = options;
    traced_options.obs.metrics = &metrics_;
    std::uint64_t rr_bytes = 0;
    Result<ImResult> traced =
        Replay(job, graph, traced_options, store, op, &rr_bytes);
    store_bytes_.push_back(static_cast<double>(rr_bytes));
    if (plain.ok() && job.hist) {
      sentinel_size_ += plain->sentinel_size;
      phase1_sets_ += static_cast<double>(plain->phase1_rr_sets);
      phase2_sets_ += static_cast<double>(plain->phase2_rr_sets);
    }
    if (!plain.ok() || !traced.ok() || !SameResult(*plain, *traced)) {
      ++mismatches_;
      if (strict_) {
        report_->Attempt("traced replay differs from ImAlgorithm::Run");
      }
    }
    return plain;
  }

  /// Ends the fixed first cycle: counts are taken over the solves so far.
  void MarkFirstCycle() {
    first_cycle_ops_ = next_op_;
    first_cycle_counters_ = metrics_.Snapshot().counters;
    first_cycle_hist_ = {sentinel_size_, phase1_sets_, phase2_sets_};
  }

  /// Sets every solve-layer and trace metric.
  void Publish() const {
    const LayerTotals all = Totals(log_, 0, next_op_);
    const LayerTotals first = Totals(log_, 0, first_cycle_ops_);
    const auto counter = [](const std::map<std::string, std::uint64_t>& map,
                            const char* name) {
      const auto it = map.find(name);
      return it == map.end() ? 0.0 : static_cast<double>(it->second);
    };
    const std::map<std::string, std::uint64_t> all_counters =
        metrics_.Snapshot().counters;
    const double first_sets = counter(first_cycle_counters_, "rr.sets_generated");
    const double per_solve = 1000.0 / std::max(all.solves, 1.0);

    report_->Set("rrset.fill_ms_per_solve", all.fill_s * per_solve);
    report_->Set("rrset.sets_per_s",
                Ratio(counter(all_counters, "rr.sets_generated"), all.fill_s));
    report_->Set("rrset.sets_per_solve", Ratio(first_sets, first.solves));
    report_->Set("rrset.avg_set_size",
                Ratio(counter(first_cycle_counters_, "rr.nodes_added"),
                      first_sets));
    report_->Set("rrset.edges_per_set",
                Ratio(counter(first_cycle_counters_, "rr.edges_examined"),
                      first_sets));
    report_->Set("rrset.sentinel_hit_ratio",
                Ratio(counter(first_cycle_counters_, "rr.sentinel_hits"),
                      first_sets));
    report_->Set("rrset.store_mb", Median(store_bytes_) / (1024.0 * 1024.0));
    report_->Set("coverage.greedy_ms_per_solve", all.greedy_s * per_solve);
    report_->Set("coverage.greedy_calls_per_solve",
                Ratio(first.greedy_calls, first.solves));
    report_->Set("coverage.greedy_ms_per_call",
                1000.0 * Ratio(all.greedy_s, all.greedy_calls));
    report_->Set("coverage.validate_ms_per_solve", all.validate_s * per_solve);
    report_->Set("coverage.bound_ms_per_solve", all.bound_s * per_solve);
    report_->Set("algo.rounds_per_solve", Ratio(first.rounds, first.solves));
    report_->Set("algo.self_ms_per_solve",
                (all.solve_s - all.attributed_s) * per_solve);
    report_->Set("hist.sentinel_phase_ms_per_solve", all.sentinel_s * per_solve);
    report_->Set("hist.phase2_ms_per_solve", all.phase2_s * per_solve);
    report_->Set("hist.sentinel_size", Ratio(first_cycle_hist_[0], first.solves));
    report_->Set("hist.phase1_sets", Ratio(first_cycle_hist_[1], first.solves));
    report_->Set("hist.phase2_sets", Ratio(first_cycle_hist_[2], first.solves));
    report_->Set("trace.overhead_ratio", Ratio(all.solve_s, plain_s_));
    report_->Set("trace.attributed_share",
                mismatches_ > 0 ? 0.0 : Ratio(all.attributed_s, all.solve_s));
    report_->Detail(Format("traced solves %.0f, first-cycle solves %.0f", all.solves,
                          first.solves));
    if (mismatches_ > 0) {
      report_->Detail(Format("replay differs from ImAlgorithm::Run on %.0f "
                            "solves: the splits are unattributed",
                            static_cast<double>(mismatches_)));
    }
  }

  bool WriteSpans(const std::string& path) const {
    return log_.WriteJsonLines(path);
  }

 private:
  Result<ImResult> Replay(const JobClass& job, const Graph& graph,
                          const ImOptions& options, subsim::SampleStore* store,
                          std::uint64_t op, std::uint64_t* rr_bytes) {
    const SpanScope solve(&log_, "algo.solve", op);
    if (job.hist) {
      return ReplayHist(graph, options, &log_, op, rr_bytes);
    }
    std::unique_ptr<subsim::SampleStore> owned;
    if (store == nullptr) {
      const SpanScope create(&log_, "rrset.store_create", op);
      Result<std::unique_ptr<subsim::SampleStore>> made =
          opim_.MakeSampleStore(graph, options);
      if (!made.ok()) {
        return made.status();
      }
      owned = std::move(made).value();
      store = owned.get();
    }
    Result<ImResult> result = ReplayOpimC(graph, options, store, &log_, op);
    *rr_bytes = store->ApproxMemoryBytes();
    if (owned != nullptr) {
      // `OpimC::Run` frees its store before returning, so this is solve
      // time too; on a large store it is a sizeable share.
      const SpanScope free_span(&log_, "rrset.store_free", op);
      owned.reset();
    }
    return result;
  }

  Report* report_;
  const bool strict_;
  const subsim::OpimC opim_;
  const subsim::Hist hist_;
  subsim::MetricsRegistry metrics_;
  SpanLog log_;
  std::uint64_t mismatches_ = 0;
  std::uint64_t next_op_ = 0;
  std::uint64_t first_cycle_ops_ = 0;
  double plain_s_ = 0.0;
  std::vector<double> store_bytes_;
  double sentinel_size_ = 0.0;
  double phase1_sets_ = 0.0;
  double phase2_sets_ = 0.0;
  std::map<std::string, std::uint64_t> first_cycle_counters_;
  std::vector<double> first_cycle_hist_{0.0, 0.0, 0.0};
};

/// What an `Exchange::cls` holds. serve-mixed sends the first three;
/// kColdRead is an OPIM-C query on an empty cache.
enum RequestClass { kWarmRead = 0, kHistRead = 1, kUpdate = 2, kColdRead = 3 };

/// serve.* and net.* layer figures from select_seeds / update_graph
/// exchanges.
class ServeLayer {
 public:
  void AddRead(const Exchange& exchange) {
    Count(exchange);
    if (exchange.status != 200) {
      return;
    }
    const std::string& body = exchange.body;
    const double exec_ms = JsonNumber(body, "exec_ms", 0.0);
    const double queue_ms = JsonNumber(body, "queue_ms", 0.0);
    exec_ms_.push_back(exec_ms);
    if (exchange.cls == kWarmRead) {
      warm_exec_ms_.push_back(exec_ms);
    } else if (exchange.cls == kHistRead) {
      hist_exec_ms_.push_back(exec_ms);
    }
    queue_ms_.push_back(queue_ms);
    overhead_ms_.push_back(exchange.done_ms - exchange.send_ms - queue_ms -
                           exec_ms);
    if (JsonTrue(body, "cache_eligible")) {
      ++eligible_;
      hits_ += JsonTrue(body, "cache_hit") ? 1 : 0;
    }
    const double reused = JsonNumber(body, "rr_sets_reused", 0.0);
    reused_ += reused;
    evaluated_ += reused + JsonNumber(body, "rr_sets_generated", 0.0);
  }

  void AddUpdate(const Exchange& exchange) {
    Count(exchange);
    if (exchange.status != 200) {
      return;
    }
    const double repaired = JsonNumber(exchange.body, "sets_repaired", 0.0);
    repaired_ += repaired;
    repair_total_ += repaired + JsonNumber(exchange.body, "sets_kept", 0.0);
    repair_ms_.push_back(JsonNumber(exchange.body, "repair_ms", 0.0));
  }

  void Publish(Report* report) const {
    report->Set("serve.exec_ms_p50", Median(exec_ms_));
    report->Set("serve.exec_ms_p99", Quantile(exec_ms_, 0.99));
    report->Set("serve.warm_exec_ms_p50", Median(warm_exec_ms_));
    report->Set("serve.hist_exec_ms_p50", Median(hist_exec_ms_));
    report->Set("serve.queue_ms_p99", Quantile(queue_ms_, 0.99));
    report->Set("serve.cache_hit_ratio", Ratio(hits_, eligible_));
    report->Set("serve.sets_reused_ratio", Ratio(reused_, evaluated_));
    report->Set("serve.repair_ms_p50", Median(repair_ms_));
    report->Set("serve.sets_repaired_ratio", Ratio(repaired_, repair_total_));
    report->Set("net.overhead_ms_p50", Median(overhead_ms_));
    report->Set("net.parse_us_per_req", ParseMicros());
    report->Set("net.shed_ratio", Ratio(shed_, requests_));
  }

 private:
  void Count(const Exchange& exchange) {
    ++requests_;
    shed_ += exchange.status == 429 ? 1 : 0;
    if (wire_.size() < 256) {
      wire_.push_back(PostBytes(exchange.cls == kUpdate ? "/v1/update_graph"
                                                        : "/v1/select_seeds",
                                exchange.request_body));
    }
  }

  /// Microseconds per request for `HttpRequestParser` over the recorded
  /// request bytes.
  double ParseMicros() const {
    if (wire_.empty()) {
      return 0.0;
    }
    const std::size_t reps = std::max<std::size_t>(1, 20000 / wire_.size());
    subsim::HttpRequestParser parser;
    std::size_t complete = 0;
    const Clock::time_point start = Clock::now();
    for (std::size_t r = 0; r < reps; ++r) {
      for (const std::string& bytes : wire_) {
        parser.Reset();
        complete += parser.Consume(bytes) ==
                            subsim::HttpRequestParser::State::kComplete
                        ? 1
                        : 0;
      }
    }
    const double us = SecondsSince(start) * 1e6;
    return complete == reps * wire_.size()
               ? us / static_cast<double>(complete)
               : std::nan("");
  }

  std::vector<double> exec_ms_;
  std::vector<double> warm_exec_ms_;
  std::vector<double> hist_exec_ms_;
  std::vector<double> queue_ms_;
  std::vector<double> overhead_ms_;
  std::vector<double> repair_ms_;
  double eligible_ = 0.0;
  double hits_ = 0.0;
  double reused_ = 0.0;
  double evaluated_ = 0.0;
  double repaired_ = 0.0;
  double repair_total_ = 0.0;
  double shed_ = 0.0;
  double requests_ = 0.0;
  std::vector<std::string> wire_;
};

void Post(subsim::HttpClient& client, const char* target,
          const std::string& body, Exchange* exchange) {
  exchange->request_body = body;
  const Result<subsim::HttpClientResponse> response =
      client.Post(target, body);
  exchange->transport_ok = response.ok();
  if (response.ok()) {
    exchange->status = response->status_code;
    exchange->body = response->body;
  }
}

// ---------------------------------------------------------------------------
// The solve workloads: wc-subsim, wc-vanilla-dram, hist-hi.

struct SolveWorkload {
  std::vector<GraphSpec> graphs;
  std::vector<JobClass> classes;
  /// hist-hi: the pinned WC-variant thetas must give untruncated RR sets
  /// averaging 400 nodes (within 15%) on 2000 samples.
  bool pin_rr_size = false;
};

bool MakeSolveWorkload(const std::string& name, bool smoke,
                       SolveWorkload* workload) {
  const double scale = smoke ? 0.02 : 1.0;
  const WeightModel wc = WeightModel::kWeightedCascade;
  if (name == "wc-subsim") {
    // The paper's headline configuration (Figure 1): OPIM-C + SUBSIM under
    // WC on cache-resident graphs, where RR sets average ~20 nodes.
    workload->graphs = {{"pokec-s", scale, wc, 1.0, 0},
                        {"twitter-s", scale, wc, 1.0, 0}};
    for (std::size_t g = 0; g < 2; ++g) {
      for (const std::uint32_t k : {50u, 2000u}) {
        workload->classes.push_back(
            {g, false, GeneratorKind::kSubsimIc, k, 0.1});
      }
    }
  } else if (name == "wc-vanilla-dram") {
    // A 20M-edge WC graph several times the size of a typical L3: RR
    // generation waits on memory, and greedy scans 2M singletons a round.
    workload->graphs = {{"ba", 1.0, wc, 1.0, smoke ? 20000u : 1000000u}};
    workload->classes = {{0, false, GeneratorKind::kVanillaIc, 50, 0.1}};
  } else if (name == "hist-hi") {
    // The paper's second contribution: HIST at high influence, thetas
    // pinned so untruncated RR sets average ~400 nodes (calibrating them
    // at start-up would cost 40 s a run).
    const WeightModel variant = WeightModel::kWcVariant;
    workload->graphs = {{"pokec-s", scale, variant, 1.1875, 0},
                        {"twitter-s", scale, variant, 1.3320, 0}};
    workload->classes = {{0, true, GeneratorKind::kSubsimIc, 200, 0.1},
                         {1, true, GeneratorKind::kSubsimIc, 2000, 0.1}};
    workload->pin_rr_size = !smoke;
  } else {
    return false;
  }
  if (smoke) {
    for (JobClass& job : workload->classes) {
      job.k = std::min(job.k, 100u);
    }
  }
  return true;
}

void ServeProbe(Graph graph, const JobClass& job, std::uint64_t seed,
                Report* report);

void RunSolveWorkload(const SolveWorkload& workload, std::uint64_t seed,
                      double seconds, bool trace, bool smoke,
                      const std::string& out_path, StreamProbe* speed,
                      Report* report) {
  std::vector<double> setup_s;
  std::vector<double> setup_probe_ms;
  Result<std::vector<Graph>> built =
      BuildRepeatedly(workload.graphs, speed, &setup_s, &setup_probe_ms);
  report->Attempt(built.ok() ? "" : built.status().ToString());
  if (!built.ok()) {
    return;
  }
  std::vector<Graph> graphs = std::move(built).value();
  report->Set(trace ? "graph.build_s" : "setup_s",
              trace ? Median(setup_s)
                    : Median(AtNominalSpeed<StreamProbe>(setup_s,
                                                         setup_probe_ms)));
  report->Detail(Format("setup %.4fs as measured (median of %.0f)",
                        Median(setup_s), kSetupRepeats));

  if (workload.pin_rr_size) {
    for (std::size_t g = 0; g < graphs.size(); ++g) {
      const double avg = SampleAverageRrSize(graphs[g], 2000);
      report->Detail(workload.graphs[g].dataset + Format(
          ": untruncated avg RR size %.1f on 2000 sets", avg));
      report->Attempt(std::abs(avg / 400.0 - 1.0) <= 0.15
                          ? ""
                          : "pinned theta no longer gives avg RR size ~400");
    }
  }

  const subsim::OpimC opim;
  const subsim::Hist hist;
  SolveTracer tracer(report, smoke);
  // Untraced: solve i ran between probe samples i and i + 1.
  std::vector<std::size_t> solve_class;
  std::vector<double> solve_ms;
  std::vector<double> probe_ms;
  std::vector<ImResult> first_cycle;
  std::uint64_t solve_index = 0;
  std::size_t cycles = 0;
  const Clock::time_point start = Clock::now();
  while (cycles == 0 || SecondsSince(start) < seconds) {
    for (std::size_t c = 0; c < workload.classes.size(); ++c) {
      const JobClass& job = workload.classes[c];
      const Graph& graph = graphs[job.graph];
      const ImOptions options =
          SolveOptions(job, subsim::DeriveStreamSeed(seed, solve_index++));
      Result<ImResult> result = subsim::Status::Internal("not run");
      if (trace) {
        result = tracer.Solve(job, graph, options, nullptr);
      } else {
        probe_ms.push_back(speed->Sample());
        const Clock::time_point solve_start = Clock::now();
        result = job.hist ? hist.Run(graph, options) : opim.Run(graph, options);
        solve_ms.push_back(SecondsSince(solve_start) * 1000.0);
        solve_class.push_back(c);
      }
      report->Attempt(CheckSolve(result, job, graph));
      if (cycles == 0 && result.ok()) {
        first_cycle.push_back(std::move(result).value());
      }
    }
    if (cycles == 0 && trace) {
      tracer.MarkFirstCycle();
    }
    ++cycles;
  }
  probe_ms.push_back(speed->Sample());

  for (std::size_t c = 0; c < first_cycle.size(); ++c) {
    const JobClass& job = workload.classes[c];
    report->Attempt(CheckSpread(first_cycle[c], job, graphs[job.graph],
                                subsim::DeriveStreamSeed(seed, 1u << 30) + c,
                                smoke ? 2000 : 10000));
  }

  if (trace) {
    tracer.Publish();
    if (!out_path.empty() && !tracer.WriteSpans(out_path + ".spans.jsonl")) {
      report->Attempt("cannot write spans");
    }
    // The serve and net layers on this workload's own queries; no update.
    const JobClass& probe_job = workload.classes.front();
    ServeProbe(std::move(graphs[probe_job.graph]), probe_job, seed, report);
    for (const char* name : {"graph.update_apply_ms", "rrset.repair_ms",
                             "serve.read_ms_p90", "serve.update_ms_p50"}) {
      report->Set(name, 0.0);  // serve-mixed traffic only
    }
    return;
  }

  const std::vector<double> nominal_ms =
      AtNominalSpeed<StreamProbe>(solve_ms, probe_ms);
  std::vector<std::vector<double>> class_ms(workload.classes.size());
  std::vector<std::vector<double>> class_nominal_ms(workload.classes.size());
  for (std::size_t i = 0; i < solve_ms.size(); ++i) {
    class_ms[solve_class[i]].push_back(solve_ms[i]);
    class_nominal_ms[solve_class[i]].push_back(nominal_ms[i]);
  }
  std::vector<double> p50s;
  for (std::size_t c = 0; c < workload.classes.size(); ++c) {
    const JobClass& job = workload.classes[c];
    p50s.push_back(Median(class_nominal_ms[c]));
    report->Detail(ClassLabel(workload.graphs[job.graph], job) +
                   Format(": n=%.0f p50=%.2fms p90=%.2fms as measured",
                          static_cast<double>(class_ms[c].size()),
                          Median(class_ms[c]), Quantile(class_ms[c], 0.9)) +
                   Format(", p50=%.2fms at nominal speed", p50s.back()));
  }
  report->Detail(Format("host speed factor %.3f (median of %.0f probes)",
                        Median(probe_ms) / StreamProbe::kNominalMs,
                        static_cast<double>(probe_ms.size())));
  // Every class ran once a cycle: the rate of cycles at the classes' median
  // times. A burst of interference that stalls a few solves moves a mean
  // but not a median.
  double cycle_ms = 0.0;
  for (const double p50 : p50s) {
    cycle_ms += p50;
  }
  report->Set("ops_per_s",
              1000.0 * static_cast<double>(p50s.size()) / cycle_ms);
  report->Set("latency_ms_p50", GeoMean(p50s));
  report->Set("peak_rss_mb", PeakRssMb(StreamProbe::kBytes));
}

/// Sends two cold queries of `job` (fresh seeds) through the HTTP stack,
/// then the same two again (cache hits for OPIM-C, repeats for HIST), so
/// the serve and net layers are measured on a solve workload's own queries.
/// There are no updates, so the update figures are 0.
void ServeProbe(Graph graph, const JobClass& job, std::uint64_t seed,
                Report* report) {
  const NodeId n = graph.num_nodes();
  Result<std::unique_ptr<ServeRig>> rig = ServeRig::Start(std::move(graph), 2);
  report->Attempt(rig.ok() ? "" : rig.status().ToString());
  if (!rig.ok()) {
    return;
  }
  subsim::HttpClient client("127.0.0.1", (*rig)->port());
  ServeLayer layer;
  const Clock::time_point start = Clock::now();
  for (int i = 0; i < 4; ++i) {
    const std::uint64_t rng_seed =
        subsim::DeriveStreamSeed(seed, (1u << 31) + static_cast<unsigned>(i % 2));
    Exchange exchange;
    exchange.cls = job.hist ? kHistRead : i >= 2 ? kWarmRead : kColdRead;
    exchange.send_ms = SecondsSince(start) * 1000.0;
    Post(client, "/v1/select_seeds", QueryLine(job, rng_seed), &exchange);
    exchange.done_ms = SecondsSince(start) * 1000.0;
    report->Attempt(exchange.status == 200
                        ? CheckSeeds(JsonSeeds(exchange.body), job.k, n)
                        : "probe query answered " +
                              std::to_string(exchange.status));
    layer.AddRead(exchange);
  }
  layer.Publish(report);
}

// ---------------------------------------------------------------------------
// serve-mixed: reads beside writes on the HTTP stack.

struct ServeMix {
  GraphSpec graph;
  std::vector<std::uint32_t> warm_ks{10, 50, 100, 200};
  std::vector<double> warm_eps{0.1, 0.2};
  int warm_seeds = 4;
  JobClass hist_read{0, true, GeneratorKind::kSubsimIc, 50, 0.2};
  /// Each block of 100 requests holds one update, at the same seed-chosen
  /// offset in every block so updates arrive evenly spaced, and this many
  /// HIST reads in seed-shuffled slots; the rest are warm reads.
  int block = 100;
  int hist_per_block = 9;
  int update_edges = 16;
  double rate_qps = 40.0;
  /// Most the open loop may take; the closed loop gets the rest.
  double open_share = 0.7;
  int connections = 2;
  /// Reads replayed by the traced run, from the head of the schedule.
  std::size_t replay_requests = 100;
};

/// Request i of the schedule derived from `seed`.
struct Planned {
  RequestClass cls = kWarmRead;
  int warm_config = 0;  // index into the warm configurations
  std::uint64_t hist_seed = 0;
};

class ServeSchedule {
 public:
  ServeSchedule(const ServeMix& mix, std::uint64_t seed)
      : mix_(mix),
        seed_(seed),
        update_offset_(subsim::Rng(subsim::DeriveStreamSeed(seed, 1999999))
                           .UniformInt(static_cast<std::uint64_t>(mix.block))) {}

  int num_warm_configs() const {
    return static_cast<int>(mix_.warm_ks.size() * mix_.warm_eps.size()) *
           mix_.warm_seeds;
  }

  /// Warm configuration `c`: cached seed c / (ks * eps), then k, then eps.
  JobClass WarmJob(int c) const {
    const int per_seed =
        static_cast<int>(mix_.warm_ks.size() * mix_.warm_eps.size());
    const int within = c % per_seed;
    return {0, false, GeneratorKind::kSubsimIc,
            mix_.warm_ks[static_cast<std::size_t>(within) /
                         mix_.warm_eps.size()],
            mix_.warm_eps[static_cast<std::size_t>(within) %
                          mix_.warm_eps.size()]};
  }
  int WarmSeedIndex(int c) const {
    return c / static_cast<int>(mix_.warm_ks.size() * mix_.warm_eps.size());
  }
  /// The cached entries are server state, fixed like the graph so every
  /// run serves the same working set; `seed` drives only the traffic.
  std::uint64_t WarmSeed(int c) const {
    return subsim::DeriveStreamSeed(kGraphSeed, 1000 + WarmSeedIndex(c));
  }

  Planned Plan(std::size_t index) const {
    const std::size_t block = index / static_cast<std::size_t>(mix_.block);
    const std::size_t position = index % static_cast<std::size_t>(mix_.block);
    // Fisher–Yates over the read slots' class multiset, seeded per block.
    std::vector<RequestClass> reads(static_cast<std::size_t>(mix_.block - 1),
                                    kWarmRead);
    for (int i = 0; i < mix_.hist_per_block; ++i) {
      reads[static_cast<std::size_t>(i)] = kHistRead;
    }
    subsim::Rng block_rng(subsim::DeriveStreamSeed(seed_, 2000000 + block));
    for (std::size_t i = reads.size() - 1; i > 0; --i) {
      std::swap(reads[i], reads[block_rng.UniformInt(i + 1)]);
    }
    Planned planned;
    planned.cls = position == update_offset_ ? kUpdate
                  : position < update_offset_ ? reads[position]
                                              : reads[position - 1];
    subsim::Rng rng(subsim::DeriveStreamSeed(seed_, 3000000 + index));
    planned.warm_config = static_cast<int>(
        rng.UniformInt(static_cast<std::uint64_t>(num_warm_configs())));
    planned.hist_seed = subsim::DeriveStreamSeed(seed_, 4000000 + index);
    return planned;
  }

 private:
  const ServeMix& mix_;
  std::uint64_t seed_;
  std::size_t update_offset_;
};

/// `count` distinct edges absent from `graph`, fixed by the graph seed.
std::vector<std::pair<NodeId, NodeId>> AbsentEdges(const Graph& graph,
                                                   int count) {
  std::vector<std::pair<NodeId, NodeId>> edges;
  subsim::Rng rng(kGraphSeed);
  while (static_cast<int>(edges.size()) < count) {
    const NodeId u = static_cast<NodeId>(rng.UniformInt(graph.num_nodes()));
    const NodeId v = static_cast<NodeId>(rng.UniformInt(graph.num_nodes()));
    const auto out = graph.OutNeighbors(u);
    if (u == v || std::find(out.begin(), out.end(), v) != out.end() ||
        std::find(edges.begin(), edges.end(), std::make_pair(u, v)) !=
            edges.end()) {
      continue;
    }
    edges.emplace_back(u, v);
  }
  return edges;
}

void RunServeMixed(std::uint64_t seed, double seconds, bool trace, bool smoke,
                   const std::string& out_path, ChaseProbe* speed,
                   Report* report) {
  ServeMix mix;
  mix.graph = {"twitter-s", smoke ? 0.02 : 0.3,
               WeightModel::kWeightedCascade, 1.0, 0};
  const ServeSchedule schedule(mix, seed);
  const subsim::OpimC opim;

  // Setup: graph build, server start and cache warm-up, repeated.
  std::vector<double> setup_s;
  std::vector<double> build_s;
  std::vector<double> setup_probe_ms;
  std::unique_ptr<ServeRig> rig;
  for (int r = 0; r < kSetupRepeats; ++r) {
    rig.reset();
    setup_probe_ms.push_back(speed->Sample());
    const Clock::time_point start = Clock::now();
    Result<Graph> graph = BuildSpecGraph(mix.graph);
    build_s.push_back(SecondsSince(start));
    Result<std::unique_ptr<ServeRig>> started =
        graph.ok() ? ServeRig::Start(std::move(graph).value(),
                                     static_cast<unsigned>(mix.connections))
                   : Result<std::unique_ptr<ServeRig>>(graph.status());
    report->Attempt(started.ok() ? "" : started.status().ToString());
    if (!started.ok()) {
      return;
    }
    rig = std::move(started).value();
    subsim::HttpClient client("127.0.0.1", rig->port());
    for (int c = 0; c < schedule.num_warm_configs(); ++c) {
      Exchange exchange;
      Post(client, "/v1/select_seeds",
           QueryLine(schedule.WarmJob(c), schedule.WarmSeed(c)), &exchange);
      report->Attempt(exchange.status == 200 ? ""
                                             : "warm-up query failed");
    }
    setup_s.push_back(SecondsSince(start));
  }
  setup_probe_ms.push_back(speed->Sample());
  report->Set(trace ? "graph.build_s" : "setup_s",
              trace ? Median(build_s)
                    : Median(AtNominalSpeed<ChaseProbe>(setup_s,
                                                        setup_probe_ms)));
  report->Detail(Format("setup %.4fs as measured (median of %.0f)",
                        Median(setup_s), kSetupRepeats));

  // Bench-owned inputs for the checks: every graph state the updates walk
  // through, and each warm configuration's answer on a fresh store over
  // each state. An update rebuilds the graph from its edge list in source
  // order, so deleting the inserted edges again gives the base edges in
  // another in-row order (other RR sets), and re-inserting them gives a
  // fourth state; from there the updates alternate between the last two.
  Result<Graph> base = BuildSpecGraph(mix.graph);
  report->Attempt(base.ok() ? "" : base.status().ToString());
  if (!base.ok()) {
    return;
  }
  const Graph& g0 = *base;
  const NodeId n = g0.num_nodes();
  subsim::UpdateBatch insert_batch;
  subsim::UpdateBatch delete_batch;
  std::string insert_body = std::string("graph=") + kServeGraph + "\n";
  std::string delete_body = insert_body;
  for (const auto& [u, v] : AbsentEdges(g0, mix.update_edges)) {
    insert_batch.ops.push_back({subsim::EdgeOpKind::kInsert, u, v, 0.1});
    delete_batch.ops.push_back({subsim::EdgeOpKind::kDelete, u, v, 0.0});
    insert_body += "insert " + std::to_string(u) + " " + std::to_string(v) +
                   " 0.1\n";
    delete_body += "delete " + std::to_string(u) + " " + std::to_string(v) +
                   "\n";
  }
  const Clock::time_point apply_start = Clock::now();
  Result<subsim::EdgeUpdateResult> inserted_graph =
      subsim::ApplyEdgeUpdates(g0, insert_batch);
  const double update_apply_ms = SecondsSince(apply_start) * 1000.0;
  Result<subsim::EdgeUpdateResult> deleted_graph =
      inserted_graph.ok()
          ? subsim::ApplyEdgeUpdates(inserted_graph->graph, delete_batch)
          : Result<subsim::EdgeUpdateResult>(inserted_graph.status());
  Result<subsim::EdgeUpdateResult> reinserted_graph =
      deleted_graph.ok()
          ? subsim::ApplyEdgeUpdates(deleted_graph->graph, insert_batch)
          : Result<subsim::EdgeUpdateResult>(deleted_graph.status());
  report->Attempt(reinserted_graph.ok()
                      ? ""
                      : reinserted_graph.status().ToString());
  if (!reinserted_graph.ok()) {
    return;
  }
  const int per_seed = schedule.num_warm_configs() / mix.warm_seeds;
  std::vector<std::vector<std::vector<NodeId>>> refs;
  const Graph* states[] = {&g0, &inserted_graph->graph, &deleted_graph->graph,
                           &reinserted_graph->graph};
  for (const Graph* graph : states) {
    std::vector<std::vector<NodeId>> answers;
    for (int s = 0; s < mix.warm_seeds; ++s) {
      Result<std::unique_ptr<subsim::SampleStore>> store =
          opim.MakeSampleStore(*graph,
                               SolveOptions(schedule.WarmJob(s * per_seed),
                                            schedule.WarmSeed(s * per_seed)));
      for (int c = s * per_seed; c < (s + 1) * per_seed; ++c) {
        Result<ImResult> answer =
            store.ok() ? opim.RunWithStore(*graph,
                                           SolveOptions(schedule.WarmJob(c),
                                                        schedule.WarmSeed(c)),
                                           store->get())
                       : Result<ImResult>(store.status());
        answers.push_back(answer.ok() ? answer->seeds
                                      : std::vector<NodeId>());
      }
    }
    refs.push_back(std::move(answers));
  }

  // Updates alternate insert/delete of the same edges; the lock keeps them
  // in order even when both connections hold one.
  // The closed loop measures read capacity, so it sends a warm read where
  // the schedule has an update: a handful of updates, each as long as a
  // hundred reads, would make its throughput a count of updates.
  std::mutex update_mu;
  bool inserted = false;
  bool send_updates = true;
  const SendFn send = [&](subsim::HttpClient& client, std::size_t index,
                          Exchange* exchange) {
    const Planned planned = schedule.Plan(index);
    exchange->cls =
        planned.cls == kUpdate && !send_updates ? kWarmRead : planned.cls;
    if (exchange->cls == kUpdate) {
      const std::lock_guard<std::mutex> lock(update_mu);
      Post(client, "/v1/update_graph", inserted ? delete_body : insert_body,
           exchange);
      if (exchange->status == 200) {
        inserted = !inserted;
      }
    } else if (planned.cls == kHistRead) {
      Post(client, "/v1/select_seeds",
           QueryLine(mix.hist_read, planned.hist_seed), exchange);
    } else {
      Post(client, "/v1/select_seeds",
           QueryLine(schedule.WarmJob(planned.warm_config),
                     schedule.WarmSeed(planned.warm_config)),
           exchange);
    }
  };
  const auto check = [&](const Exchange& e) -> std::string {
    if (!e.transport_ok) {
      return "transport error";
    }
    if (e.status != 200) {
      return "HTTP " + std::to_string(e.status) + ": " + e.body;
    }
    if (e.cls == kUpdate) {
      return JsonNumber(e.body, "entries_repaired", -1) == mix.warm_seeds &&
                     JsonNumber(e.body, "entries_dropped", -1) == 0
                 ? ""
                 : "update did not repair every warm entry";
    }
    const std::vector<NodeId> seeds = JsonSeeds(e.body);
    if (e.cls == kHistRead) {
      const std::string error = CheckSeeds(seeds, mix.hist_read.k, n);
      const double ratio = JsonNumber(e.body, "approx_ratio", 1.0);
      return !error.empty() ? error
             : ratio < subsim::kOneMinusInvE - mix.hist_read.epsilon
                 ? "HIST read not certified"
                 : "";
    }
    const std::size_t c =
        static_cast<std::size_t>(schedule.Plan(e.index).warm_config);
    for (const std::vector<std::vector<NodeId>>& answers : refs) {
      if (seeds == answers[c]) {
        return "";
      }
    }
    return "warm read differs from a fresh run on every graph state";
  };

  // Open loop at a fixed rate for whole blocks (so every run sends the same
  // number of updates), then a closed loop on the same connections.
  const std::size_t open_count =
      static_cast<std::size_t>(mix.block) *
      static_cast<std::size_t>(std::max(
          1.0, smoke ? 1.0
                     : std::floor(mix.rate_qps * mix.open_share * seconds /
                                  mix.block)));
  // The speed probe runs on this thread during each phase; each phase's
  // timings are scaled by its own probes, since the closed loop keeps every
  // core busy and the open loop does not.
  std::vector<double> open_probe_ms;
  std::vector<double> closed_probe_ms;
  const std::vector<Exchange> open =
      RunOpenLoop(rig->port(), open_count, mix.rate_qps, mix.connections, send,
                  [&] { open_probe_ms.push_back(speed->Sample()); });
  send_updates = false;
  double closed_elapsed = 0.0;
  const double open_s = static_cast<double>(open_count) / mix.rate_qps;
  const std::vector<Exchange> closed = RunClosedLoop(
      rig->port(), open_count,
      smoke ? 0.3 : std::max(seconds - open_s, (1.0 - mix.open_share) * seconds),
      mix.connections, send,
      [&] { closed_probe_ms.push_back(speed->Sample()); }, &closed_elapsed);
  const double open_factor = Median(open_probe_ms) / ChaseProbe::kNominalMs;
  const double closed_factor =
      Median(closed_probe_ms) / ChaseProbe::kNominalMs;

  std::vector<double> latency_ms[3];
  std::vector<double> read_ms;
  std::vector<double> late_ms;
  ServeLayer layer;
  for (const std::vector<Exchange>* phase : {&open, &closed}) {
    for (const Exchange& e : *phase) {
      report->Attempt(check(e));
      if (phase == &open) {
        latency_ms[e.cls].push_back(e.done_ms - e.due_ms);
        if (e.cls != kUpdate) {
          read_ms.push_back(e.done_ms - e.due_ms);
        }
        late_ms.push_back(e.send_ms - e.due_ms);
      }
      if (e.cls == kUpdate) {
        layer.AddUpdate(e);
      } else {
        layer.AddRead(e);
      }
    }
  }
  rig.reset();

  const char* names[3] = {"warm read", "HIST read", "update"};
  for (int c = 0; c < 3; ++c) {
    report->Detail(std::string(names[c]) +
                   Format(": n=%.0f p50=%.2fms p90=%.2fms from due time",
                          static_cast<double>(latency_ms[c].size()),
                          Median(latency_ms[c]),
                          Quantile(latency_ms[c], 0.9)));
  }
  report->Detail(Format("gen_late_ms_p99=%.2f over %.0f open-loop requests",
                        Quantile(late_ms, 0.99),
                        static_cast<double>(open.size())));
  report->Detail(Format("closed loop: %.0f reads in %.2fs",
                        static_cast<double>(closed.size()), closed_elapsed));
  report->Detail(Format("host speed factor %.3f open loop, %.3f closed loop",
                        open_factor, closed_factor));

  if (!trace) {
    report->Set("ops_per_s", static_cast<double>(closed.size()) /
                                 closed_elapsed * closed_factor);
    report->Set("latency_ms_p50", Median(read_ms) / open_factor);
    report->Set("peak_rss_mb", PeakRssMb(ChaseProbe::kBytes));
    return;
  }

  report->Set("serve.read_ms_p90", Quantile(read_ms, 0.9));
  report->Set("serve.update_ms_p50", Median(latency_ms[kUpdate]));
  layer.Publish(report);
  report->Set("graph.update_apply_ms", update_apply_ms);
  // Replay the head of the schedule's reads on bench-owned stores: warm
  // reads against stores warmed like the server's, HIST reads cold. The
  // repair an insert update costs is timed on the same stores.
  SolveTracer tracer(report, smoke);
  std::vector<std::unique_ptr<subsim::SampleStore>> stores;
  double repair_s = 0.0;
  for (int s = 0; s < mix.warm_seeds; ++s) {
    Result<std::unique_ptr<subsim::SampleStore>> store = opim.MakeSampleStore(
        g0, SolveOptions(schedule.WarmJob(s * per_seed),
                         schedule.WarmSeed(s * per_seed)));
    report->Attempt(store.ok() ? "" : store.status().ToString());
    if (!store.ok()) {
      return;
    }
    for (int c = s * per_seed; c < (s + 1) * per_seed; ++c) {
      const Result<ImResult> warm = opim.RunWithStore(
          g0, SolveOptions(schedule.WarmJob(c), schedule.WarmSeed(c)),
          store->get());
      report->Attempt(warm.ok() ? "" : warm.status().ToString());
    }
    const Clock::time_point repair_start = Clock::now();
    const Result<std::unique_ptr<subsim::SampleStore>> repaired =
        subsim::SampleStore::CreateRepaired(
            inserted_graph->graph, **store, inserted_graph->dirty_nodes, {});
    repair_s += SecondsSince(repair_start);
    report->Attempt(repaired.ok() ? "" : repaired.status().ToString());
    stores.push_back(std::move(store).value());
  }
  report->Set("rrset.repair_ms", repair_s * 1000.0);
  for (std::size_t i = 0; i < mix.replay_requests; ++i) {
    const Planned planned = schedule.Plan(i);
    if (planned.cls == kWarmRead) {
      const int c = planned.warm_config;
      const JobClass job = schedule.WarmJob(c);
      report->Attempt(CheckSolve(
          tracer.Solve(job, g0, SolveOptions(job, schedule.WarmSeed(c)),
                       stores[static_cast<std::size_t>(
                           schedule.WarmSeedIndex(c))].get()),
          job, g0));
    } else if (planned.cls == kHistRead) {
      report->Attempt(CheckSolve(
          tracer.Solve(mix.hist_read, g0,
                       SolveOptions(mix.hist_read, planned.hist_seed), nullptr),
          mix.hist_read, g0));
    }
  }
  tracer.MarkFirstCycle();
  tracer.Publish();
  if (!out_path.empty() && !tracer.WriteSpans(out_path + ".spans.jsonl")) {
    report->Attempt("cannot write spans");
  }
}

// ---------------------------------------------------------------------------

constexpr const char* kWorkloads[] = {"wc-subsim", "wc-vanilla-dram",
                                      "hist-hi", "serve-mixed"};

bool RunWorkload(const std::string& name, std::uint64_t seed, double seconds,
                 bool trace, bool smoke, const std::string& out_path) {
  std::printf("bench_trajectory workload=%s seed=%llu seconds=%g trace=%d%s\n",
              name.c_str(), static_cast<unsigned long long>(seed), seconds,
              trace ? 1 : 0, smoke ? " smoke" : "");
  Report report;
  SolveWorkload workload;
  // Each probe is built before any set-up, so its array is resident for
  // the whole run (speed_probe.h says which workload uses which).
  if (name == "serve-mixed") {
    ChaseProbe speed;
    RunServeMixed(seed, seconds, trace, smoke, out_path, &speed, &report);
  } else if (MakeSolveWorkload(name, smoke, &workload)) {
    StreamProbe speed;
    RunSolveWorkload(workload, seed, seconds, trace, smoke, out_path, &speed,
                     &report);
  } else {
    std::fprintf(stderr, "unknown workload '%s'\n", name.c_str());
    return false;
  }
  const std::string run = "\"workload\": \"" + name +
                          "\", \"seed\": " + std::to_string(seed) +
                          ", \"seconds\": " + Format("%g", seconds) +
                          ", \"trace\": " + (trace ? "1" : "0");
  report.Finish(trace, run, out_path);
  return report.ok();
}

int Main(int argc, char** argv) {
#ifdef __GLIBC__
  // glibc gives each thread its own heap arena and keeps what the arena
  // frees; with the default count serve-mixed's peak RSS varied 290-430 MB
  // run to run with which thread freed what. Two arenas make it repeat.
  mallopt(M_ARENA_MAX, 2);
#endif
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 20.0;
  std::uint64_t trace = 0;
  bool smoke = false;
  std::string out_path;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    const std::size_t eq = arg.find('=');
    const std::string key = arg.substr(0, eq);
    const std::string value = eq == std::string::npos ? "" : arg.substr(eq + 1);
    bool ok = true;
    if (key == "--workload") {
      workload = value;
    } else if (key == "--seed") {
      ok = subsim::ParseUint64(value, &seed);
    } else if (key == "--seconds") {
      ok = subsim::ParseDouble(value, &seconds) && seconds > 0.0;
    } else if (key == "--trace") {
      ok = value.empty() ? (trace = 1, true)
                         : subsim::ParseUint64(value, &trace) && trace <= 1;
    } else if (key == "--smoke") {
      smoke = true;
    } else if (key == "--out") {
      out_path = value;
    } else {
      ok = false;
    }
    if (!ok) {
      std::fprintf(stderr, "bad argument '%s'\n", arg.c_str());
      return 2;
    }
  }

  if (smoke) {
    bool all_ok = true;
    for (const char* name : kWorkloads) {
      for (const bool traced : {false, true}) {
        all_ok = RunWorkload(name, seed, 0.3, traced, true, "") && all_ok;
      }
    }
    std::printf("bench_trajectory --smoke: %s\n",
                all_ok ? "all checks passed" : "FAILED");
    return all_ok ? 0 : 1;
  }
  if (workload.empty()) {
    std::fprintf(stderr,
                 "usage: bench_trajectory --workload=NAME --seed=S "
                 "[--seconds=T] [--trace=0|1] [--out=FILE] | --smoke\n");
    return 2;
  }
  return RunWorkload(workload, seed, seconds, trace == 1, false, out_path)
             ? 0
             : 1;
}

}  // namespace
}  // namespace trajectory

int main(int argc, char** argv) { return trajectory::Main(argc, argv); }
