#ifndef SUBSIM_BENCH_BENCH_COMMON_H_
#define SUBSIM_BENCH_BENCH_COMMON_H_

// Shared helpers for the figure-reproduction binaries: influence-level
// calibration on top of the dataset stand-ins.
//
// The paper's theta_50 ... theta_32K / p_50 ... p_32K settings target
// absolute average RR-set sizes on million-node graphs. At bench scale the
// same absolute targets would engulf the whole graph, so the suite uses a
// scaled ladder (kRrSizeLadder) and reports which rung plays the role of
// which paper setting in EXPERIMENTS.md.

#include <cstdio>
#include <string>
#include <vector>

#include "subsim/benchsup/calibration.h"
#include "subsim/benchsup/datasets.h"
#include "subsim/benchsup/experiment.h"
#include "subsim/graph/graph_builder.h"
#include "subsim/graph/weight_models.h"
#include "subsim/obs/metrics.h"
#include "subsim/obs/obs_context.h"
#include "subsim/obs/obs_json.h"
#include "subsim/obs/phase_tracer.h"

namespace subsim_bench {

/// Per-binary observability hook: every bench that constructs one of
/// these and attaches `Context()` to its `ImOptions` emits the same
/// metrics JSON schema as `subsim_cli run --metrics-json` (see
/// docs/observability.md). Disabled (all no-ops) unless the user passed
/// --metrics-json=FILE.
class BenchObs {
 public:
  explicit BenchObs(const subsim::ExperimentArgs& args)
      : path_(args.metrics_json), tracer_(/*max_spans=*/8192) {}

  bool enabled() const { return !path_.empty(); }

  /// ObsContext to drop into ImOptions (empty when disabled, so the
  /// instrumentation handles stay no-ops and the timed loops are clean).
  subsim::ObsContext Context() {
    return enabled() ? subsim::ObsContext{&metrics_, &tracer_}
                     : subsim::ObsContext{};
  }

  /// Writes the snapshot to the --metrics-json path ("-" = stdout).
  /// Returns false (after printing the error) if the file cannot be
  /// opened or written.
  bool Write() const {
    if (!enabled()) {
      return true;
    }
    const std::string json = subsim::ObsJson(metrics_.Snapshot(), &tracer_);
    if (path_ == "-") {
      std::fputs(json.c_str(), stdout);
      return true;
    }
    std::FILE* out = std::fopen(path_.c_str(), "w");
    if (out == nullptr) {
      std::fprintf(stderr, "cannot open %s\n", path_.c_str());
      return false;
    }
    // Buffered writes fail late (a full disk surfaces at fclose), so both
    // results count.
    const bool wrote = std::fputs(json.c_str(), out) >= 0;
    if (std::fclose(out) != 0 || !wrote) {
      std::fprintf(stderr, "cannot write %s\n", path_.c_str());
      return false;
    }
    std::fprintf(stderr, "metrics: %s\n", path_.c_str());
    return true;
  }

 private:
  const std::string path_;
  subsim::MetricsRegistry metrics_;
  subsim::PhaseTracer tracer_;
};

/// Average-RR-size targets standing in for the paper's
/// {50, 400, 1K, 4K, 8K, 32K} ladder at bench scale.
inline std::vector<double> RrSizeLadder(bool quick) {
  return quick ? std::vector<double>{50.0, 400.0}
               : std::vector<double>{50.0, 200.0, 400.0, 1000.0};
}

/// The "high influence" rung used by Figures 3-5, standing in for the
/// paper's theta_4K: ~3-6% of the graph per RR set at bench scale. The
/// 1000-rung (Figures 6/7's ladder top) is heavier than single-core
/// defaults allow for the k=500 sweeps of Figures 4/5.
inline double HighInfluenceTarget(bool quick) { return quick ? 200.0 : 400.0; }

struct CalibratedGraph {
  subsim::Graph graph;
  double parameter = 0.0;
  double achieved_avg_rr_size = 0.0;
  bool saturated = false;
};

/// Builds `dataset` at `scale` and calibrates the influence parameter
/// (WC-variant theta or Uniform-IC p) so SUBSIM-generated RR sets average
/// `target_avg_rr_size` nodes.
inline subsim::Result<CalibratedGraph> BuildCalibrated(
    const std::string& dataset, double scale, std::uint64_t seed,
    subsim::WeightModel model, double target_avg_rr_size) {
  const auto spec = subsim::FindDataset(dataset);
  if (!spec.ok()) {
    return spec.status();
  }
  const auto edges = subsim::MakeDataset(*spec, scale, seed);
  if (!edges.ok()) {
    return edges.status();
  }

  subsim::Result<subsim::CalibrationResult> calibration =
      model == subsim::WeightModel::kWcVariant
          ? subsim::CalibrateWcVariantTheta(*edges, target_avg_rr_size, seed)
          : subsim::CalibrateUniformP(*edges, target_avg_rr_size, seed);
  if (!calibration.ok()) {
    return calibration.status();
  }

  subsim::WeightModelParams params;
  if (model == subsim::WeightModel::kWcVariant) {
    params.wc_variant_theta = calibration->parameter;
  } else {
    params.uniform_p = calibration->parameter;
  }
  subsim::EdgeList weighted = *edges;
  if (const subsim::Status status =
          subsim::AssignWeights(model, params, &weighted);
      !status.ok()) {
    return status;
  }
  auto graph = subsim::BuildGraph(std::move(weighted));
  if (!graph.ok()) {
    return graph.status();
  }

  CalibratedGraph result{std::move(graph).value(), calibration->parameter,
                         calibration->achieved_avg_size,
                         calibration->saturated};
  return result;
}

}  // namespace subsim_bench

#endif  // SUBSIM_BENCH_BENCH_COMMON_H_
