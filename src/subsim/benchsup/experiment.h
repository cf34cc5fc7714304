#ifndef SUBSIM_BENCHSUP_EXPERIMENT_H_
#define SUBSIM_BENCHSUP_EXPERIMENT_H_

#include <cstdint>
#include <string>
#include <vector>

#include "subsim/graph/graph.h"
#include "subsim/graph/weight_models.h"
#include "subsim/util/status.h"

namespace subsim {

/// Shared command-line arguments for the experiment binaries. Every bench
/// accepts:
///   --scale=<f>          dataset scale in (0,1] (default per binary)
///   --seed=<u64>         RNG seed (default 7)
///   --datasets=a,b       comma-separated subset of the Table 2 stand-ins
///   --quick              shrink parameter sweeps for a fast smoke run
///   --metrics-json=FILE  dump an observability snapshot ("-" = stdout)
///                        in the `subsim_cli run --metrics-json` schema
struct ExperimentArgs {
  double scale = 0.25;
  std::uint64_t seed = 7;
  std::vector<std::string> datasets;  // empty = all standard datasets
  bool quick = false;
  std::string metrics_json;  // empty = observability disabled

  /// Parses argv; unrecognized flags fail with InvalidArgument so typos
  /// don't silently run the default experiment.
  static Result<ExperimentArgs> Parse(int argc, char** argv,
                                      double default_scale);
};

/// Builds a weighted graph for `dataset` at the experiment scale.
Result<Graph> BuildDatasetGraph(const std::string& dataset, double scale,
                                std::uint64_t seed, WeightModel model,
                                const WeightModelParams& params);

/// The dataset list this run covers (args.datasets or the standard four).
std::vector<std::string> SelectDatasets(const ExperimentArgs& args);

}  // namespace subsim

#endif  // SUBSIM_BENCHSUP_EXPERIMENT_H_
