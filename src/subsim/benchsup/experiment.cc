#include "subsim/benchsup/experiment.h"

#include <string_view>

#include "subsim/benchsup/datasets.h"
#include "subsim/graph/graph_builder.h"
#include "subsim/util/string_util.h"

namespace subsim {

Result<ExperimentArgs> ExperimentArgs::Parse(int argc, char** argv,
                                             double default_scale) {
  ExperimentArgs args;
  args.scale = default_scale;
  for (int i = 1; i < argc; ++i) {
    const std::string_view arg(argv[i]);
    if (arg == "--quick") {
      args.quick = true;
      continue;
    }
    const std::size_t eq = arg.find('=');
    if (eq == std::string_view::npos) {
      return Status::InvalidArgument("unrecognized argument: " +
                                     std::string(arg));
    }
    const std::string_view key = arg.substr(0, eq);
    const std::string_view value = arg.substr(eq + 1);
    if (key == "--scale") {
      double v = 0.0;
      if (!ParseDouble(value, &v) || v <= 0.0 || v > 1.0) {
        return Status::InvalidArgument("--scale must be in (0,1]");
      }
      args.scale = v;
    } else if (key == "--seed") {
      std::uint64_t v = 0;
      if (!ParseUint64(value, &v)) {
        return Status::InvalidArgument("--seed must be a non-negative int");
      }
      args.seed = v;
    } else if (key == "--datasets") {
      args.datasets.clear();
      for (std::string_view piece : SplitAndTrim(value, ",")) {
        args.datasets.emplace_back(piece);
      }
      for (const std::string& name : args.datasets) {
        const Result<DatasetSpec> spec = FindDataset(name);
        if (!spec.ok()) {
          return spec.status();
        }
      }
    } else if (key == "--metrics-json") {
      args.metrics_json = std::string(value);
    } else {
      return Status::InvalidArgument("unrecognized flag: " +
                                     std::string(key));
    }
  }
  return args;
}

Result<Graph> BuildDatasetGraph(const std::string& dataset, double scale,
                                std::uint64_t seed, WeightModel model,
                                const WeightModelParams& params) {
  Result<DatasetSpec> spec = FindDataset(dataset);
  if (!spec.ok()) {
    return spec.status();
  }
  Result<EdgeList> edges = MakeDataset(*spec, scale, seed);
  if (!edges.ok()) {
    return edges.status();
  }
  SUBSIM_RETURN_IF_ERROR(AssignWeights(model, params, &edges.value()));
  return BuildGraph(std::move(edges).value());
}

std::vector<std::string> SelectDatasets(const ExperimentArgs& args) {
  if (!args.datasets.empty()) {
    return args.datasets;
  }
  std::vector<std::string> names;
  for (const DatasetSpec& spec : StandardDatasets()) {
    names.push_back(spec.name);
  }
  return names;
}

}  // namespace subsim
