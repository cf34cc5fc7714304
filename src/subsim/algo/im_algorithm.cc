#include "subsim/algo/im_algorithm.h"

#include <string>

#include "subsim/util/math.h"

namespace subsim {

Status ValidateImOptions(const Graph& graph, const ImOptions& options) {
  if (graph.num_nodes() == 0) {
    return Status::InvalidArgument("graph has no nodes");
  }
  if (options.k == 0) {
    return Status::InvalidArgument("k must be >= 1");
  }
  if (options.k > graph.num_nodes()) {
    return Status::InvalidArgument(
        "k (" + std::to_string(options.k) + ") exceeds node count (" +
        std::to_string(graph.num_nodes()) + ")");
  }
  if (options.epsilon <= 0.0 || options.epsilon >= kOneMinusInvE) {
    return Status::InvalidArgument(
        "epsilon must be in (0, 1 - 1/e); got " +
        std::to_string(options.epsilon));
  }
  if (options.delta < 0.0 || options.delta >= 1.0) {
    return Status::InvalidArgument("delta must be in [0, 1)");
  }
  if (options.approx_coverage) {
    return Status::InvalidArgument(
        "approx_coverage was removed; greedy is always exact");
  }
  return Status::Ok();
}

Status ValidateSampleStore(const Graph& graph, const ImOptions& options,
                           const SampleStore& store) {
  if (store.num_graph_nodes() != graph.num_nodes()) {
    return Status::FailedPrecondition(
        "sample store was built over a different graph (" +
        std::to_string(store.num_graph_nodes()) + " vs " +
        std::to_string(graph.num_nodes()) + " nodes)");
  }
  if (store.generator_kind() != options.generator) {
    return Status::FailedPrecondition(
        "sample store generator does not match the query's generator");
  }
  return Status::Ok();
}

}  // namespace subsim
