#ifndef SUBSIM_GRAPH_GRAPH_BUILDER_H_
#define SUBSIM_GRAPH_GRAPH_BUILDER_H_

#include <vector>

#include "subsim/graph/graph.h"
#include "subsim/graph/types.h"
#include "subsim/util/status.h"

namespace subsim {

/// Validates and freezes an `EdgeList` into an immutable CSR `Graph`.
///
/// Self-loops (u == v) are dropped: a self-loop never changes a cascade,
/// since the endpoint is already active when the edge would fire. Parallel
/// (u, v) copies are kept, each as its own edge. Out-rows and uniform
/// in-rows keep insertion order; each skewed in-row (see `InRowMeta`) is
/// ordered by weight descending, ties by source ascending, which the
/// index-free general-IC sampler requires (paper Section 3.3).
///
/// Usage:
///   GraphBuilder builder(num_nodes);
///   builder.AddEdge(u, v, p);
///   Result<Graph> graph = std::move(builder).Build();
///
/// or directly from an EdgeList via `BuildGraph(list)`.
class GraphBuilder {
 public:
  explicit GraphBuilder(NodeId num_nodes) { list_.num_nodes = num_nodes; }
  explicit GraphBuilder(EdgeList list) : list_(std::move(list)) {}

  /// Appends a directed edge; endpoints are validated at Build time.
  void AddEdge(NodeId src, NodeId dst, double weight) {
    list_.edges.push_back(Edge{src, dst, weight});
  }

  std::size_t num_pending_edges() const { return list_.edges.size(); }

  /// Consumes the builder and produces the graph. Fails with
  /// InvalidArgument if an endpoint is out of range or a weight is outside
  /// [0, 1] / non-finite.
  Result<Graph> Build() &&;

 private:
  EdgeList list_;
};

/// Convenience wrapper: builds a graph directly from an edge list.
Result<Graph> BuildGraph(EdgeList list);

}  // namespace subsim

#endif  // SUBSIM_GRAPH_GRAPH_BUILDER_H_
