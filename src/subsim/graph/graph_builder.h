#ifndef SUBSIM_GRAPH_GRAPH_BUILDER_H_
#define SUBSIM_GRAPH_GRAPH_BUILDER_H_

#include <vector>

#include "subsim/graph/graph.h"
#include "subsim/graph/types.h"
#include "subsim/util/status.h"

namespace subsim {

/// Options controlling CSR construction. Self-loops (u == v) are always
/// dropped: a self-loop never changes a cascade, since the endpoint is
/// already active when the edge would fire. Parallel (u, v) copies are
/// always kept, each as its own edge in insertion order.
struct GraphBuildOptions {
  /// Sort each node's in-neighbor list by descending edge weight. Required
  /// by the index-free sorted subset sampler (Section 3.3); harmless
  /// otherwise. Out-lists keep insertion order.
  bool sort_in_edges_by_weight = false;
};

/// Validates and freezes an `EdgeList` into an immutable CSR `Graph`.
///
/// Usage:
///   GraphBuilder builder(num_nodes);
///   builder.AddEdge(u, v, p);
///   Result<Graph> graph = std::move(builder).Build(options);
///
/// or directly from an EdgeList via `BuildGraph(list, options)`.
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
  Result<Graph> Build(const GraphBuildOptions& options = {}) &&;

 private:
  EdgeList list_;
};

/// Convenience wrapper: builds a graph directly from an edge list.
Result<Graph> BuildGraph(EdgeList list, const GraphBuildOptions& options = {});

}  // namespace subsim

#endif  // SUBSIM_GRAPH_GRAPH_BUILDER_H_
