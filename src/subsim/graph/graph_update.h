#ifndef SUBSIM_GRAPH_GRAPH_UPDATE_H_
#define SUBSIM_GRAPH_GRAPH_UPDATE_H_

#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include "subsim/graph/graph.h"
#include "subsim/graph/graph_builder.h"
#include "subsim/graph/types.h"
#include "subsim/util/status.h"

namespace subsim {

/// One edge mutation in an update batch. `weight` is meaningful for
/// `kInsert` and `kSetWeight` (a finite probability in [0,1]) and ignored
/// for `kDelete`.
enum class EdgeOpKind : std::uint8_t {
  kInsert,
  kDelete,
  kSetWeight,
};

const char* EdgeOpKindName(EdgeOpKind kind);

struct EdgeOp {
  EdgeOpKind kind = EdgeOpKind::kInsert;
  NodeId src = 0;
  NodeId dst = 0;
  double weight = 0.0;
};

/// An ordered batch of edge mutations applied atomically: either every op
/// applies (producing one new snapshot version) or the whole batch is
/// rejected. `expect_version` is optimistic-concurrency guard material for
/// the registry layer: 0 means unconditional, any other value requires the
/// named graph's current version to match (`kFailedPrecondition`
/// otherwise). The node set is immutable across updates — RR roots are
/// drawn as `UniformInt(num_nodes)`, so changing `n` would silently shift
/// every substream; ops referencing nodes `>= num_nodes` are rejected.
struct UpdateBatch {
  std::uint64_t expect_version = 0;
  std::vector<EdgeOp> ops;
};

/// Result of applying a batch: the rebuilt immutable graph plus the sorted,
/// deduplicated list of nodes whose *in-adjacency row* changed. RR-set
/// generation traverses edges in reverse and only ever reads the in-rows of
/// nodes it visits, so an existing RR set replays bit-identically on the
/// new graph unless it contains one of these nodes — this list is exactly
/// the invalidation frontier the incremental store repair needs.
struct EdgeUpdateResult {
  Graph graph;
  std::vector<NodeId> dirty_nodes;
};

/// Applies `batch.ops` in order to an edge-list copy of `graph` and builds
/// the successor snapshot. Fails (`kInvalidArgument`) without side effects
/// when any op is invalid: endpoint out of range, self-loop insert, insert
/// of an existing edge, delete/weight-change of a missing edge, or a
/// non-probability weight. The builder keeps parallel edges, so an op
/// addresses the first live copy of its (src, dst) in the builder's stable
/// order: repeated deletes remove the copies one by one, and an insert is
/// rejected while any copy is live. `expect_version` is NOT checked here —
/// version arbitration belongs to the registry, which owns the version
/// counter.
Result<EdgeUpdateResult> ApplyEdgeUpdates(const Graph& graph,
                                          const UpdateBatch& batch);

/// A parsed update request: which registry name to mutate plus the batch.
struct GraphUpdateRequest {
  std::string graph;
  UpdateBatch batch;
};

/// Hard cap on ops per parsed batch; guards the parser (fuzzed) and the
/// HTTP route against unbounded allocation.
inline constexpr std::size_t kMaxUpdateOps = std::size_t{1} << 20;

/// Parses the text wire format used by `POST /v1/update_graph`, the CLI
/// `update` subcommand, and batch files:
///
///   graph=NAME [expect_version=V]     # header, first non-comment line
///   insert SRC DST WEIGHT
///   delete SRC DST
///   weight SRC DST WEIGHT
///
/// Blank lines and `#` comments are ignored. At least one op is required.
/// Structural validation only — endpoint range and edge existence are
/// checked against an actual graph by `ApplyEdgeUpdates`.
Result<GraphUpdateRequest> ParseGraphUpdateRequest(std::string_view text);

}  // namespace subsim

#endif  // SUBSIM_GRAPH_GRAPH_UPDATE_H_
