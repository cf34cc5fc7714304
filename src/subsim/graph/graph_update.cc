#include "subsim/graph/graph_update.h"

#include <algorithm>
#include <cmath>
#include <limits>
#include <unordered_map>
#include <utility>

#include "subsim/util/string_util.h"

namespace subsim {

namespace {

constexpr NodeId kRemovedEdge = std::numeric_limits<NodeId>::max();

std::uint64_t EdgeKey(NodeId src, NodeId dst) {
  return (static_cast<std::uint64_t>(src) << 32) | dst;
}

Status OpError(std::size_t index, const EdgeOp& op, const std::string& why) {
  return Status::InvalidArgument(
      "op " + std::to_string(index) + " (" + EdgeOpKindName(op.kind) + " " +
      std::to_string(op.src) + "->" + std::to_string(op.dst) + "): " + why);
}

}  // namespace

const char* EdgeOpKindName(EdgeOpKind kind) {
  switch (kind) {
    case EdgeOpKind::kInsert:
      return "insert";
    case EdgeOpKind::kDelete:
      return "delete";
    case EdgeOpKind::kSetWeight:
      return "weight";
  }
  return "unknown";
}

Result<EdgeUpdateResult> ApplyEdgeUpdates(const Graph& graph,
                                          const UpdateBatch& batch) {
  if (batch.ops.empty()) {
    return Status::InvalidArgument("update batch has no ops");
  }
  if (batch.ops.size() > kMaxUpdateOps) {
    return Status::InvalidArgument(
        "update batch has " + std::to_string(batch.ops.size()) +
        " ops, limit is " + std::to_string(kMaxUpdateOps));
  }
  const NodeId n = graph.num_nodes();
  EdgeList list = graph.ToEdgeList();

  // Every copy of each (src, dst) the batch names, as indices into
  // list.edges in the builder's stable order. Ops address the first live
  // copy: a delete moves `next_live` past it, and an insert (legal only once
  // no copy is live) appends a new one. Only the out-rows of the batch's
  // sources are scanned, so indexing costs O(m) at most, whatever the batch.
  struct Copies {
    std::vector<std::size_t> at;
    std::size_t next_live = 0;
  };
  std::unordered_map<std::uint64_t, Copies> copies;
  std::vector<NodeId> sources;
  for (const EdgeOp& op : batch.ops) {
    if (op.src < n && op.dst < n) {
      copies.try_emplace(EdgeKey(op.src, op.dst));
      sources.push_back(op.src);
    }
  }
  std::sort(sources.begin(), sources.end());
  sources.erase(std::unique(sources.begin(), sources.end()), sources.end());
  // ToEdgeList emits the out-rows in node order.
  std::size_t row_begin = 0;
  auto next_source = sources.begin();
  for (NodeId u = 0; next_source != sources.end(); ++u) {
    const std::size_t row_end = row_begin + graph.OutDegree(u);
    if (u == *next_source) {
      for (std::size_t i = row_begin; i < row_end; ++i) {
        const auto it = copies.find(EdgeKey(u, list.edges[i].dst));
        if (it != copies.end()) {
          it->second.at.push_back(i);
        }
      }
      ++next_source;
    }
    row_begin = row_end;
  }

  std::vector<NodeId> dirty;
  dirty.reserve(batch.ops.size());
  for (std::size_t i = 0; i < batch.ops.size(); ++i) {
    const EdgeOp& op = batch.ops[i];
    if (op.src >= n || op.dst >= n) {
      return OpError(i, op,
                     "endpoint out of range (graph has " + std::to_string(n) +
                         " nodes; the node set is fixed across updates)");
    }
    const bool needs_weight = op.kind != EdgeOpKind::kDelete;
    if (needs_weight &&
        (!std::isfinite(op.weight) || op.weight < 0.0 || op.weight > 1.0)) {
      return OpError(i, op, "weight must be a finite probability in [0,1]");
    }
    Copies& edge = copies.find(EdgeKey(op.src, op.dst))->second;
    const bool live = edge.next_live < edge.at.size();
    switch (op.kind) {
      case EdgeOpKind::kInsert: {
        if (op.src == op.dst) {
          return OpError(i, op, "self-loops are not allowed");
        }
        if (live) {
          return OpError(i, op, "edge already exists");
        }
        edge.at.push_back(list.edges.size());
        list.edges.push_back(Edge{op.src, op.dst, op.weight});
        break;
      }
      case EdgeOpKind::kDelete: {
        if (!live) {
          return OpError(i, op, "no such edge");
        }
        list.edges[edge.at[edge.next_live++]].src = kRemovedEdge;
        break;
      }
      case EdgeOpKind::kSetWeight: {
        if (!live) {
          return OpError(i, op, "no such edge");
        }
        list.edges[edge.at[edge.next_live]].weight = op.weight;
        break;
      }
    }
    dirty.push_back(op.dst);
  }

  list.edges.erase(std::remove_if(list.edges.begin(), list.edges.end(),
                                  [](const Edge& e) {
                                    return e.src == kRemovedEdge;
                                  }),
                   list.edges.end());

  std::sort(dirty.begin(), dirty.end());
  dirty.erase(std::unique(dirty.begin(), dirty.end()), dirty.end());

  Result<Graph> rebuilt = BuildGraph(std::move(list));
  if (!rebuilt.ok()) {
    return rebuilt.status();
  }
  EdgeUpdateResult result;
  result.graph = std::move(*rebuilt);
  result.dirty_nodes = std::move(dirty);
  return result;
}

Result<GraphUpdateRequest> ParseGraphUpdateRequest(std::string_view text) {
  GraphUpdateRequest request;
  bool saw_header = false;
  std::size_t lineno = 0;
  while (!text.empty()) {
    ++lineno;
    const std::size_t eol = text.find('\n');
    std::string_view line =
        eol == std::string_view::npos ? text : text.substr(0, eol);
    text = eol == std::string_view::npos ? std::string_view()
                                         : text.substr(eol + 1);
    if (const std::size_t hash = line.find('#');
        hash != std::string_view::npos) {
      line = line.substr(0, hash);
    }
    line = StripWhitespace(line);
    if (line.empty()) {
      continue;
    }
    const std::vector<std::string_view> tokens = SplitAndTrim(line, " \t");
    const auto error = [&](const std::string& why) {
      return Status::InvalidArgument("line " + std::to_string(lineno) + ": " +
                                     why);
    };

    if (!saw_header) {
      // Header: `graph=NAME [expect_version=V]`.
      for (const std::string_view token : tokens) {
        const std::size_t eq = token.find('=');
        if (eq == std::string_view::npos) {
          return error("expected key=value header, got '" +
                       std::string(token) + "'");
        }
        const std::string_view header_key = token.substr(0, eq);
        const std::string_view value = token.substr(eq + 1);
        if (header_key == "graph") {
          if (value.empty()) {
            return error("graph name must be non-empty");
          }
          request.graph = std::string(value);
        } else if (header_key == "expect_version") {
          if (!ParseUint64(value, &request.batch.expect_version)) {
            return error("bad expect_version '" + std::string(value) + "'");
          }
        } else {
          return error("unknown header key '" + std::string(header_key) +
                       "'");
        }
      }
      if (request.graph.empty()) {
        return error("header must name a graph (graph=NAME)");
      }
      saw_header = true;
      continue;
    }

    // Op line: `insert SRC DST WEIGHT` | `delete SRC DST` |
    // `weight SRC DST WEIGHT`.
    EdgeOp op;
    std::size_t expected_tokens = 4;
    if (tokens[0] == "insert") {
      op.kind = EdgeOpKind::kInsert;
    } else if (tokens[0] == "delete") {
      op.kind = EdgeOpKind::kDelete;
      expected_tokens = 3;
    } else if (tokens[0] == "weight") {
      op.kind = EdgeOpKind::kSetWeight;
    } else {
      return error("unknown op '" + std::string(tokens[0]) +
                   "' (want insert/delete/weight)");
    }
    if (tokens.size() != expected_tokens) {
      return error(std::string(tokens[0]) + " takes " +
                   std::to_string(expected_tokens - 1) + " arguments");
    }
    std::uint64_t src = 0;
    std::uint64_t dst = 0;
    if (!ParseUint64(tokens[1], &src) ||
        src > std::numeric_limits<NodeId>::max()) {
      return error("bad src node id '" + std::string(tokens[1]) + "'");
    }
    if (!ParseUint64(tokens[2], &dst) ||
        dst > std::numeric_limits<NodeId>::max()) {
      return error("bad dst node id '" + std::string(tokens[2]) + "'");
    }
    op.src = static_cast<NodeId>(src);
    op.dst = static_cast<NodeId>(dst);
    if (expected_tokens == 4) {
      if (!ParseDouble(tokens[3], &op.weight) || !std::isfinite(op.weight) ||
          op.weight < 0.0 || op.weight > 1.0) {
        return error("bad weight '" + std::string(tokens[3]) +
                     "' (want a probability in [0,1])");
      }
    }
    if (request.batch.ops.size() >= kMaxUpdateOps) {
      return error("too many ops (limit " + std::to_string(kMaxUpdateOps) +
                   ")");
    }
    request.batch.ops.push_back(op);
  }
  if (!saw_header) {
    return Status::InvalidArgument("empty update request");
  }
  if (request.batch.ops.empty()) {
    return Status::InvalidArgument("update request has no ops");
  }
  return request;
}

}  // namespace subsim
