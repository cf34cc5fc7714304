#include "subsim/graph/graph_update.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <string>
#include <utility>
#include <vector>

#include "subsim/graph/graph.h"
#include "subsim/graph/graph_builder.h"
#include "subsim/graph/types.h"
#include "subsim/random/rng.h"

namespace subsim {
namespace {

// Small hand-built graph: edges fan into node 3 so in-row dirtiness is easy
// to reason about.
//
//   0 -> 1 (0.5)   0 -> 2 (0.25)   1 -> 3 (0.5)   2 -> 3 (0.5)
Graph FanGraph() {
  EdgeList list;
  list.num_nodes = 5;
  list.edges = {{0, 1, 0.5}, {0, 2, 0.25}, {1, 3, 0.5}, {2, 3, 0.5}};
  Result<Graph> graph = BuildGraph(std::move(list));
  EXPECT_TRUE(graph.ok());
  return std::move(graph).value();
}

double WeightOf(const Graph& graph, NodeId src, NodeId dst) {
  for (const Edge& e : graph.ToEdgeList().edges) {
    if (e.src == src && e.dst == dst) {
      return e.weight;
    }
  }
  return -1.0;  // not found
}

TEST(ApplyEdgeUpdatesTest, InsertDeleteAndWeightChange) {
  const Graph base = FanGraph();
  UpdateBatch batch;
  batch.ops.push_back({EdgeOpKind::kInsert, 4, 0, 0.75});
  batch.ops.push_back({EdgeOpKind::kDelete, 0, 2, 0.0});
  batch.ops.push_back({EdgeOpKind::kSetWeight, 1, 3, 0.125});

  Result<EdgeUpdateResult> updated = ApplyEdgeUpdates(base, batch);
  ASSERT_TRUE(updated.ok()) << updated.status().ToString();
  const Graph& graph = updated->graph;
  EXPECT_EQ(graph.num_nodes(), base.num_nodes());
  EXPECT_EQ(graph.num_edges(), base.num_edges());  // +1 insert, -1 delete
  EXPECT_DOUBLE_EQ(WeightOf(graph, 4, 0), 0.75);
  EXPECT_DOUBLE_EQ(WeightOf(graph, 0, 2), -1.0);
  EXPECT_DOUBLE_EQ(WeightOf(graph, 1, 3), 0.125);
  // Untouched edges survive with their weights.
  EXPECT_DOUBLE_EQ(WeightOf(graph, 0, 1), 0.5);
  EXPECT_DOUBLE_EQ(WeightOf(graph, 2, 3), 0.5);
  // The base graph is untouched (pure function).
  EXPECT_DOUBLE_EQ(WeightOf(base, 0, 2), 0.25);

  // Dirty = sorted-unique dst endpoints of the ops: {0, 2, 3}.
  EXPECT_EQ(updated->dirty_nodes, (std::vector<NodeId>{0, 2, 3}));
}

TEST(ApplyEdgeUpdatesTest, DirtyNodesDeduplicated) {
  const Graph base = FanGraph();
  UpdateBatch batch;
  batch.ops.push_back({EdgeOpKind::kSetWeight, 1, 3, 0.1});
  batch.ops.push_back({EdgeOpKind::kSetWeight, 2, 3, 0.1});
  Result<EdgeUpdateResult> updated = ApplyEdgeUpdates(base, batch);
  ASSERT_TRUE(updated.ok());
  EXPECT_EQ(updated->dirty_nodes, std::vector<NodeId>{3});
}

TEST(ApplyEdgeUpdatesTest, OpsApplyInOrder) {
  const Graph base = FanGraph();
  // Delete then re-insert with a new weight: legal because ops are ordered.
  UpdateBatch batch;
  batch.ops.push_back({EdgeOpKind::kDelete, 0, 1, 0.0});
  batch.ops.push_back({EdgeOpKind::kInsert, 0, 1, 0.9});
  Result<EdgeUpdateResult> updated = ApplyEdgeUpdates(base, batch);
  ASSERT_TRUE(updated.ok());
  EXPECT_DOUBLE_EQ(WeightOf(updated->graph, 0, 1), 0.9);
}

TEST(ApplyEdgeUpdatesTest, RejectsInvalidOpsAtomically) {
  const Graph base = FanGraph();
  const auto expect_rejected = [&](EdgeOp bad, const char* what) {
    UpdateBatch batch;
    batch.ops.push_back({EdgeOpKind::kSetWeight, 0, 1, 0.9});  // valid
    batch.ops.push_back(bad);
    Result<EdgeUpdateResult> updated = ApplyEdgeUpdates(base, batch);
    EXPECT_FALSE(updated.ok()) << what;
    EXPECT_EQ(updated.status().code(), StatusCode::kInvalidArgument) << what;
    // Op index is surfaced for the client.
    EXPECT_NE(updated.status().ToString().find("op 1"), std::string::npos)
        << updated.status().ToString();
  };
  expect_rejected({EdgeOpKind::kInsert, 2, 2, 0.5}, "self-loop insert");
  expect_rejected({EdgeOpKind::kInsert, 0, 1, 0.5}, "insert existing");
  expect_rejected({EdgeOpKind::kInsert, 5, 0, 0.5}, "src out of range");
  expect_rejected({EdgeOpKind::kInsert, 0, 5, 0.5}, "dst out of range");
  expect_rejected({EdgeOpKind::kInsert, 4, 0, 1.5}, "weight > 1");
  expect_rejected({EdgeOpKind::kInsert, 4, 0, -0.1}, "weight < 0");
  expect_rejected({EdgeOpKind::kDelete, 3, 0, 0.0}, "delete missing");
  expect_rejected({EdgeOpKind::kSetWeight, 3, 0, 0.5}, "weight missing");

  UpdateBatch empty;
  EXPECT_FALSE(ApplyEdgeUpdates(base, empty).ok());
}

// Two copies of 0 -> 1 (0.5 first, 0.25 second in the builder's order)
// plus 1 -> 2.
Graph ParallelGraph() {
  EdgeList list;
  list.num_nodes = 3;
  list.edges = {{0, 1, 0.5}, {1, 2, 0.5}, {0, 1, 0.25}};
  Result<Graph> graph = BuildGraph(std::move(list));
  EXPECT_TRUE(graph.ok());
  return std::move(graph).value();
}

std::vector<double> WeightsOf(const Graph& graph, NodeId src, NodeId dst) {
  std::vector<double> weights;
  for (const Edge& e : graph.ToEdgeList().edges) {
    if (e.src == src && e.dst == dst) {
      weights.push_back(e.weight);
    }
  }
  return weights;
}

TEST(ApplyEdgeUpdatesTest, DeletesEveryParallelCopyInOrder) {
  UpdateBatch batch;
  batch.ops.push_back({EdgeOpKind::kDelete, 0, 1, 0.0});
  batch.ops.push_back({EdgeOpKind::kDelete, 0, 1, 0.0});
  Result<EdgeUpdateResult> updated = ApplyEdgeUpdates(ParallelGraph(), batch);
  ASSERT_TRUE(updated.ok()) << updated.status().ToString();
  EXPECT_TRUE(WeightsOf(updated->graph, 0, 1).empty());
  EXPECT_EQ(updated->graph.num_edges(), 1u);
  EXPECT_EQ(updated->dirty_nodes, std::vector<NodeId>{1});
}

TEST(ApplyEdgeUpdatesTest, WeightAfterDeleteAddressesNextLiveCopy) {
  UpdateBatch batch;
  batch.ops.push_back({EdgeOpKind::kDelete, 0, 1, 0.0});
  batch.ops.push_back({EdgeOpKind::kSetWeight, 0, 1, 0.9});
  Result<EdgeUpdateResult> updated = ApplyEdgeUpdates(ParallelGraph(), batch);
  ASSERT_TRUE(updated.ok()) << updated.status().ToString();
  // The 0.5 copy was deleted; the 0.25 copy took the new weight.
  EXPECT_EQ(WeightsOf(updated->graph, 0, 1), std::vector<double>{0.9});
}

TEST(ApplyEdgeUpdatesTest, InsertRejectedWhileAParallelCopyIsLive) {
  UpdateBatch batch;
  batch.ops.push_back({EdgeOpKind::kDelete, 0, 1, 0.0});
  batch.ops.push_back({EdgeOpKind::kInsert, 0, 1, 0.9});
  Result<EdgeUpdateResult> updated = ApplyEdgeUpdates(ParallelGraph(), batch);
  ASSERT_FALSE(updated.ok());
  EXPECT_EQ(updated.status().code(), StatusCode::kInvalidArgument);
  EXPECT_NE(updated.status().ToString().find("op 1 (insert 0->1)"),
            std::string::npos)
      << updated.status().ToString();
}

// Linear-scan reference edit: every op addresses the first live copy of
// its (src, dst) in `ToEdgeList()` order; inserts append.
struct ReferenceEdit {
  bool ok = false;
  std::size_t failed_op = 0;
  EdgeList edited;
  std::vector<NodeId> dirty_nodes;
};

ReferenceEdit EditByLinearScan(const Graph& graph, const UpdateBatch& batch) {
  ReferenceEdit ref;
  EdgeList list = graph.ToEdgeList();
  std::vector<bool> live(list.edges.size(), true);
  for (std::size_t i = 0; i < batch.ops.size(); ++i) {
    const EdgeOp& op = batch.ops[i];
    std::size_t at = 0;
    while (at < list.edges.size() &&
           !(live[at] && list.edges[at].src == op.src &&
             list.edges[at].dst == op.dst)) {
      ++at;
    }
    const bool found = at < list.edges.size();
    const bool rejected = op.kind == EdgeOpKind::kInsert
                              ? found || op.src == op.dst
                              : !found;
    if (rejected) {
      ref.failed_op = i;
      return ref;
    }
    switch (op.kind) {
      case EdgeOpKind::kInsert:
        list.edges.push_back(Edge{op.src, op.dst, op.weight});
        live.push_back(true);
        break;
      case EdgeOpKind::kDelete:
        live[at] = false;
        break;
      case EdgeOpKind::kSetWeight:
        list.edges[at].weight = op.weight;
        break;
    }
    ref.dirty_nodes.push_back(op.dst);
  }
  ref.edited.num_nodes = list.num_nodes;
  for (std::size_t j = 0; j < list.edges.size(); ++j) {
    if (live[j]) {
      ref.edited.edges.push_back(list.edges[j]);
    }
  }
  std::sort(ref.dirty_nodes.begin(), ref.dirty_nodes.end());
  ref.dirty_nodes.erase(
      std::unique(ref.dirty_nodes.begin(), ref.dirty_nodes.end()),
      ref.dirty_nodes.end());
  ref.ok = true;
  return ref;
}

void ExpectSameEdges(const EdgeList& actual, const EdgeList& expected) {
  ASSERT_EQ(actual.num_nodes, expected.num_nodes);
  ASSERT_EQ(actual.edges.size(), expected.edges.size());
  for (std::size_t i = 0; i < actual.edges.size(); ++i) {
    EXPECT_EQ(actual.edges[i].src, expected.edges[i].src) << "edge " << i;
    EXPECT_EQ(actual.edges[i].dst, expected.edges[i].dst) << "edge " << i;
    EXPECT_EQ(actual.edges[i].weight, expected.edges[i].weight)
        << "edge " << i;
  }
}

// Small dense multigraphs, so most batches hit parallel copies and many
// deletes empty a row.
TEST(ApplyEdgeUpdatesTest, MatchesLinearScanReferenceOnMultigraphs) {
  constexpr double kWeights[] = {0.125, 0.25, 0.5, 0.75};
  Rng rng(20260417);
  std::size_t applied = 0;
  for (int trial = 0; trial < 2000; ++trial) {
    EdgeList list;
    list.num_nodes = static_cast<NodeId>(2 + rng.UniformInt(5));
    const std::uint64_t m = rng.UniformInt(20);
    const auto random_node = [&] {
      return static_cast<NodeId>(rng.UniformInt(list.num_nodes));
    };
    for (std::uint64_t j = 0; j < m; ++j) {
      const NodeId src = random_node();
      const NodeId dst = random_node();
      if (src != dst) {
        list.edges.push_back(Edge{src, dst, kWeights[rng.UniformInt(4)]});
      }
    }
    Result<Graph> base = BuildGraph(list);
    ASSERT_TRUE(base.ok());

    UpdateBatch batch;
    const std::uint64_t num_ops = 1 + rng.UniformInt(8);
    for (std::uint64_t j = 0; j < num_ops; ++j) {
      EdgeOp op;
      op.kind = static_cast<EdgeOpKind>(rng.UniformInt(3));
      // Deletes and weight changes mostly name a base edge; inserts name
      // any pair.
      if (op.kind != EdgeOpKind::kInsert && !list.edges.empty()) {
        const Edge& e = list.edges[rng.UniformInt(list.edges.size())];
        op.src = e.src;
        op.dst = e.dst;
      } else {
        op.src = random_node();
        op.dst = random_node();
      }
      op.weight = kWeights[rng.UniformInt(4)];
      batch.ops.push_back(op);
    }

    const ReferenceEdit ref = EditByLinearScan(*base, batch);
    Result<EdgeUpdateResult> updated = ApplyEdgeUpdates(*base, batch);
    ASSERT_EQ(updated.ok(), ref.ok)
        << "trial " << trial << ": " << updated.status().ToString();
    if (!ref.ok) {
      EXPECT_NE(updated.status().ToString().find(
                    "op " + std::to_string(ref.failed_op) + " ("),
                std::string::npos)
          << "trial " << trial << ": " << updated.status().ToString();
      continue;
    }
    ++applied;
    Result<Graph> expected = BuildGraph(ref.edited);
    ASSERT_TRUE(expected.ok());
    ExpectSameEdges(updated->graph.ToEdgeList(), expected->ToEdgeList());
    EXPECT_EQ(updated->dirty_nodes, ref.dirty_nodes) << "trial " << trial;
  }
  // The sweep must exercise successful edits, not just rejections.
  EXPECT_GT(applied, 200u);
}

// A weight change that makes a uniform in-row skewed: the successor graph
// orders the row by weight, descending, as every build does.
TEST(ApplyEdgeUpdatesTest, RowTurnedSkewedComesOutSorted) {
  const Graph base = FanGraph();
  ASSERT_TRUE(base.InMeta(3).uniform());
  UpdateBatch batch;
  batch.ops.push_back(EdgeOp{EdgeOpKind::kSetWeight, 1, 3, 0.25});
  Result<EdgeUpdateResult> updated = ApplyEdgeUpdates(base, batch);
  ASSERT_TRUE(updated.ok()) << updated.status().ToString();
  const Graph& graph = updated->graph;
  ASSERT_FALSE(graph.InMeta(3).uniform());
  const auto sources = graph.InNeighbors(3);
  const auto weights = graph.InWeights(3);
  ASSERT_EQ(sources.size(), 2u);
  EXPECT_EQ(sources[0], 2u);
  EXPECT_EQ(sources[1], 1u);
  EXPECT_EQ(weights[0], 0.5);
  EXPECT_EQ(weights[1], 0.25);
}

TEST(ParseGraphUpdateRequestTest, ParsesFullBatch) {
  Result<GraphUpdateRequest> parsed = ParseGraphUpdateRequest(
      "# comment\n"
      "graph=social expect_version=7\n"
      "insert 4 0 0.75\n"
      "\n"
      "delete 0 2\n"
      "weight\t1 3 0.125\n");
  ASSERT_TRUE(parsed.ok()) << parsed.status().ToString();
  EXPECT_EQ(parsed->graph, "social");
  EXPECT_EQ(parsed->batch.expect_version, 7u);
  ASSERT_EQ(parsed->batch.ops.size(), 3u);
  EXPECT_EQ(parsed->batch.ops[0].kind, EdgeOpKind::kInsert);
  EXPECT_EQ(parsed->batch.ops[0].src, 4u);
  EXPECT_EQ(parsed->batch.ops[0].dst, 0u);
  EXPECT_DOUBLE_EQ(parsed->batch.ops[0].weight, 0.75);
  EXPECT_EQ(parsed->batch.ops[1].kind, EdgeOpKind::kDelete);
  EXPECT_EQ(parsed->batch.ops[2].kind, EdgeOpKind::kSetWeight);
}

TEST(ParseGraphUpdateRequestTest, DefaultsExpectVersionToUnconditional) {
  Result<GraphUpdateRequest> parsed =
      ParseGraphUpdateRequest("graph=g\ndelete 1 2\n");
  ASSERT_TRUE(parsed.ok());
  EXPECT_EQ(parsed->batch.expect_version, 0u);
}

TEST(ParseGraphUpdateRequestTest, RejectsMalformedInput) {
  const auto expect_bad = [](std::string_view text, const char* what) {
    Result<GraphUpdateRequest> parsed = ParseGraphUpdateRequest(text);
    EXPECT_FALSE(parsed.ok()) << what;
    EXPECT_EQ(parsed.status().code(), StatusCode::kInvalidArgument) << what;
  };
  expect_bad("", "empty input");
  expect_bad("insert 0 1 0.5\n", "missing header");
  expect_bad("graph=g\n", "no ops");
  expect_bad("graph=\ninsert 0 1 0.5\n", "empty graph name");
  expect_bad("graph=g\ninsert 0 1\n", "insert missing weight");
  expect_bad("graph=g\ndelete 0 1 0.5\n", "delete extra token");
  expect_bad("graph=g\nweight 0 1\n", "weight missing value");
  expect_bad("graph=g\nfrobnicate 0 1\n", "unknown op");
  expect_bad("graph=g\ninsert x 1 0.5\n", "non-numeric id");
  expect_bad("graph=g\ninsert 0 1 nope\n", "non-numeric weight");
  expect_bad("graph=g\ninsert 4294967296 1 0.5\n", "id beyond NodeId");
  expect_bad("graph=g expect_version=abc\ninsert 0 1 0.5\n",
             "bad expect_version");
}

TEST(ParseGraphUpdateRequestTest, ErrorsCarryLineNumbers) {
  Result<GraphUpdateRequest> parsed =
      ParseGraphUpdateRequest("graph=g\ninsert 0 1 0.5\nbogus\n");
  ASSERT_FALSE(parsed.ok());
  EXPECT_NE(parsed.status().ToString().find("line 3"), std::string::npos)
      << parsed.status().ToString();
}

TEST(ParseGraphUpdateRequestTest, EnforcesOpCap) {
  std::string text = "graph=g\n";
  // Build just past the cap; each op line is cheap to parse so this stays
  // fast even at 2^20 + 1 lines.
  for (std::size_t i = 0; i <= kMaxUpdateOps; ++i) {
    text += "delete 0 1\n";
  }
  Result<GraphUpdateRequest> parsed = ParseGraphUpdateRequest(text);
  EXPECT_FALSE(parsed.ok());
  EXPECT_NE(parsed.status().ToString().find("ops"), std::string::npos);
}

TEST(EdgeOpKindNameTest, NamesAllKinds) {
  EXPECT_STREQ(EdgeOpKindName(EdgeOpKind::kInsert), "insert");
  EXPECT_STREQ(EdgeOpKindName(EdgeOpKind::kDelete), "delete");
  EXPECT_STREQ(EdgeOpKindName(EdgeOpKind::kSetWeight), "weight");
}

}  // namespace
}  // namespace subsim
