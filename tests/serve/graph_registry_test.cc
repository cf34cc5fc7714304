#include "subsim/serve/graph_registry.h"

#include <gtest/gtest.h>

#include <cstdio>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "subsim/graph/generators.h"
#include "subsim/graph/graph_builder.h"
#include "subsim/graph/graph_io.h"
#include "subsim/graph/graph_update.h"
#include "subsim/graph/weight_models.h"

namespace subsim {
namespace {

Graph TinyGraph(std::uint64_t seed) {
  Result<EdgeList> list = GenerateBarabasiAlbert(100, 2, false, seed);
  EXPECT_TRUE(list.ok());
  EXPECT_TRUE(
      AssignWeights(WeightModel::kWeightedCascade, {}, &list.value()).ok());
  Result<Graph> graph = BuildGraph(std::move(list).value());
  EXPECT_TRUE(graph.ok());
  return std::move(graph).value();
}

TEST(GraphRegistryTest, RegisterAndGet) {
  GraphRegistry registry;
  EXPECT_FALSE(registry.GetSnapshot("g").ok());

  ASSERT_TRUE(registry.Register("g", TinyGraph(1)).ok());
  EXPECT_TRUE(registry.GetSnapshot("g").ok());
  Result<GraphSnapshot> snapshot = registry.GetSnapshot("g");
  ASSERT_TRUE(snapshot.ok());
  EXPECT_EQ(snapshot->graph->num_nodes(), 100u);
  EXPECT_EQ(registry.Names(), std::vector<std::string>{"g"});
}

TEST(GraphRegistryTest, RejectsEmptyName) {
  GraphRegistry registry;
  EXPECT_FALSE(registry.Register("", TinyGraph(1)).ok());
  EXPECT_FALSE(registry.LoadFromFile("", "/nonexistent").ok());
}

TEST(GraphRegistryTest, ReplacementKeepsOldSnapshotsAlive) {
  GraphRegistry registry;
  ASSERT_TRUE(registry.Register("g", TinyGraph(1)).ok());
  Result<GraphSnapshot> old_snapshot = registry.GetSnapshot("g");
  ASSERT_TRUE(old_snapshot.ok());
  const std::size_t old_edges = old_snapshot->graph->num_edges();

  // Re-register under the same name: in-flight holders keep the old graph,
  // new lookups see the new one.
  ASSERT_TRUE(registry.Register("g", TinyGraph(2)).ok());
  Result<GraphSnapshot> new_snapshot = registry.GetSnapshot("g");
  ASSERT_TRUE(new_snapshot.ok());
  EXPECT_NE(old_snapshot->graph.get(), new_snapshot->graph.get());
  EXPECT_EQ(old_snapshot->graph->num_edges(), old_edges);
}

TEST(GraphRegistryTest, VersionsAreMonotonicAndNeverReused) {
  GraphRegistry registry;
  ASSERT_TRUE(registry.Register("a", TinyGraph(1)).ok());
  ASSERT_TRUE(registry.Register("b", TinyGraph(2)).ok());

  Result<GraphSnapshot> a = registry.GetSnapshot("a");
  Result<GraphSnapshot> b = registry.GetSnapshot("b");
  ASSERT_TRUE(a.ok() && b.ok());
  EXPECT_EQ(a->version, 1u);
  EXPECT_EQ(b->version, 2u);

  // Re-registering bumps the version; erase + re-register never reuses a
  // retired version (the counter is registry-global).
  ASSERT_TRUE(registry.Register("a", TinyGraph(3)).ok());
  Result<GraphSnapshot> a2 = registry.GetSnapshot("a");
  ASSERT_TRUE(a2.ok());
  EXPECT_EQ(a2->version, 3u);

  EXPECT_TRUE(registry.Erase("a"));
  ASSERT_TRUE(registry.Register("a", TinyGraph(4)).ok());
  Result<GraphSnapshot> a3 = registry.GetSnapshot("a");
  ASSERT_TRUE(a3.ok());
  EXPECT_EQ(a3->version, 4u);
}

TEST(GraphRegistryTest, EraseRemovesOnlyThatName) {
  GraphRegistry registry;
  ASSERT_TRUE(registry.Register("a", TinyGraph(1)).ok());
  ASSERT_TRUE(registry.Register("b", TinyGraph(2)).ok());
  EXPECT_TRUE(registry.Erase("a"));
  EXPECT_FALSE(registry.Erase("a"));  // already gone
  EXPECT_FALSE(registry.GetSnapshot("a").ok());
  EXPECT_TRUE(registry.GetSnapshot("b").ok());
}

TEST(GraphRegistryTest, ApplyUpdatesPublishesNewVersion) {
  GraphRegistry registry;
  ASSERT_TRUE(registry.Register("g", TinyGraph(1)).ok());
  Result<GraphSnapshot> before = registry.GetSnapshot("g");
  ASSERT_TRUE(before.ok());
  const Edge edge = before->graph->ToEdgeList().edges.front();

  UpdateBatch batch;
  batch.ops.push_back(
      {EdgeOpKind::kSetWeight, edge.src, edge.dst, edge.weight * 0.5});
  Result<GraphRegistry::UpdateResult> updated =
      registry.ApplyUpdates("g", batch);
  ASSERT_TRUE(updated.ok()) << updated.status().ToString();
  EXPECT_EQ(updated->previous.version, before->version);
  EXPECT_EQ(updated->snapshot.version, before->version + 1);
  EXPECT_EQ(updated->dirty_nodes, std::vector<NodeId>{edge.dst});
  // The old snapshot object is untouched; the new one is what lookups see.
  EXPECT_NE(updated->snapshot.graph.get(), before->graph.get());
  Result<GraphSnapshot> after = registry.GetSnapshot("g");
  ASSERT_TRUE(after.ok());
  EXPECT_EQ(after->graph.get(), updated->snapshot.graph.get());
  EXPECT_EQ(after->version, updated->snapshot.version);
}

TEST(GraphRegistryTest, ApplyUpdatesArbitratesExpectVersion) {
  GraphRegistry registry;
  ASSERT_TRUE(registry.Register("g", TinyGraph(1)).ok());
  const Edge edge =
      registry.GetSnapshot("g")->graph->ToEdgeList().edges.front();

  UpdateBatch batch;
  batch.expect_version = 42;  // actual version is 1
  batch.ops.push_back(
      {EdgeOpKind::kSetWeight, edge.src, edge.dst, edge.weight * 0.5});
  Result<GraphRegistry::UpdateResult> skewed =
      registry.ApplyUpdates("g", batch);
  ASSERT_FALSE(skewed.ok());
  EXPECT_EQ(skewed.status().code(), StatusCode::kFailedPrecondition);
  EXPECT_EQ(registry.GetSnapshot("g")->version, 1u);  // nothing published

  batch.expect_version = 1;
  EXPECT_TRUE(registry.ApplyUpdates("g", batch).ok());
  EXPECT_EQ(registry.GetSnapshot("g")->version, 2u);

  // Unknown name and invalid batch fail without publishing anything.
  EXPECT_EQ(registry.ApplyUpdates("nope", batch).status().code(),
            StatusCode::kNotFound);
  UpdateBatch empty;
  EXPECT_EQ(registry.ApplyUpdates("g", empty).status().code(),
            StatusCode::kInvalidArgument);
  EXPECT_EQ(registry.GetSnapshot("g")->version, 2u);
}

TEST(GraphRegistryTest, LoadFromFileRoundTrips) {
  Result<EdgeList> list = GenerateBarabasiAlbert(60, 2, false, 9);
  ASSERT_TRUE(list.ok());
  ASSERT_TRUE(
      AssignWeights(WeightModel::kWeightedCascade, {}, &list.value()).ok());
  const std::string path =
      ::testing::TempDir() + "/graph_registry_test_edges.txt";
  ASSERT_TRUE(WriteEdgeListText(*list, path).ok());

  GraphRegistry registry;
  ASSERT_TRUE(registry.LoadFromFile("disk", path).ok());
  Result<GraphSnapshot> snapshot = registry.GetSnapshot("disk");
  ASSERT_TRUE(snapshot.ok());
  EXPECT_EQ(snapshot->graph->num_nodes(), 60u);
  std::remove(path.c_str());

  EXPECT_FALSE(registry.LoadFromFile("missing", path + ".gone").ok());
  EXPECT_FALSE(registry.GetSnapshot("missing").ok());
}

}  // namespace
}  // namespace subsim
