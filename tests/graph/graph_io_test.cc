#include "subsim/graph/graph_io.h"

#include <gtest/gtest.h>

#include <fstream>
#include <string>

namespace subsim {
namespace {

class GraphIoTest : public ::testing::Test {
 protected:
  std::string TempPath(const std::string& name) {
    return testing::TempDir() + "/" + name;
  }

  void WriteFile(const std::string& path, const std::string& contents) {
    std::ofstream out(path);
    out << contents;
  }
};

TEST_F(GraphIoTest, ReadsBasicEdgeList) {
  const std::string path = TempPath("basic.txt");
  WriteFile(path,
            "# comment line\n"
            "% another comment\n"
            "0 1\n"
            "1 2\n"
            "\n"
            "2 0\n");
  const Result<EdgeList> list = ReadEdgeListText(path);
  ASSERT_TRUE(list.ok()) << list.status().ToString();
  EXPECT_EQ(list->num_nodes, 3u);
  ASSERT_EQ(list->edges.size(), 3u);
  EXPECT_EQ(list->edges[0].src, 0u);
  EXPECT_EQ(list->edges[0].dst, 1u);
  EXPECT_DOUBLE_EQ(list->edges[0].weight, 0.0);
}

TEST_F(GraphIoTest, ReadsWeights) {
  const std::string path = TempPath("weighted.txt");
  WriteFile(path, "0 1 0.25\n1 0 0.75\n");
  const Result<EdgeList> list = ReadEdgeListText(path);
  ASSERT_TRUE(list.ok());
  EXPECT_DOUBLE_EQ(list->edges[0].weight, 0.25);
  EXPECT_DOUBLE_EQ(list->edges[1].weight, 0.75);
}

TEST_F(GraphIoTest, AcceptsCommaAndTabSeparators) {
  const std::string path = TempPath("seps.txt");
  WriteFile(path, "0,1\n1\t2\n");
  const Result<EdgeList> list = ReadEdgeListText(path);
  ASSERT_TRUE(list.ok());
  EXPECT_EQ(list->edges.size(), 2u);
}

TEST_F(GraphIoTest, MissingFileIsIoError) {
  const Result<EdgeList> list = ReadEdgeListText("/nonexistent/file.txt");
  EXPECT_FALSE(list.ok());
  EXPECT_EQ(list.status().code(), StatusCode::kIoError);
}

TEST_F(GraphIoTest, MalformedLineIsInvalidArgument) {
  const std::string path = TempPath("bad.txt");
  WriteFile(path, "0 1\nnot numbers\n");
  const Result<EdgeList> list = ReadEdgeListText(path);
  EXPECT_FALSE(list.ok());
  EXPECT_EQ(list.status().code(), StatusCode::kInvalidArgument);
}

TEST_F(GraphIoTest, SingleColumnLineIsRejected) {
  const std::string path = TempPath("single.txt");
  WriteFile(path, "42\n");
  EXPECT_FALSE(ReadEdgeListText(path).ok());
}

TEST_F(GraphIoTest, MalformedWeightIsRejected) {
  const std::string path = TempPath("badweight.txt");
  WriteFile(path, "0 1 zebra\n");
  EXPECT_FALSE(ReadEdgeListText(path).ok());
}

TEST_F(GraphIoTest, NodeIdOverflowIsRejected) {
  const std::string path = TempPath("overflow.txt");
  WriteFile(path, "0 4294967295\n");  // reserved sentinel value
  EXPECT_FALSE(ReadEdgeListText(path).ok());
}

TEST_F(GraphIoTest, EmptyFileYieldsEmptyList) {
  const std::string path = TempPath("empty.txt");
  WriteFile(path, "# only comments\n");
  const Result<EdgeList> list = ReadEdgeListText(path);
  ASSERT_TRUE(list.ok());
  EXPECT_EQ(list->num_nodes, 0u);
  EXPECT_TRUE(list->edges.empty());
}

TEST_F(GraphIoTest, TextRoundTrip) {
  EdgeList original;
  original.num_nodes = 4;
  original.edges = {{0, 1, 0.5}, {2, 3, 0.125}, {3, 0, 1.0}};
  const std::string path = TempPath("roundtrip.txt");
  ASSERT_TRUE(WriteEdgeListText(original, path).ok());
  const Result<EdgeList> loaded = ReadEdgeListText(path);
  ASSERT_TRUE(loaded.ok());
  EXPECT_EQ(loaded->num_nodes, 4u);
  ASSERT_EQ(loaded->edges.size(), 3u);
  for (std::size_t i = 0; i < 3; ++i) {
    EXPECT_EQ(loaded->edges[i].src, original.edges[i].src);
    EXPECT_EQ(loaded->edges[i].dst, original.edges[i].dst);
    EXPECT_DOUBLE_EQ(loaded->edges[i].weight, original.edges[i].weight);
  }
}

}  // namespace
}  // namespace subsim
