// Round-trip coverage for the delta+varint arena encoding: varint
// primitives on their byte boundaries, then a randomized property test
// pitting a kDeltaVarint collection against a kRaw twin built from the
// same sets — every view read must agree with the raw truth.

#include "subsim/rrset/rr_encoding.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <set>
#include <vector>

#include "subsim/random/rng.h"
#include "subsim/rrset/rr_collection.h"
#include "index_equality.h"

namespace subsim {
namespace {

TEST(VarintTest, RoundTripsBoundaryValues) {
  const std::uint64_t cases[] = {0,
                                 1,
                                 127,
                                 128,
                                 16383,
                                 16384,
                                 0xFFFFFFFFull,
                                 0x100000000ull,
                                 0xFFFFFFFFFFFFFFFFull};
  for (const std::uint64_t value : cases) {
    std::vector<std::uint8_t> buffer;
    AppendVarint(&buffer, value);
    // LEB128: ceil(bits/7) bytes, one byte minimum.
    EXPECT_LE(buffer.size(), 10u);
    std::uint64_t decoded = 0;
    const std::uint8_t* end = DecodeVarint(buffer.data(), &decoded);
    EXPECT_EQ(decoded, value);
    EXPECT_EQ(end, buffer.data() + buffer.size());
  }
}

TEST(VarintTest, OneByteForSmallGaps) {
  std::vector<std::uint8_t> buffer;
  for (std::uint64_t v = 0; v < 128; ++v) {
    AppendVarint(&buffer, v);
  }
  EXPECT_EQ(buffer.size(), 128u) << "values < 128 must take one byte each";
}

TEST(DeltaBlockTest, EncodesFirstAbsoluteThenGaps) {
  std::vector<std::uint8_t> buffer;
  const std::vector<NodeId> sorted = {5, 6, 10, 200};
  AppendDeltaVarintBlock(&buffer, sorted);
  const std::uint8_t* p = buffer.data();
  std::uint64_t value = 0;
  p = DecodeVarint(p, &value);
  EXPECT_EQ(value, 5u);
  p = DecodeVarint(p, &value);
  EXPECT_EQ(value, 1u);
  p = DecodeVarint(p, &value);
  EXPECT_EQ(value, 4u);
  p = DecodeVarint(p, &value);
  EXPECT_EQ(value, 190u);
  EXPECT_EQ(p, buffer.data() + buffer.size());
}

TEST(RrEncodingTest, ParseAndName) {
  ASSERT_TRUE(ParseRrEncoding("raw").ok());
  EXPECT_EQ(*ParseRrEncoding("raw"), RrEncoding::kRaw);
  ASSERT_TRUE(ParseRrEncoding("delta").ok());
  EXPECT_EQ(*ParseRrEncoding("delta"), RrEncoding::kDeltaVarint);
  ASSERT_TRUE(ParseRrEncoding("delta-varint").ok());
  EXPECT_EQ(*ParseRrEncoding("delta-varint"), RrEncoding::kDeltaVarint);
  EXPECT_FALSE(ParseRrEncoding("zstd").ok());
  EXPECT_STREQ(RrEncodingName(RrEncoding::kRaw), "raw");
  EXPECT_STREQ(RrEncodingName(RrEncoding::kDeltaVarint), "delta");
}

/// One random RR-set-like draw: `size` distinct ids < n in a shuffled
/// (discovery-like) order, sometimes empty.
std::vector<NodeId> RandomSet(Rng* rng, NodeId n) {
  const std::size_t size =
      static_cast<std::size_t>(rng->UniformInt(12));  // 0..11 members
  std::set<NodeId> distinct;
  while (distinct.size() < size) {
    distinct.insert(static_cast<NodeId>(rng->UniformInt(n)));
  }
  std::vector<NodeId> nodes(distinct.begin(), distinct.end());
  // Shuffle into a discovery-like order (Fisher-Yates off the test rng).
  for (std::size_t i = nodes.size(); i > 1; --i) {
    std::swap(nodes[i - 1],
              nodes[static_cast<std::size_t>(rng->UniformInt(i))]);
  }
  return nodes;
}

TEST(RrEncodingPropertyTest, DeltaCollectionMatchesRawTwinOnRandomSets) {
  constexpr NodeId kNodes = 500;
  constexpr int kSets = 400;
  Rng rng(2024);

  RrCollection raw(kNodes, RrEncoding::kRaw);
  RrCollection delta(kNodes, RrEncoding::kDeltaVarint);
  for (int i = 0; i < kSets; ++i) {
    const std::vector<NodeId> nodes = RandomSet(&rng, kNodes);
    const bool hit = rng.UniformInt(5) == 0;
    raw.Add(nodes, hit);
    delta.Add(nodes, hit);
  }
  raw.IndexNewSets();
  delta.IndexNewSets();

  ASSERT_EQ(raw.num_sets(), delta.num_sets());
  EXPECT_EQ(raw.total_nodes(), delta.total_nodes());
  EXPECT_EQ(raw.num_hit_sentinel(), delta.num_hit_sentinel());
  EXPECT_DOUBLE_EQ(raw.average_size(), delta.average_size());

  std::vector<NodeId> scratch;
  for (RrId id = 0; id < raw.num_sets(); ++id) {
    SCOPED_TRACE("set " + std::to_string(id));
    std::vector<NodeId> expected = raw.View(id).ToVector();
    std::sort(expected.begin(), expected.end());

    const RrSetView view = delta.View(id);
    ASSERT_EQ(view.size(), expected.size());
    EXPECT_EQ(view.empty(), expected.empty());
    EXPECT_EQ(view.encoding(), RrEncoding::kDeltaVarint);

    // Streaming read.
    std::vector<NodeId> streamed;
    view.ForEachNode([&streamed](NodeId v) { streamed.push_back(v); });
    EXPECT_EQ(streamed, expected);

    // Bulk decode into a reused scratch.
    const std::span<const NodeId> decoded = view.Decode(&scratch);
    EXPECT_TRUE(std::equal(decoded.begin(), decoded.end(),
                           expected.begin(), expected.end()));

    // Allocating convenience.
    EXPECT_EQ(view.ToVector(), expected);

    EXPECT_EQ(raw.HitSentinel(id), delta.HitSentinel(id));
  }

  // The inverted index — what greedy coverage actually consumes — is
  // byte-identical across encodings, which is why seeds never change.
  ASSERT_NO_FATAL_FAILURE(ExpectSameIndex(raw, delta));

  // Prefix accounting agrees at every cut.
  for (const std::size_t prefix : {std::size_t{0}, std::size_t{1},
                                   std::size_t{17}, std::size_t{400}}) {
    EXPECT_EQ(raw.total_nodes_in_prefix(prefix),
              delta.total_nodes_in_prefix(prefix));
    EXPECT_EQ(raw.num_hit_sentinel_in_prefix(prefix),
              delta.num_hit_sentinel_in_prefix(prefix));
  }
}

TEST(RrEncodingPropertyTest, RawDecodeIsZeroCopyAndDeltaArenaIsSmaller) {
  constexpr NodeId kNodes = 256;
  Rng rng(7);
  RrCollection raw(kNodes, RrEncoding::kRaw);
  RrCollection delta(kNodes, RrEncoding::kDeltaVarint);
  for (int i = 0; i < 200; ++i) {
    // Dense sets (ids < 256): every delta gap fits one varint byte, so the
    // encoded arena must be strictly smaller than 4 bytes/membership.
    std::vector<NodeId> nodes;
    for (NodeId v = static_cast<NodeId>(rng.UniformInt(8)); v < kNodes;
         v = static_cast<NodeId>(v + 1 + rng.UniformInt(16))) {
      nodes.push_back(v);
    }
    raw.Add(nodes, false);
    delta.Add(nodes, false);
  }
  raw.IndexNewSets();
  delta.IndexNewSets();

  // kRaw Decode returns the arena itself; scratch stays untouched.
  std::vector<NodeId> scratch;
  const std::span<const NodeId> span = raw.View(3).Decode(&scratch);
  EXPECT_TRUE(scratch.empty());
  EXPECT_EQ(span.size(), raw.View(3).size());

  EXPECT_EQ(raw.arena_bytes(), raw.total_nodes() * sizeof(NodeId));
  EXPECT_LT(delta.arena_bytes(), raw.arena_bytes() / 2)
      << "dense sorted sets must compress at least 2x";
  EXPECT_LT(delta.ApproxMemoryBytes(), raw.ApproxMemoryBytes());

  delta.Clear();
  EXPECT_EQ(delta.num_sets(), 0u);
  EXPECT_EQ(delta.arena_bytes(), 0u);
  EXPECT_EQ(delta.encoding(), RrEncoding::kDeltaVarint);
  delta.Add(std::vector<NodeId>{3, 1, 2}, false);
  EXPECT_EQ(delta.View(0).ToVector(), (std::vector<NodeId>{1, 2, 3}));
}

}  // namespace
}  // namespace subsim
