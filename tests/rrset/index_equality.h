// Shared assertion for the differential suites: two collections that claim
// to hold the same RR stream must also hold the same inverted index, since
// the index (not the arena) is what greedy coverage reads.
#ifndef SUBSIM_TESTS_RRSET_INDEX_EQUALITY_H_
#define SUBSIM_TESTS_RRSET_INDEX_EQUALITY_H_

#include <gtest/gtest.h>

#include <algorithm>
#include <span>

#include "subsim/rrset/rr_collection.h"

namespace subsim {

/// Asserts `SetsContaining(v)` lists the same ids, in the same order, in
/// `a` and `b` for every node. Use under ASSERT_NO_FATAL_FAILURE.
inline void ExpectSameIndex(RrCollectionView a, RrCollectionView b) {
  ASSERT_EQ(a.num_graph_nodes(), b.num_graph_nodes());
  ASSERT_EQ(a.num_sets(), b.num_sets());
  for (NodeId v = 0; v < a.num_graph_nodes(); ++v) {
    const std::span<const RrId> row_a = a.SetsContaining(v);
    const std::span<const RrId> row_b = b.SetsContaining(v);
    ASSERT_TRUE(std::equal(row_a.begin(), row_a.end(), row_b.begin(),
                           row_b.end()))
        << "index row " << v << ": " << row_a.size() << " vs "
        << row_b.size() << " ids";
  }
}

}  // namespace subsim

#endif  // SUBSIM_TESTS_RRSET_INDEX_EQUALITY_H_
