#include "subsim/coverage/reference_greedy.h"

#include <algorithm>
#include <functional>
#include <vector>

#include "subsim/util/check.h"

namespace subsim {

CoverageGreedyResult RunReferenceCoverageGreedy(
    const RrCollection& collection, const CoverageGreedyOptions& options) {
  SUBSIM_CHECK(!options.tie_break_by_out_degree || options.graph != nullptr,
               "tie_break_by_out_degree requires options.graph");

  const NodeId n = collection.num_graph_nodes();
  const std::size_t num_sets = collection.num_sets();
  const std::uint32_t k =
      std::min<std::uint64_t>(options.k, static_cast<std::uint64_t>(n));

  CoverageGreedyResult result;

  std::vector<std::uint8_t> covered(num_sets, 0);
  std::uint64_t considered = num_sets;
  if (options.exclude_sentinel_hit_sets) {
    for (std::size_t id = 0; id < num_sets; ++id) {
      if (collection.HitSentinel(static_cast<RrId>(id))) {
        covered[id] = 1;
        --considered;
      }
    }
  }
  result.considered_sets = considered;

  std::vector<std::uint8_t> selected(n, 0);
  for (NodeId v : options.excluded_nodes) {
    SUBSIM_CHECK(v < n, "excluded node out of range");
    selected[v] = 1;
  }

  auto marginal = [&](NodeId v) {
    std::uint64_t count = 0;
    for (RrId id : collection.SetsContaining(v)) {
      count += covered[id] ? 0 : 1;
    }
    return count;
  };
  auto out_degree = [&](NodeId v) -> NodeId {
    return options.tie_break_by_out_degree ? options.graph->OutDegree(v)
                                           : NodeId{0};
  };

  // Sum of the `top_count` largest marginals over every node, excluded
  // nodes included, by a full recount: the Σ maxMC term of Λ^u.
  const std::uint32_t top_count = options.singleton_top_count > 0
                                      ? options.singleton_top_count
                                      : options.k;
  auto top_marginal_sum = [&] {
    std::vector<std::uint64_t> marginals;
    marginals.reserve(n);
    for (NodeId v = 0; v < n; ++v) {
      marginals.push_back(marginal(v));
    }
    if (marginals.size() > top_count) {
      std::nth_element(marginals.begin(), marginals.begin() + top_count,
                       marginals.end(), std::greater<>());
      marginals.resize(top_count);
    }
    std::uint64_t sum = 0;
    for (std::uint64_t c : marginals) {
      sum += c;
    }
    return sum;
  };
  result.upper_bound_top_count = top_count;
  result.coverage_upper_bound = top_marginal_sum();

  std::uint64_t total = 0;
  std::size_t selectable = 0;
  for (NodeId v = 0; v < n; ++v) {
    selectable += selected[v] ? 0 : 1;
  }
  const std::size_t steps = std::min<std::size_t>(k, selectable);

  for (std::size_t step = 0; step < steps; ++step) {
    NodeId best = kInvalidNode;
    std::uint64_t best_marginal = 0;
    NodeId best_degree = 0;
    for (NodeId v = 0; v < n; ++v) {
      if (selected[v]) {
        continue;
      }
      const std::uint64_t m = marginal(v);
      const NodeId d = out_degree(v);
      // Same lexicographic (marginal, out_degree, id) order as the CELF
      // heap; the heap pops the largest id among full ties, so prefer the
      // larger id here as well.
      if (best == kInvalidNode || m > best_marginal ||
          (m == best_marginal &&
           (d > best_degree || (d == best_degree && v > best)))) {
        best = v;
        best_marginal = m;
        best_degree = d;
      }
    }
    SUBSIM_CHECK(best != kInvalidNode, "no selectable node left");
    selected[best] = 1;
    for (RrId id : collection.SetsContaining(best)) {
      covered[id] = 1;
    }
    total += best_marginal;
    result.seeds.push_back(best);
    result.gains.push_back(best_marginal);
    result.coverage_prefix.push_back(total);
    result.coverage_upper_bound =
        std::min(result.coverage_upper_bound, total + top_marginal_sum());
  }
  return result;
}

}  // namespace subsim
