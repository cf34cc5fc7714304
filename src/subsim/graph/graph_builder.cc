#include "subsim/graph/graph_builder.h"

#include <algorithm>
#include <cmath>
#include <limits>
#include <string>

namespace subsim {

namespace {

Status ValidateEdges(const EdgeList& list) {
  const NodeId n = list.num_nodes;
  for (std::size_t i = 0; i < list.edges.size(); ++i) {
    const Edge& e = list.edges[i];
    if (e.src >= n || e.dst >= n) {
      return Status::InvalidArgument(
          "edge " + std::to_string(i) + " endpoint out of range (n=" +
          std::to_string(n) + ", src=" + std::to_string(e.src) +
          ", dst=" + std::to_string(e.dst) + ")");
    }
    if (!std::isfinite(e.weight) || e.weight < 0.0 || e.weight > 1.0) {
      return Status::InvalidArgument(
          "edge " + std::to_string(i) +
          " weight must be a finite probability in [0,1], got " +
          std::to_string(e.weight));
    }
  }
  return Status::Ok();
}

}  // namespace

Result<Graph> GraphBuilder::Build() && {
  SUBSIM_RETURN_IF_ERROR(ValidateEdges(list_));

  std::vector<Edge>& edges = list_.edges;
  const NodeId n = list_.num_nodes;

  edges.erase(std::remove_if(edges.begin(), edges.end(),
                             [](const Edge& e) { return e.src == e.dst; }),
              edges.end());

  // InRowMeta::begin is 32-bit so four descriptors pack per cache line;
  // the paper's largest dataset is ~1.5B edges, far below the limit.
  SUBSIM_CHECK(edges.size() < EdgeIndex{0xffffffffu},
               "graphs with 2^32-1 or more edges are not supported");

  Graph g;
  g.num_nodes_ = n;
  g.num_edges_ = edges.size();

  // Out-CSR via counting sort on src.
  g.out_offsets_.assign(n + 1, 0);
  for (const Edge& e : edges) {
    ++g.out_offsets_[e.src + 1];
  }
  for (NodeId u = 0; u < n; ++u) {
    g.out_offsets_[u + 1] += g.out_offsets_[u];
  }
  g.out_targets_.resize(edges.size());
  g.out_weights_.resize(edges.size());
  {
    std::vector<EdgeIndex> cursor(g.out_offsets_.begin(),
                                  g.out_offsets_.end() - 1);
    for (const Edge& e : edges) {
      const EdgeIndex at = cursor[e.src]++;
      g.out_targets_[at] = e.dst;
      g.out_weights_[at] = e.weight;
    }
  }

  // In-CSR via counting sort on dst. The counting pass also decides each
  // row's uniformity: `uniform_weight` holds the row's first weight and
  // turns NaN at the first different one (and stays NaN, since NaN
  // compares unequal to everything).
  g.in_row_meta_.assign(n, InRowMeta{});
  for (const Edge& e : edges) {
    InRowMeta& meta = g.in_row_meta_[e.dst];
    if (meta.degree++ == 0) {
      meta.uniform_weight = e.weight;
    } else if (e.weight != meta.uniform_weight) {
      meta.uniform_weight = std::numeric_limits<double>::quiet_NaN();
    }
  }
  bool any_skewed = false;
  std::vector<std::uint32_t> cursor(n);
  std::uint32_t begin = 0;
  for (NodeId v = 0; v < n; ++v) {
    InRowMeta& meta = g.in_row_meta_[v];
    meta.begin = cursor[v] = begin;
    begin += meta.degree;
    any_skewed = any_skewed || !meta.uniform();
  }
  // Per-edge in-weights exist only on graphs with a skewed row; a uniform
  // row's weight is `InRowMeta::uniform_weight`.
  g.in_sources_.resize(edges.size());
  if (any_skewed) {
    g.in_weights_.resize(edges.size());
  }
  for (const Edge& e : edges) {
    const std::uint32_t at = cursor[e.dst]++;
    g.in_sources_[at] = e.src;
    if (any_skewed) {
      g.in_weights_[at] = e.weight;
    }
  }

  if (any_skewed) {
    // Order each skewed row by descending weight, ties by ascending source
    // for reproducibility; uniform rows keep insertion order.
    std::vector<std::pair<double, NodeId>> scratch;
    for (NodeId v = 0; v < n; ++v) {
      const InRowMeta& meta = g.in_row_meta_[v];
      if (meta.uniform()) {
        continue;
      }
      NodeId* sources = g.in_sources_.data() + meta.begin;
      double* weights = g.in_weights_.data() + meta.begin;
      scratch.clear();
      for (std::uint32_t i = 0; i < meta.degree; ++i) {
        scratch.emplace_back(weights[i], sources[i]);
      }
      std::sort(scratch.begin(), scratch.end(), [](const auto& a,
                                                   const auto& b) {
        if (a.first != b.first) return a.first > b.first;
        return a.second < b.second;
      });
      for (std::uint32_t i = 0; i < meta.degree; ++i) {
        weights[i] = scratch[i].first;
        sources[i] = scratch[i].second;
      }
    }
  }

  // In-weight sums, accumulated in in-row order.
  g.in_weight_sums_.assign(n, 0.0);
  for (NodeId v = 0; v < n; ++v) {
    const InRowMeta& meta = g.in_row_meta_[v];
    double sum = 0.0;
    for (std::uint32_t i = 0; i < meta.degree; ++i) {
      sum += meta.uniform() ? meta.uniform_weight
                            : g.in_weights_[meta.begin + i];
    }
    g.in_weight_sums_[v] = sum;
  }

  return g;
}

Result<Graph> BuildGraph(EdgeList list) {
  return GraphBuilder(std::move(list)).Build();
}

}  // namespace subsim
