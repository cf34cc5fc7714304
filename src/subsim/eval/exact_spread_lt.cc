#include "subsim/eval/exact_spread_lt.h"

#include <string>
#include <vector>

namespace subsim {

namespace {

/// Enumerates LT live-edge worlds. `choice[v]` ranges over
/// 0..d_in(v): index i < d_in picks in-neighbor i as v's live edge (with
/// probability p(in_i, v)); index d_in means "no live edge" (probability
/// 1 - sum). Invokes `visit(prob, choice)` per world with positive
/// probability.
template <typename Visit>
void ForEachLtWorld(const Graph& graph, Visit&& visit) {
  const NodeId n = graph.num_nodes();
  std::vector<std::uint32_t> choice(n, 0);

  // Odometer-style enumeration.
  while (true) {
    double prob = 1.0;
    for (NodeId v = 0; v < n && prob > 0.0; ++v) {
      const InRowMeta& row = graph.InMeta(v);
      if (choice[v] < row.degree) {
        prob *= row.uniform() ? row.uniform_weight
                              : graph.InWeights(v)[choice[v]];
      } else {
        prob *= 1.0 - graph.InWeightSum(v);
      }
    }
    if (prob > 0.0) {
      visit(prob, choice);
    }
    // Increment the odometer.
    NodeId v = 0;
    while (v < n) {
      if (choice[v] < graph.InDegree(v)) {
        ++choice[v];
        break;
      }
      choice[v] = 0;
      ++v;
    }
    if (v == n) {
      break;
    }
  }
}

/// Reachability from seeds over the live edges chosen by `choice`.
std::uint64_t CountReachableLt(const Graph& graph,
                               const std::vector<std::uint32_t>& choice,
                               std::span<const NodeId> seeds, NodeId target,
                               bool* target_reached) {
  const NodeId n = graph.num_nodes();
  std::vector<std::uint8_t> active(n, 0);
  std::vector<NodeId> queue;
  for (NodeId s : seeds) {
    if (s < n && !active[s]) {
      active[s] = 1;
      queue.push_back(s);
    }
  }
  // Propagate until fixpoint: v activates if its live in-neighbor is
  // active. (A node has at most one live in-edge, so one forward sweep per
  // round suffices; rounds <= n.)
  bool changed = true;
  while (changed) {
    changed = false;
    for (NodeId v = 0; v < n; ++v) {
      if (active[v] || choice[v] >= graph.InDegree(v)) {
        continue;
      }
      const NodeId live_source = graph.InNeighbors(v)[choice[v]];
      if (active[live_source]) {
        active[v] = 1;
        changed = true;
      }
    }
  }
  std::uint64_t count = 0;
  for (NodeId v = 0; v < n; ++v) {
    count += active[v];
  }
  if (target_reached != nullptr) {
    *target_reached = target < n && active[target] != 0;
  }
  return count;
}

Status CheckWorldCount(const Graph& graph, std::uint64_t max_worlds) {
  double worlds = 1.0;
  for (NodeId v = 0; v < graph.num_nodes(); ++v) {
    worlds *= static_cast<double>(graph.InDegree(v)) + 1.0;
    if (worlds > static_cast<double>(max_worlds)) {
      return Status::InvalidArgument(
          "LT world count exceeds limit of " + std::to_string(max_worlds));
    }
  }
  for (NodeId v = 0; v < graph.num_nodes(); ++v) {
    if (graph.InWeightSum(v) > 1.0 + 1e-9) {
      return Status::InvalidArgument(
          "LT requires per-node incoming weights summing to <= 1");
    }
  }
  return Status::Ok();
}

}  // namespace

Result<double> ExactSpreadLt(const Graph& graph,
                             std::span<const NodeId> seeds,
                             std::uint64_t max_worlds) {
  SUBSIM_RETURN_IF_ERROR(CheckWorldCount(graph, max_worlds));
  double expected = 0.0;
  ForEachLtWorld(graph, [&](double prob,
                            const std::vector<std::uint32_t>& choice) {
    expected += prob * static_cast<double>(CountReachableLt(
                           graph, choice, seeds, kInvalidNode, nullptr));
  });
  return expected;
}

Result<double> ExactInfluenceProbabilityLt(const Graph& graph, NodeId u,
                                           NodeId v,
                                           std::uint64_t max_worlds) {
  SUBSIM_RETURN_IF_ERROR(CheckWorldCount(graph, max_worlds));
  const NodeId seeds[1] = {u};
  double probability = 0.0;
  ForEachLtWorld(graph, [&](double prob,
                            const std::vector<std::uint32_t>& choice) {
    bool reached = false;
    CountReachableLt(graph, choice, seeds, v, &reached);
    if (reached) {
      probability += prob;
    }
  });
  return probability;
}

}  // namespace subsim
