#include "subsim/rrset/lt_generator.h"

#include <string>

namespace subsim {

Status LtEdgePicker::Validate(const Graph& graph) {
  for (NodeId v = 0; v < graph.num_nodes(); ++v) {
    if (graph.InWeightSum(v) > 1.0 + 1e-9) {
      return Status::InvalidArgument(
          "LT requires per-node incoming weights to sum to <= 1; node " +
          std::to_string(v) + " sums to " +
          std::to_string(graph.InWeightSum(v)));
    }
  }
  return Status::Ok();
}

LtEdgePicker::LtEdgePicker(const Graph& graph) : graph_(graph) {
  const NodeId n = graph.num_nodes();
  meta_.assign(n, PickMeta{});
  alias_.resize(n);
  for (NodeId v = 0; v < n; ++v) {
    const InRowMeta& row = graph.InMeta(v);
    PickMeta& pm = meta_[v];
    pm.weight_sum = graph.InWeightSum(v);
    pm.begin = row.begin;
    SUBSIM_CHECK(row.degree < (1u << 31), "in-degree overflows PickMeta");
    pm.degree = row.degree;
    if (row.degree == 0 || row.uniform()) {
      continue;  // uniform pick; no table needed
    }
    pm.has_alias = 1;
    const auto weights = graph.InWeights(v);
    alias_[v] = std::make_unique<AliasTable>(
        std::vector<double>(weights.begin(), weights.end()));
  }
}

Result<std::unique_ptr<LtGenerator>> LtGenerator::Create(const Graph& graph) {
  Status status = LtEdgePicker::Validate(graph);
  if (!status.ok()) {
    return status;
  }
  return std::unique_ptr<LtGenerator>(new LtGenerator(graph));
}

LtGenerator::LtGenerator(const Graph& graph)
    : graph_(graph), picker_(graph) {
  activated_.Resize(graph.num_nodes());
  sentinel_.Resize(graph.num_nodes());
}

void LtGenerator::SetSentinels(std::span<const NodeId> sentinels) {
  sentinel_.ResetTouched();
  has_sentinels_ = !sentinels.empty();
  for (NodeId v : sentinels) {
    sentinel_.Set(v);
  }
}

bool LtGenerator::Generate(Rng& rng, std::vector<NodeId>* out) {
  out->clear();
  SUBSIM_CHECK(graph_.num_nodes() > 0, "cannot sample from empty graph");

  NodeId cur = static_cast<NodeId>(rng.UniformInt(graph_.num_nodes()));
  out->push_back(cur);
  activated_.Set(cur);
  bool hit = has_sentinels_ && sentinel_.Get(cur);

  while (!hit) {
    const NodeId next = picker_.PickInNeighbor(cur, rng, &stats_);
    if (next == kInvalidNode || !activated_.Set(next)) {
      break;  // dead end or walked into the existing set
    }
    out->push_back(next);
    if (has_sentinels_ && sentinel_.Get(next)) {
      hit = true;
      break;
    }
    cur = next;
  }

  activated_.ResetTouched();
  ++stats_.sets_generated;
  stats_.nodes_added += out->size();
  if (hit) {
    ++stats_.sentinel_hits;
  }
  return hit;
}

}  // namespace subsim
