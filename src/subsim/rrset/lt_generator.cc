#include "subsim/rrset/lt_generator.h"

#include <memory>
#include <string>

namespace subsim {

namespace {

/// What the graph's kLtPlan slot holds: the picker, or why LT rejected
/// the graph.
struct SharedLtPlan {
  Status status;
  std::unique_ptr<const LtEdgePicker> picker;
};

}  // namespace

Result<const LtEdgePicker*> LtEdgePicker::Shared(const Graph& graph) {
  const SharedLtPlan& plan = graph.Derived<SharedLtPlan>(
      Graph::DerivedSlot::kLtPlan, [&] {
        auto built = std::make_unique<SharedLtPlan>();
        for (NodeId v = 0; v < graph.num_nodes(); ++v) {
          if (graph.InWeightSum(v) > 1.0 + 1e-9) {
            built->status = Status::InvalidArgument(
                "LT requires per-node incoming weights to sum to <= 1; "
                "node " +
                std::to_string(v) + " sums to " +
                std::to_string(graph.InWeightSum(v)));
            return built;
          }
        }
        built->picker.reset(new LtEdgePicker(graph));
        return built;
      });
  if (!plan.status.ok()) {
    return plan.status;
  }
  return plan.picker.get();
}

LtEdgePicker::LtEdgePicker(const Graph& graph) {
  constructions_.fetch_add(1, std::memory_order_relaxed);
  const NodeId n = graph.num_nodes();
  meta_.assign(n, PickMeta{});
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
    if (alias_.empty()) {
      alias_.resize(n);
    }
    const auto weights = graph.InWeights(v);
    alias_[v] = std::make_unique<AliasTable>(
        std::vector<double>(weights.begin(), weights.end()));
  }
}

Result<std::unique_ptr<LtGenerator>> LtGenerator::Create(const Graph& graph) {
  Result<const LtEdgePicker*> picker = LtEdgePicker::Shared(graph);
  if (!picker.ok()) {
    return picker.status();
  }
  return std::unique_ptr<LtGenerator>(new LtGenerator(graph, **picker));
}

LtGenerator::LtGenerator(const Graph& graph, const LtEdgePicker& picker)
    : graph_(graph), picker_(picker) {
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
    const NodeId next = picker_.PickInNeighbor(graph_, cur, rng, &stats_);
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
