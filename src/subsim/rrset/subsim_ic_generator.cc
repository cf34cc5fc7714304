#include "subsim/rrset/subsim_ic_generator.h"

#include <algorithm>
#include <functional>

namespace subsim {

SubsimExpandCore::SubsimExpandCore(const Graph& graph,
                                   NodeId naive_fallback_degree) {
  constructions_.fetch_add(1, std::memory_order_relaxed);
  const NodeId n = graph.num_nodes();
  meta_.assign(n, PlanMeta{});

  for (NodeId v = 0; v < n; ++v) {
    const InRowMeta& row = graph.InMeta(v);
    PlanMeta& pm = meta_[v];
    pm.begin = row.begin;
    SUBSIM_CHECK(row.degree < (1u << 29), "in-degree overflows PlanMeta");
    pm.degree = row.degree;
    const auto set_plan = [&pm](NodePlan plan) {
      pm.plan = static_cast<std::uint32_t>(plan);
    };
    if (row.degree == 0 || graph.InWeightSum(v) <= 0.0) {
      set_plan(NodePlan::kNoInEdges);
      continue;
    }
    if (row.degree < naive_fallback_degree) {
      if (row.uniform()) {
        set_plan(NodePlan::kSmallNaiveUniform);
        pm.param = row.uniform_weight;
      } else {
        set_plan(NodePlan::kSmallNaive);
      }
      continue;
    }
    if (row.uniform()) {
      const double p = row.uniform_weight;
      if (p >= 1.0) {
        set_plan(NodePlan::kTakeAll);
      } else if (p <= 0.0) {
        set_plan(NodePlan::kNoInEdges);
      } else {
        set_plan(NodePlan::kUniformSkip);
        pm.param = GeometricInvLogQ(p);
      }
      continue;
    }
    set_plan(NodePlan::kGeneral);
    // SampleSortedSubset's precondition, which the builder establishes.
    SUBSIM_DCHECK(std::is_sorted(graph.InWeights(v).begin(),
                                 graph.InWeights(v).end(),
                                 std::greater<double>()),
                  "skewed in-row not in descending weight order");
  }
}

const SubsimExpandCore& SubsimExpandCore::Shared(const Graph& graph) {
  return graph.Derived<SubsimExpandCore>(
      Graph::DerivedSlot::kSubsimPlan, [&] {
        return std::make_unique<SubsimExpandCore>(
            graph, SubsimIcGenerator::kDefaultNaiveFallbackDegree);
      });
}

SubsimIcGenerator::SubsimIcGenerator(const Graph& graph,
                                     NodeId naive_fallback_degree)
    : graph_(graph),
      private_core_(naive_fallback_degree ==
                            kDefaultNaiveFallbackDegree
                        ? nullptr
                        : std::make_unique<const SubsimExpandCore>(
                              graph, naive_fallback_degree)),
      core_(private_core_ != nullptr ? private_core_.get()
                                     : &SubsimExpandCore::Shared(graph)) {
  activated_.Resize(graph.num_nodes());
  sentinel_.Resize(graph.num_nodes());
}

void SubsimIcGenerator::SetSentinels(std::span<const NodeId> sentinels) {
  sentinel_.ResetTouched();
  has_sentinels_ = !sentinels.empty();
  for (NodeId v : sentinels) {
    sentinel_.Set(v);
  }
}

void SubsimIcGenerator::Activate(NodeId w, std::vector<NodeId>* out) {
  if (stop_ || !activated_.Set(w)) {
    return;
  }
  out->push_back(w);
  if (has_sentinels_ && sentinel_.Get(w)) {
    stop_ = true;
    return;
  }
  queue_.push_back(w);
}

bool SubsimIcGenerator::Generate(Rng& rng, std::vector<NodeId>* out) {
  out->clear();
  SUBSIM_CHECK(graph_.num_nodes() > 0, "cannot sample from empty graph");

  stop_ = false;
  queue_.clear();
  const NodeId root = static_cast<NodeId>(rng.UniformInt(graph_.num_nodes()));
  out->push_back(root);
  activated_.Set(root);
  bool hit = has_sentinels_ && sentinel_.Get(root);

  if (!hit) {
    queue_.push_back(root);
    std::size_t head = 0;
    ScalarSink sink{this, out};
    SubsimExpandCore::ScalarNaivePolicy naive;
    while (head < queue_.size()) {
      if (core_->ExpandNode(graph_, queue_[head++], rng, &stats_, sink,
                            naive)) {
        hit = true;
        break;
      }
    }
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
