// Incremental RR repair on graph update: the dynamic-graphs win.
//
// A warm serving cache holds SampleStores sampled on version v of a graph.
// When an update batch publishes v+1, the engine regenerates ONLY the RR
// sets whose reverse traversal touched a mutated edge's target (found via
// the collection's inverted index) and carries every other set forward —
// cost proportional to the affected sets, not to the store. This bench
// measures that proportionality directly: batches touching 1, 4, 16, and
// 64 edges against one warmed engine, with a full cold resample as the
// baseline.
//
// Pass criteria (checked, non-zero exit on failure):
//   - for every batch, sets_repaired equals the independently computed
//     number of committed sets containing a dirty node (repair is exact:
//     nothing extra is regenerated);
//   - repaired fraction grows monotonically (non-strictly) with batch
//     size, and the 1-edge batch repairs < 50% of the store;
//   - every post-update warm answer is bit-identical to a cold engine's
//     answer on the updated snapshot.

#include <algorithm>
#include <cstdint>
#include <cstdio>
#include <iostream>
#include <string>
#include <unordered_set>
#include <utility>
#include <vector>

#include "subsim/benchsup/reporting.h"
#include "subsim/graph/generators.h"
#include "subsim/graph/graph_builder.h"
#include "subsim/graph/graph_update.h"
#include "subsim/graph/weight_models.h"
#include "subsim/serve/graph_registry.h"
#include "subsim/serve/query.h"
#include "subsim/serve/query_engine.h"
#include "subsim/util/string_util.h"

namespace {

constexpr std::uint64_t kSeed = 13;
constexpr double kEpsilon = 0.15;

subsim::Result<subsim::Graph> BuildBenchGraph() {
  auto list = subsim::GenerateBarabasiAlbert(3000, 4, false, kSeed);
  if (!list.ok()) {
    return list.status();
  }
  if (const subsim::Status status = subsim::AssignWeights(
          subsim::WeightModel::kWeightedCascade, {}, &list.value());
      !status.ok()) {
    return status;
  }
  return subsim::BuildGraph(std::move(list).value());
}

subsim::SelectSeedsQuery MakeQuery() {
  subsim::SelectSeedsQuery query;
  query.graph = "bench";
  query.algo = "opim-c";
  query.k = 10;
  query.epsilon = kEpsilon;
  query.rng_seed = kSeed;
  query.generator = subsim::GeneratorKind::kSubsimIc;
  return query;
}

/// Weight-halves `count` distinct edges, spread across the edge list so
/// the dirty frontier isn't one hub.
subsim::UpdateBatch MakeBatch(const subsim::Graph& graph, std::size_t count) {
  const subsim::EdgeList list = graph.ToEdgeList();
  subsim::UpdateBatch batch;
  std::unordered_set<std::uint64_t> used;
  const std::size_t stride = list.edges.size() / (count * 2 + 1) + 1;
  for (std::size_t i = 0; i < list.edges.size() && batch.ops.size() < count;
       i += stride) {
    const subsim::Edge& e = list.edges[i];
    const std::uint64_t key =
        (static_cast<std::uint64_t>(e.src) << 32) | e.dst;
    if (!used.insert(key).second) {
      continue;
    }
    batch.ops.push_back({subsim::EdgeOpKind::kSetWeight, e.src, e.dst,
                         e.weight * 0.5});
  }
  return batch;
}

/// Ground truth for sets_repaired: committed sets (both streams) of every
/// cached entry that contain at least one dirty node, found by scanning set
/// members (stream 1 keeps no inverted index).
std::uint64_t CountAffectedSets(const subsim::QueryEngine& engine,
                                const std::string& graph_name,
                                std::uint64_t version,
                                const std::vector<subsim::NodeId>& dirty) {
  std::uint64_t affected = 0;
  for (const auto& [key, entry] :
       engine.cache().EntriesForGraph(graph_name, version)) {
    const subsim::SampleStore& store = *entry->store;
    std::vector<std::uint8_t> is_dirty(store.num_graph_nodes(), 0);
    for (const subsim::NodeId v : dirty) {
      is_dirty[v] = 1;
    }
    const subsim::SampleStore::ReadGuard read = store.Read();
    for (std::size_t s = 0; s < subsim::SampleStore::kNumStreams; ++s) {
      const subsim::RrCollectionView view = read.View(s, store.num_sets(s));
      for (subsim::RrId id = 0; id < view.num_sets(); ++id) {
        const std::vector<subsim::NodeId> members = view.View(id).ToVector();
        affected += std::any_of(
            members.begin(), members.end(),
            [&is_dirty](subsim::NodeId v) { return is_dirty[v] != 0; });
      }
    }
  }
  return affected;
}

}  // namespace

int main() {
  auto graph = BuildBenchGraph();
  if (!graph.ok()) {
    std::fprintf(stderr, "%s\n", graph.status().ToString().c_str());
    return 1;
  }
  subsim::GraphRegistry registry;
  if (const subsim::Status status =
          registry.Register("bench", std::move(graph).value());
      !status.ok()) {
    std::fprintf(stderr, "%s\n", status.ToString().c_str());
    return 1;
  }
  subsim::QueryEngine engine(&registry);

  // Warm the cache once; every update then repairs this store.
  const subsim::SelectSeedsQuery query = MakeQuery();
  const subsim::QueryResponse cold0 = engine.Execute(query);
  if (!cold0.status.ok()) {
    std::fprintf(stderr, "%s\n", cold0.status.ToString().c_str());
    return 1;
  }

  std::printf(
      "Incremental repair vs batch size: BA n=3000 WC, opim-c k=%u "
      "eps=%.2g, store warmed with %llu sets\n\n",
      query.k, kEpsilon,
      static_cast<unsigned long long>(cold0.result.num_rr_sets));

  subsim::TablePrinter table({"batch edges", "dirty nodes", "sets repaired",
                              "sets kept", "repaired %", "repair s",
                              "warm==cold"});
  bool all_exact = true;
  bool all_match = true;
  std::vector<double> repaired_fractions;

  for (const std::size_t batch_edges : {1u, 4u, 16u, 64u}) {
    // Build the batch against the CURRENT snapshot (weights halve
    // cumulatively across rounds; the op stays valid either way).
    auto snapshot = registry.GetSnapshot("bench");
    if (!snapshot.ok()) {
      return 1;
    }
    const subsim::UpdateBatch batch =
        MakeBatch(*snapshot->graph, batch_edges);

    // Ground truth BEFORE the update mutates the cache.
    auto preview = subsim::ApplyEdgeUpdates(*snapshot->graph, batch);
    if (!preview.ok()) {
      std::fprintf(stderr, "%s\n", preview.status().ToString().c_str());
      return 1;
    }
    const std::uint64_t expected = CountAffectedSets(
        engine, "bench", snapshot->version, preview->dirty_nodes);

    auto outcome = engine.ApplyGraphUpdates("bench", batch);
    if (!outcome.ok()) {
      std::fprintf(stderr, "%s\n", outcome.status().ToString().c_str());
      return 1;
    }
    const bool exact = outcome->sets_repaired == expected;
    all_exact = all_exact && exact;
    const double total = static_cast<double>(outcome->sets_repaired +
                                             outcome->sets_kept);
    const double fraction =
        total == 0.0 ? 0.0 : static_cast<double>(outcome->sets_repaired) /
                                 total;
    repaired_fractions.push_back(fraction);

    // Post-update warm answer vs a cold engine on the same snapshot.
    const subsim::QueryResponse warm = engine.Execute(query);
    subsim::QueryEngine cold_engine(&registry);
    const subsim::QueryResponse cold = cold_engine.Execute(query);
    const bool match = warm.status.ok() && cold.status.ok() &&
                       warm.result.seeds == cold.result.seeds &&
                       warm.result.num_rr_sets == cold.result.num_rr_sets;
    all_match = all_match && match;

    char percent[32];
    std::snprintf(percent, sizeof(percent), "%.1f%%", fraction * 100.0);
    table.AddRow({std::to_string(batch.ops.size()),
                  std::to_string(preview->dirty_nodes.size()),
                  std::to_string(outcome->sets_repaired) +
                      (exact ? "" : " (EXPECTED " + std::to_string(expected) +
                                        ")"),
                  std::to_string(outcome->sets_kept), percent,
                  subsim::HumanSeconds(outcome->repair_seconds),
                  match ? "identical" : "MISMATCH"});
  }
  table.Print(std::cout);

  // Each round's store differs (earlier repairs resampled some sets), so
  // allow a small absolute slack on the monotonicity check.
  bool monotone = true;
  for (std::size_t i = 1; i < repaired_fractions.size(); ++i) {
    monotone = monotone &&
               repaired_fractions[i] + 0.02 >= repaired_fractions[i - 1];
  }

  if (!all_exact) {
    std::printf("\nFAIL: repair regenerated sets outside the affected "
                "frontier\n");
    return 1;
  }
  if (!all_match) {
    std::printf("\nFAIL: post-update warm answers diverged from cold\n");
    return 1;
  }
  if (!monotone) {
    std::printf("\nFAIL: repaired fraction not monotone in batch size\n");
    return 1;
  }
  if (repaired_fractions.front() >= 0.5) {
    std::printf("\nFAIL: 1-edge batch repaired %.1f%% of the store "
                "(incrementality bar is < 50%%)\n",
                repaired_fractions.front() * 100.0);
    return 1;
  }
  std::printf("\nPASS: repair exact on every batch, fraction monotone "
              "(%.1f%% at 1 edge -> %.1f%% at 64), all answers "
              "identical to cold\n",
              repaired_fractions.front() * 100.0,
              repaired_fractions.back() * 100.0);
  return 0;
}
