// Serving-cache reuse: the win the serve subsystem exists for.
//
// A stream of growing-k queries against one graph is the canonical serving
// workload (an analyst ratcheting the budget up). Cold, every query pays
// its full RR-sampling bill from scratch; warm, the shared `SampleStore`
// means each query only generates the gap beyond the longest prefix any
// earlier query committed. Counter-based sample streams make this reuse
// exact: every warm answer is bit-identical to the cold solve with the
// same options, whatever thread count filled the store.
//
// Pass criteria (checked, non-zero exit on failure):
//   - warm runs generate >= 5x fewer new RR sets than cold runs in total;
//   - every warm seed set equals the equivalent cold solve's seed set.

#include <cstdint>
#include <cstdio>
#include <iostream>
#include <string>
#include <utility>
#include <vector>

#include "subsim/algo/registry.h"
#include "subsim/benchsup/reporting.h"
#include "subsim/graph/generators.h"
#include "subsim/graph/graph_builder.h"
#include "subsim/graph/weight_models.h"
#include "subsim/serve/graph_registry.h"
#include "subsim/serve/query.h"
#include "subsim/serve/query_engine.h"
#include "subsim/util/string_util.h"

namespace {

constexpr std::uint64_t kSeed = 13;
constexpr double kEpsilon = 0.1;

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

subsim::SelectSeedsQuery MakeQuery(const std::string& algo,
                                   std::uint32_t k) {
  subsim::SelectSeedsQuery query;
  query.graph = "bench";
  query.algo = algo;
  query.k = k;
  query.epsilon = kEpsilon;
  query.rng_seed = kSeed;
  query.generator = subsim::GeneratorKind::kSubsimIc;
  return query;
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

  const std::vector<std::uint32_t> k_values = {5,  10, 15, 20, 25,
                                               30, 35, 40, 45, 50};
  std::printf(
      "Serving-cache reuse: growing-k query stream, BA n=3000 WC, "
      "eps=%.2g, seed=%llu\n\n",
      kEpsilon, static_cast<unsigned long long>(kSeed));

  bool all_seeds_match = true;
  std::uint64_t grand_cold = 0;
  std::uint64_t grand_warm = 0;
  double grand_cold_seconds = 0.0;
  double grand_warm_seconds = 0.0;

  for (const std::string algo : {"opim-c", "imm"}) {
    auto algorithm = subsim::MakeImAlgorithm(algo);
    if (!algorithm.ok()) {
      std::fprintf(stderr, "%s\n", algorithm.status().ToString().c_str());
      return 1;
    }
    auto snapshot = registry.GetSnapshot("bench");
    if (!snapshot.ok()) {
      return 1;
    }

    subsim::QueryEngine engine(&registry);
    subsim::TablePrinter table({"k", "cold sets", "warm new", "warm reused",
                                "cold s", "warm s", "seeds"});
    std::uint64_t cold_total = 0;
    std::uint64_t warm_total = 0;

    for (const std::uint32_t k : k_values) {
      const subsim::SelectSeedsQuery query = MakeQuery(algo, k);

      const auto cold =
          (*algorithm)->Run(*snapshot->graph, query.ToImOptions());
      if (!cold.ok()) {
        std::fprintf(stderr, "cold %s k=%u: %s\n", algo.c_str(), k,
                     cold.status().ToString().c_str());
        return 1;
      }
      const subsim::QueryResponse warm = engine.Execute(query);
      if (!warm.status.ok()) {
        std::fprintf(stderr, "warm %s k=%u: %s\n", algo.c_str(), k,
                     warm.status.ToString().c_str());
        return 1;
      }

      const bool match = warm.result.seeds == cold->seeds;
      all_seeds_match = all_seeds_match && match;
      cold_total += cold->num_rr_sets;
      warm_total += warm.stats.rr_sets_generated;
      grand_cold_seconds += cold->seconds;
      grand_warm_seconds += warm.stats.exec_seconds;

      table.AddRow({std::to_string(k), std::to_string(cold->num_rr_sets),
                    std::to_string(warm.stats.rr_sets_generated),
                    std::to_string(warm.stats.rr_sets_reused),
                    subsim::HumanSeconds(cold->seconds),
                    subsim::HumanSeconds(warm.stats.exec_seconds),
                    match ? "identical" : "MISMATCH"});
    }

    std::printf("%s:\n", algo.c_str());
    table.Print(std::cout);
    const double ratio =
        warm_total == 0 ? 0.0
                        : static_cast<double>(cold_total) /
                              static_cast<double>(warm_total);
    std::printf("  cold generated %llu sets, warm generated %llu (%.1fx "
                "fewer)\n\n",
                static_cast<unsigned long long>(cold_total),
                static_cast<unsigned long long>(warm_total), ratio);
    grand_cold += cold_total;
    grand_warm += warm_total;
  }

  const double overall =
      grand_warm == 0 ? 0.0
                      : static_cast<double>(grand_cold) /
                            static_cast<double>(grand_warm);
  std::printf("overall: cold %llu sets in %s, warm %llu sets in %s "
              "(%.1fx fewer new sets)\n",
              static_cast<unsigned long long>(grand_cold),
              subsim::HumanSeconds(grand_cold_seconds).c_str(),
              static_cast<unsigned long long>(grand_warm),
              subsim::HumanSeconds(grand_warm_seconds).c_str(), overall);

  if (!all_seeds_match) {
    std::printf("FAIL: warm seed sets diverged from cold solves\n");
    return 1;
  }
  if (overall < 5.0) {
    std::printf("FAIL: reuse ratio %.1fx below the 5x bar\n", overall);
    return 1;
  }
  std::printf("PASS: warm/cold seeds identical, reuse ratio %.1fx\n",
              overall);
  return 0;
}
