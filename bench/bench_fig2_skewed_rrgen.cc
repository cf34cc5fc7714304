// Figure 2: RR-set generation cost under skewed edge-weight distributions
// (exponential and Weibull, per-node normalized), vanilla vs SUBSIM.
//
// Paper shape to reproduce: SUBSIM beats the vanilla generator on every
// dataset — up to 38x under exponential and 25x under Weibull — because
// the vanilla loop flips one coin per in-edge while the subset samplers
// pay only O(1 + mu) per activated node. The paper generates 2^10 x 1000
// RR sets; we default to a scaled count (override with --quick for less).

#include <cstdio>
#include <iostream>
#include <memory>
#include <vector>

#include "subsim/benchsup/datasets.h"
#include "subsim/benchsup/experiment.h"
#include "subsim/benchsup/reporting.h"
#include "subsim/graph/graph_builder.h"
#include "subsim/rrset/subsim_ic_generator.h"
#include "subsim/rrset/vanilla_ic_generator.h"
#include "subsim/util/string_util.h"
#include "subsim/util/timer.h"

namespace {

double TimeGeneration(subsim::RrGenerator& generator, std::size_t count,
                      std::uint64_t seed) {
  subsim::Rng rng(seed);
  std::vector<subsim::NodeId> scratch;
  subsim::WallTimer timer;
  for (std::size_t i = 0; i < count; ++i) {
    generator.Generate(rng, &scratch);
  }
  return timer.ElapsedSeconds();
}

}  // namespace

int main(int argc, char** argv) {
  const auto args = subsim::ExperimentArgs::Parse(argc, argv, 0.25);
  if (!args.ok()) {
    std::fprintf(stderr, "%s\n", args.status().ToString().c_str());
    return 1;
  }
  const std::size_t rr_count = args->quick ? 20000 : 50000;

  std::printf(
      "Figure 2: skewed-distribution RR generation cost (%zu RR sets)\n\n",
      rr_count);
  for (const char* distribution : {"exponential", "weibull"}) {
    const subsim::WeightModel model =
        std::string(distribution) == "exponential"
            ? subsim::WeightModel::kExponential
            : subsim::WeightModel::kWeibull;

    subsim::TablePrinter table({"dataset", "vanilla", "SUBSIM(bucket)",
                                "SUBSIM(sorted)", "bucket speedup",
                                "sorted speedup"});
    for (const std::string& dataset : subsim::SelectDatasets(*args)) {
      subsim::WeightModelParams params;
      params.seed = args->seed;

      // Two builds of the same weighted graph: SUBSIM samples skewed rows
      // with per-node bucket samplers on the natural order and with the
      // index-free sorted kernel on the weight-sorted build.
      const auto graph = subsim::BuildDatasetGraph(
          dataset, args->scale, args->seed, model, params,
          /*sort_in_edges=*/false);
      const auto sorted_graph = subsim::BuildDatasetGraph(
          dataset, args->scale, args->seed, model, params,
          /*sort_in_edges=*/true);
      if (!graph.ok() || !sorted_graph.ok()) {
        std::fprintf(stderr, "%s: build failed\n", dataset.c_str());
        return 1;
      }

      subsim::VanillaIcGenerator vanilla(*graph);
      subsim::SubsimIcGenerator bucket(*graph);
      subsim::SubsimIcGenerator sorted(*sorted_graph);

      const double vanilla_s = TimeGeneration(vanilla, rr_count, args->seed);
      const double bucket_s = TimeGeneration(bucket, rr_count, args->seed);
      const double sorted_s = TimeGeneration(sorted, rr_count, args->seed);

      table.AddRow({dataset, subsim::HumanSeconds(vanilla_s),
                    subsim::HumanSeconds(bucket_s),
                    subsim::HumanSeconds(sorted_s),
                    subsim::FormatSpeedup(vanilla_s, bucket_s),
                    subsim::FormatSpeedup(vanilla_s, sorted_s)});
    }
    std::printf("--- %s distribution ---\n", distribution);
    table.Print(std::cout);
    std::printf("\n");
  }
  std::printf(
      "Expected shape (paper): SUBSIM wins on every dataset; the gap\n"
      "roughly tracks the degree skew (paper: up to 38x exponential,\n"
      "25x Weibull). The indexed bucket sampler can fall to ~parity with\n"
      "vanilla on flat-degree graphs — the paper's own caveat about index\n"
      "overheads (Section 3.3) and its motivation for the index-free\n"
      "sorted variant, which stays ahead everywhere.\n");
  return 0;
}
