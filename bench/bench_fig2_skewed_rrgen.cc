// Figure 2: RR-set generation cost under skewed edge-weight distributions
// (exponential and Weibull, per-node normalized), vanilla vs SUBSIM.
//
// Paper shape to reproduce: SUBSIM beats the vanilla generator on every
// dataset — up to 38x under exponential and 25x under Weibull — because
// the vanilla loop flips one coin per in-edge while the subset samplers
// pay only O(1 + mu + log d) per activated node. The paper generates
// 2^10 x 1000 RR sets; we default to a scaled count (override with --quick
// for less). Both arms run `FillCollection` on one thread with the default
// kernel. The ctest `bench_fig2_skewed_rrgen_smoke` runs
// `--quick --scale=0.05 --datasets=pokec-s,twitter-s`.

#include <cstdio>
#include <iostream>
#include <string>

#include "subsim/benchsup/experiment.h"
#include "subsim/benchsup/reporting.h"
#include "subsim/rrset/generator_factory.h"
#include "subsim/rrset/parallel_fill.h"
#include "subsim/rrset/rr_collection.h"
#include "subsim/util/check.h"
#include "subsim/util/string_util.h"
#include "subsim/util/timer.h"

namespace {

/// Seconds for one single-thread `FillCollection` of `count` sets with the
/// default kernel, the path every solve runs. The graph's sampling plan is
/// built before the timer starts.
double TimeFill(const subsim::Graph& graph, subsim::GeneratorKind kind,
                std::size_t count, std::uint64_t seed) {
  const subsim::Status prepared = subsim::PrepareSamplingState(kind, graph);
  SUBSIM_CHECK(prepared.ok(), "%s", prepared.ToString().c_str());
  subsim::RrCollection collection(graph.num_nodes());
  subsim::RngStream rng = subsim::MakeRngStream(seed, 1);
  subsim::WallTimer timer;
  const subsim::Status filled = subsim::FillCollection(
      {.kind = kind, .graph = &graph, .rng = &rng, .count = count,
       .num_threads = 1, .sentinels = {}, .obs = {},
       .kernel = subsim::FillKernel::kAuto},
      &collection);
  const double seconds = timer.ElapsedSeconds();
  SUBSIM_CHECK(filled.ok(), "%s", filled.ToString().c_str());
  return seconds;
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

    subsim::TablePrinter table({"dataset", "vanilla", "SUBSIM", "speedup"});
    for (const std::string& dataset : subsim::SelectDatasets(*args)) {
      subsim::WeightModelParams params;
      params.seed = args->seed;
      const auto graph = subsim::BuildDatasetGraph(
          dataset, args->scale, args->seed, model, params);
      if (!graph.ok()) {
        std::fprintf(stderr, "%s: %s\n", dataset.c_str(),
                     graph.status().ToString().c_str());
        return 1;
      }

      const double vanilla_s = TimeFill(
          *graph, subsim::GeneratorKind::kVanillaIc, rr_count, args->seed);
      const double subsim_s = TimeFill(
          *graph, subsim::GeneratorKind::kSubsimIc, rr_count, args->seed);
      table.AddRow({dataset, subsim::HumanSeconds(vanilla_s),
                    subsim::HumanSeconds(subsim_s),
                    subsim::FormatSpeedup(vanilla_s, subsim_s)});
    }
    std::printf("--- %s distribution ---\n", distribution);
    table.Print(std::cout);
    std::printf("\n");
  }
  std::printf(
      "Expected shape (paper): SUBSIM wins on every dataset; the gap\n"
      "roughly tracks the degree skew (paper: up to 38x exponential,\n"
      "25x Weibull). SUBSIM samples every skewed in-row with the\n"
      "index-free sorted method of Section 3.3.\n");
  return 0;
}
