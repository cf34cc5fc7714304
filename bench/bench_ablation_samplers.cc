// Ablation: the subset-sampling kernels across set sizes and probability
// shapes (DESIGN.md "sampler choice" design choice).
//
// For the same probability vector, compare nanoseconds per sample:
//   naive     — `SampleSubsetNaive`, one coin per element (vanilla
//               behaviour, O(h));
//   geometric — `SampleUniformSubsetSkips` (uniform probabilities only,
//               O(1 + mu); "n/a" on the other shapes);
//   sorted    — `SampleSortedSubset` on the descending-sorted copy:
//               index-free position buckets (O(1 + mu + log h)).
// The crossover structure justifies the SUBSIM generator's per-node plan
// dispatch: naive only ever wins when h is tiny. `--quick` (the ctest
// `bench_ablation_samplers_smoke`) runs the same table with fewer draws.

#include <algorithm>
#include <cstdio>
#include <functional>
#include <iostream>
#include <string>
#include <vector>

#include "subsim/benchsup/experiment.h"
#include "subsim/benchsup/reporting.h"
#include "subsim/random/geometric.h"
#include "subsim/random/rng.h"
#include "subsim/sampling/inline_sampling.h"
#include "subsim/util/timer.h"

namespace {

std::vector<double> MakeProbs(const std::string& shape, std::size_t h) {
  std::vector<double> probs(h);
  if (shape == "uniform-1/h") {
    for (auto& p : probs) {
      p = 1.0 / static_cast<double>(h);
    }
  } else if (shape == "zipf") {
    // Descending 1/rank, scaled so mu ~ log(h).
    for (std::size_t i = 0; i < h; ++i) {
      probs[i] = 1.0 / static_cast<double>(i + 1);
    }
  } else {  // "random": iid uniforms scaled to mu ~ 2.
    subsim::Rng rng(17);
    for (auto& p : probs) {
      p = rng.NextDouble() * 4.0 / static_cast<double>(h);
      if (p > 1.0) {
        p = 1.0;
      }
    }
  }
  return probs;
}

using Sample = std::vector<std::uint32_t>;

/// The kernels' `emit` callback: appends each sampled index to `*out`.
auto AppendTo(Sample* out) {
  return [out](std::uint32_t i) { out->push_back(i); };
}

/// Nanoseconds per `draw(rng, &out)` call, each drawing one subset sample.
template <class Draw>
double NanosPerSample(const Draw& draw, int iterations) {
  subsim::Rng rng(23);
  Sample out;
  subsim::WallTimer timer;
  std::size_t sink = 0;
  for (int i = 0; i < iterations; ++i) {
    out.clear();
    draw(rng, &out);
    sink += out.size();
  }
  const double nanos = timer.ElapsedSeconds() * 1e9 / iterations;
  // Keep the compiler from optimizing the loop away.
  if (sink == static_cast<std::size_t>(-1)) {
    std::printf("impossible\n");
  }
  return nanos;
}

}  // namespace

int main(int argc, char** argv) {
  const auto args = subsim::ExperimentArgs::Parse(argc, argv, 0.25);
  if (!args.ok()) {
    std::fprintf(stderr, "%s\n", args.status().ToString().c_str());
    return 1;
  }
  const int iterations = args->quick ? 20000 : 100000;

  std::printf("Ablation: subset-sampler cost (ns per Sample call)\n\n");
  subsim::TablePrinter table({"shape", "h", "mu", "naive", "geometric",
                              "sorted"});
  for (const char* shape : {"uniform-1/h", "zipf", "random"}) {
    for (const std::size_t h : {16ul, 256ul, 4096ul, 65536ul}) {
      std::vector<double> probs = MakeProbs(shape, h);

      // Large-h naive cells cost ~200us per draw; scale iterations so no
      // cell dominates the run while keeping >= 2k draws of statistics.
      const int cell_iterations =
          h >= 4096 ? std::max(2000, iterations / 20) : iterations;
      const auto measure = [&](const auto& draw) {
        return subsim::FormatDouble(NanosPerSample(draw, cell_iterations), 0);
      };

      const bool uniform =
          std::all_of(probs.begin(), probs.end(),
                      [&](double p) { return p == probs.front(); });
      std::string geometric = "n/a";
      if (uniform) {
        const double inv_log_q = subsim::GeometricInvLogQ(probs.front());
        geometric = measure([&](subsim::Rng& rng, Sample* out) {
          subsim::SampleUniformSubsetSkips(h, inv_log_q, rng, AppendTo(out));
        });
      }
      std::vector<double> sorted = probs;
      std::sort(sorted.begin(), sorted.end(), std::greater<>());

      double mu = 0.0;
      for (double p : probs) {
        mu += p;
      }
      table.AddRow(
          {shape, std::to_string(h), subsim::FormatDouble(mu, 2),
           measure([&](subsim::Rng& rng, Sample* out) {
             subsim::SampleSubsetNaive(probs, rng, AppendTo(out));
           }),
           geometric,
           measure([&](subsim::Rng& rng, Sample* out) {
             subsim::SampleSortedSubset(sorted, rng, AppendTo(out));
           })});
    }
  }
  table.Print(std::cout);
  std::printf(
      "\nExpected: naive cost grows linearly in h; the two subset\n"
      "samplers stay ~flat (O(1 + mu) and O(1 + mu + log h)), which is\n"
      "Lemma 3 and Section 3.3 in action.\n");
  return 0;
}
