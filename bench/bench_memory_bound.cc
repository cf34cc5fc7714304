// Memory-bounded scale: what the delta-varint arena actually buys,
// measured on the calibrated WC stand-ins.
//
// Full mode sweeps the RR-size ladder and prints, per rung: raw vs
// encoded arena bytes, the compression ratio, and whether the two
// encodings hold the same sample stream.
//
// `--smoke` is the CI gate (non-zero exit on failure):
//   - the two encodings hold the identical logical sample stream;
//   - compression ratio >= 3x on the dense-WC rung (the delta gaps on a
//     calibrated graph fit one varint byte, so anything under ~3.5x means
//     the encoder regressed);
//   - with --metrics-json, the run exports the `rr.arena_bytes` gauge in
//     the standard schema.

#include <cstdint>
#include <cstdio>
#include <cstring>
#include <iostream>
#include <string>
#include <utility>
#include <vector>

#include "bench_common.h"
#include "subsim/benchsup/reporting.h"
#include "subsim/rrset/parallel_fill.h"
#include "subsim/rrset/rr_collection.h"
#include "subsim/rrset/rr_encoding.h"

namespace {

struct EncodedPair {
  subsim::RrCollection raw;
  subsim::RrCollection delta;
};

/// Fills `count` RR sets from the same stream into a raw and a
/// delta-varint collection; the streams are identical by construction, so
/// any logical divergence is a decode bug.
subsim::Result<EncodedPair> FillBoth(const subsim::Graph& graph,
                                     std::uint64_t seed, std::size_t count,
                                     subsim_bench::BenchObs* obs) {
  EncodedPair pair{
      subsim::RrCollection(graph.num_nodes(), subsim::RrEncoding::kRaw),
      subsim::RrCollection(graph.num_nodes(),
                           subsim::RrEncoding::kDeltaVarint)};
  for (subsim::RrCollection* out : {&pair.raw, &pair.delta}) {
    subsim::RngStream rng = subsim::MakeRngStream(seed, 1);
    subsim::FillRequest request;
    request.kind = subsim::GeneratorKind::kSubsimIc;
    request.graph = &graph;
    request.rng = &rng;
    request.count = count;
    request.obs = obs->Context();
    if (const subsim::Status status = subsim::FillCollection(request, out);
        !status.ok()) {
      return status;
    }
  }
  return pair;
}

bool LogicallyIdentical(const subsim::RrCollection& raw,
                        const subsim::RrCollection& delta) {
  if (raw.num_sets() != delta.num_sets() ||
      raw.total_nodes() != delta.total_nodes()) {
    return false;
  }
  // The inverted index is the seed-determining structure; it must match
  // row for row. (Set bodies differ only in order: delta stores sorted.)
  for (subsim::NodeId v = 0; v < raw.num_graph_nodes(); ++v) {
    const auto a = raw.SetsContaining(v);
    const auto b = delta.SetsContaining(v);
    if (a.size() != b.size() || !std::equal(a.begin(), a.end(), b.begin())) {
      return false;
    }
  }
  return true;
}

struct RungResult {
  double ratio = 0.0;
  std::uint64_t raw_bytes = 0;
  std::uint64_t delta_bytes = 0;
  bool identical = false;
};

subsim::Result<RungResult> RunRung(const subsim::Graph& graph,
                                   std::uint64_t seed, std::size_t count,
                                   subsim_bench::BenchObs* obs) {
  auto pair = FillBoth(graph, seed, count, obs);
  if (!pair.ok()) {
    return pair.status();
  }
  RungResult result;
  result.raw_bytes = pair->raw.arena_bytes();
  result.delta_bytes = pair->delta.arena_bytes();
  result.ratio = result.delta_bytes == 0
                     ? 0.0
                     : static_cast<double>(result.raw_bytes) /
                           static_cast<double>(result.delta_bytes);
  result.identical = LogicallyIdentical(pair->raw, pair->delta);
  return result;
}

int RunSmoke(const subsim::ExperimentArgs& args) {
  subsim_bench::BenchObs obs(args);
  // Dense rung: n ~= 5000 with RR sets averaging ~400 nodes, so the
  // sorted gaps almost all fit one varint byte.
  auto calibrated = subsim_bench::BuildCalibrated(
      "pokec-s", /*scale=*/0.05, args.seed, subsim::WeightModel::kWcVariant,
      /*target_avg_rr_size=*/400.0);
  if (!calibrated.ok()) {
    std::fprintf(stderr, "calibration: %s\n",
                 calibrated.status().ToString().c_str());
    return 1;
  }
  std::printf("smoke graph: n=%u avg_rr=%.0f (theta=%.4g)\n",
              calibrated->graph.num_nodes(),
              calibrated->achieved_avg_rr_size, calibrated->parameter);

  auto rung = RunRung(calibrated->graph, args.seed, /*count=*/4000, &obs);
  if (!rung.ok()) {
    std::fprintf(stderr, "%s\n", rung.status().ToString().c_str());
    return 1;
  }
  std::printf("arena: raw %llu B, delta %llu B, ratio %.2fx (bar: 3x)\n",
              static_cast<unsigned long long>(rung->raw_bytes),
              static_cast<unsigned long long>(rung->delta_bytes),
              rung->ratio);

  if (!obs.Write()) {
    return 1;
  }
  bool ok = true;
  if (!rung->identical) {
    std::fprintf(stderr, "FAIL: encodings disagree on the sample stream\n");
    ok = false;
  }
  if (rung->ratio < 3.0) {
    std::fprintf(stderr, "FAIL: compression ratio %.2fx < 3x\n", rung->ratio);
    ok = false;
  }
  if (ok) {
    std::printf("ok: encoded stream identical, ratio within its bar\n");
  }
  return ok ? 0 : 1;
}

int RunFull(const subsim::ExperimentArgs& args) {
  subsim_bench::BenchObs obs(args);
  subsim::TablePrinter table(
      {"avg_rr", "raw MB", "delta MB", "ratio", "identical"});
  for (const double target : subsim_bench::RrSizeLadder(args.quick)) {
    auto calibrated = subsim_bench::BuildCalibrated(
        "pokec-s", args.scale, args.seed, subsim::WeightModel::kWcVariant,
        target);
    if (!calibrated.ok()) {
      std::fprintf(stderr, "calibration(%g): %s\n", target,
                   calibrated.status().ToString().c_str());
      return 1;
    }
    const std::size_t count = args.quick ? 4000 : 20000;
    auto rung = RunRung(calibrated->graph, args.seed, count, &obs);
    if (!rung.ok()) {
      std::fprintf(stderr, "%s\n", rung.status().ToString().c_str());
      return 1;
    }
    table.AddRow({subsim::FormatDouble(calibrated->achieved_avg_rr_size, 0),
                  subsim::FormatDouble(rung->raw_bytes / 1048576.0, 2),
                  subsim::FormatDouble(rung->delta_bytes / 1048576.0, 2),
                  subsim::FormatDouble(rung->ratio, 2),
                  rung->identical ? "yes" : "NO"});
  }
  table.Print(std::cout);
  return obs.Write() ? 0 : 1;
}

}  // namespace

int main(int argc, char** argv) {
  bool smoke = false;
  std::vector<char*> rest;
  rest.push_back(argv[0]);
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--smoke") == 0) {
      smoke = true;
    } else {
      rest.push_back(argv[i]);
    }
  }
  const auto args = subsim::ExperimentArgs::Parse(
      static_cast<int>(rest.size()), rest.data(), /*default_scale=*/0.25);
  if (!args.ok()) {
    std::fprintf(stderr, "%s\n", args.status().ToString().c_str());
    return 1;
  }
  return smoke ? RunSmoke(*args) : RunFull(*args);
}
