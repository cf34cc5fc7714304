#ifndef SUBSIM_BENCH_TRAJECTORY_SPEED_PROBE_H_
#define SUBSIM_BENCH_TRAJECTORY_SPEED_PROBE_H_

// References for how fast the host runs right now. On a shared host the same
// solve takes 20-60% longer for minutes at a time while neighbours load the
// cores and the memory system, which buries any change the benchmark is
// meant to see. A probe times a fixed piece of bench-owned work (no library
// code); a time divided by (probe time / kNominalMs) is what the operation
// would take on the host at its nominal speed, and the untraced run reports
// its timings that way.
//
// Each workload is scaled by the probe that shares its memory regime:
//
// - StreamProbe, for the solve workloads: one sequential pass summing a
//   64 MiB array, about as much memory as a solve's graph and RR sets
//   occupy. It runs on the solving thread between solves, so every solve
//   leaves it equally far out of cache. Over 5 minutes of fixed-work
//   OPIM-C and HIST solves on a shared 4-vCPU Xeon VM, 9 s windows of the
//   solve times tracked it with correlation 0.87-0.93 (log-log slope about
//   1.1), against 0.4-0.7 for ChaseProbe; scaling by it cut the spread of
//   the window medians from 15-24% to 4-8% (interquartile range over
//   median).
// - ChaseProbe, for serve-mixed: a chain of dependent loads over a 4 MiB
//   random cycle. Requests there touch a cache-resident graph and warm
//   stores, and the probe runs on the main thread beside the server, where
//   what the 64 MiB pass measures flips with whether neighbours let it stay
//   in L3 (its scaled latency spread 13-26%, against 4-20% with this one).
//
// Each probe's array is allocated and touched when the probe is built,
// before any set-up, so it is resident for the whole run and `kBytes` can be
// taken off the peak RSS exactly.

#include <chrono>
#include <cstdint>
#include <numeric>
#include <utility>
#include <vector>

namespace trajectory {

class StreamProbe {
 public:
  static constexpr std::size_t kBytes = std::size_t{64} << 20;
  /// A pass's time on the reference host (Xeon, 4 vCPUs of a shared machine,
  /// quiet neighbours): about its 10th percentile over 5 minutes.
  static constexpr double kNominalMs = 7.5;

  StreamProbe() : words_(kBytes / sizeof(std::uint64_t)) {
    std::iota(words_.begin(), words_.end(), std::uint64_t{1});
  }

  StreamProbe(const StreamProbe&) = delete;
  StreamProbe& operator=(const StreamProbe&) = delete;

  /// Runs one pass; returns its milliseconds.
  double Sample() {
    const auto start = std::chrono::steady_clock::now();
    std::uint64_t sum = 0;
    for (const std::uint64_t word : words_) {
      sum += word;
    }
    // Volatile, so the pass can neither be dropped nor moved out from
    // between the two clock reads.
    sink_ = sum;
    return std::chrono::duration<double, std::milli>(
               std::chrono::steady_clock::now() - start)
        .count();
  }

 private:
  std::vector<std::uint64_t> words_;
  volatile std::uint64_t sink_ = 0;
};

class ChaseProbe {
 public:
  static constexpr std::size_t kBytes = std::size_t{4} << 20;
  /// Loads per sample, and their time on the reference host (Xeon, 4 vCPUs
  /// of a shared machine, typical load): a sample lasts about 2.5 ms.
  static constexpr int kSteps = 20000;
  static constexpr double kNominalMs = 2.5;

  ChaseProbe() : next_(kSlots) {
    // One random cycle through every slot, fixed by a constant seed.
    std::vector<std::uint32_t> order(kSlots);
    std::iota(order.begin(), order.end(), 0u);
    std::uint64_t state = 0x9E3779B97F4A7C15ull;
    for (std::size_t i = kSlots - 1; i > 1; --i) {
      state = state * 6364136223846793005ull + 1442695040888963407ull;
      std::swap(order[i], order[1 + (state >> 33) % i]);
    }
    for (std::size_t i = 0; i < kSlots; ++i) {
      next_[order[i]] = order[(i + 1) % kSlots];
    }
  }

  ChaseProbe(const ChaseProbe&) = delete;
  ChaseProbe& operator=(const ChaseProbe&) = delete;

  /// Runs one sample; returns its milliseconds.
  double Sample() {
    const auto start = std::chrono::steady_clock::now();
    std::uint32_t slot = cursor_;
    for (int i = 0; i < kSteps; ++i) {
      slot = next_[slot];
    }
    cursor_ = slot;
    return std::chrono::duration<double, std::milli>(
               std::chrono::steady_clock::now() - start)
        .count();
  }

 private:
  static constexpr std::size_t kSlots = kBytes / sizeof(std::uint32_t);

  std::vector<std::uint32_t> next_;
  // Volatile, so the chain can neither be dropped nor moved out from
  // between the two clock reads.
  volatile std::uint32_t cursor_ = 0;
};

/// `times[i]`, taken by an operation that ran between `Probe` samples
/// `probe_ms[i]` and `probe_ms[i + 1]`, at the nominal host speed.
template <typename Probe>
std::vector<double> AtNominalSpeed(const std::vector<double>& times,
                                   const std::vector<double>& probe_ms) {
  std::vector<double> scaled;
  for (std::size_t i = 0; i < times.size() && i + 1 < probe_ms.size(); ++i) {
    scaled.push_back(times[i] * 2.0 * Probe::kNominalMs /
                     (probe_ms[i] + probe_ms[i + 1]));
  }
  return scaled;
}

}  // namespace trajectory

#endif  // SUBSIM_BENCH_TRAJECTORY_SPEED_PROBE_H_
