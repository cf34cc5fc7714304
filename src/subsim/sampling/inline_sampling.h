#ifndef SUBSIM_SAMPLING_INLINE_SAMPLING_H_
#define SUBSIM_SAMPLING_INLINE_SAMPLING_H_

#include <cstdint>
#include <span>

#include "subsim/random/geometric.h"
#include "subsim/random/rng.h"

namespace subsim {

/// Independent subset sampling (paper Section 3.1): given h elements with
/// inclusion probabilities p_0..p_{h-1}, draw a random subset where element
/// i appears independently with probability p_i. These allocation-free
/// kernels are the library's only subset-sampling API; the RR-set
/// generators call them directly on the hot path. With mu = sum of the
/// probabilities:
///  * `SampleUniformSubsetSkips` — equal probabilities, O(1 + mu)
///                                  (Lemma 3);
///  * `SampleSubsetNaive`        — one coin per element, O(h) (the vanilla
///                                  baseline);
///  * `SampleSortedSubset`       — non-increasing probabilities, index-free,
///                                  O(1 + mu + log h) (Section 3.3); SUBSIM
///                                  samples every skewed in-row with it.
/// The paper's indexed bucket method (Lemma 5, O(1 + mu) after an O(h)
/// build) is not kept: measured on the Figure 2 workloads it was slower
/// than the sorted kernel and cost O(m) memory per graph (EXPERIMENTS.md,
/// "one general-IC sampler").
///
/// Each kernel invokes `emit(i)` for every sampled index i (in increasing
/// order). `Emit` may return void.

/// Equal-probability subset sampling via geometric skips (Algorithm 3
/// lines 7-13). `inv_log_q` must be `GeometricInvLogQ(p)` for the shared
/// probability p in (0, 1). Expected cost O(1 + h*p).
///
/// `geometric_draws`, when non-null, accumulates the number of geometric
/// samples taken. One invariant the metrics tests lean on: every call
/// draws exactly `emits + 1` times (each emitted index consumed one draw,
/// plus the final draw that overshot the list).
template <typename Emit>
void SampleUniformSubsetSkips(std::uint64_t h, double inv_log_q, Rng& rng,
                              Emit&& emit,
                              std::uint64_t* geometric_draws = nullptr) {
  std::uint64_t draws = 1;
  std::uint64_t pos = SampleGeometricFast(rng, inv_log_q);
  while (pos <= h) {
    emit(static_cast<std::uint32_t>(pos - 1));
    const std::uint64_t skip = SampleGeometricFast(rng, inv_log_q);
    ++draws;
    if (skip > h - pos) {
      break;  // jumped past the end; avoids overflow of pos + skip
    }
    pos += skip;
  }
  if (geometric_draws != nullptr) {
    *geometric_draws += draws;
  }
}

/// Naive per-element Bernoulli sampling — the vanilla baseline
/// (Algorithm 2's inner loop). Cost O(h).
template <typename Emit>
void SampleSubsetNaive(std::span<const double> probs, Rng& rng, Emit&& emit) {
  for (std::size_t i = 0; i < probs.size(); ++i) {
    if (rng.Bernoulli(probs[i])) {
      emit(static_cast<std::uint32_t>(i));
    }
  }
}

/// Index-free subset sampling for probabilities sorted in descending order
/// (paper Section 3.3): position-bucket [2^k, 2^{k+1}) uses the bucket's
/// first (maximal) probability for geometric skipping, then accepts element
/// at position pos with probability probs[pos] / bucket_max. Expected cost
/// O(1 + mu + log h).
///
/// Requires probs to be non-increasing; the graph builder orders every
/// skewed in-row this way.
///
/// `geometric_draws` and `rejection_accepts`, when non-null, accumulate the
/// kernel's geometric samples and accepted rejection trials.
template <typename Emit>
void SampleSortedSubset(std::span<const double> probs, Rng& rng, Emit&& emit,
                        std::uint64_t* geometric_draws = nullptr,
                        std::uint64_t* rejection_accepts = nullptr) {
  const std::uint64_t h = probs.size();
  std::uint64_t bucket_begin = 0;  // inclusive, position indices from 0
  std::uint64_t bucket_size = 1;
  while (bucket_begin < h) {
    const std::uint64_t end =
        bucket_begin + bucket_size < h ? bucket_begin + bucket_size : h;
    const double p_max = probs[bucket_begin];
    if (p_max <= 0.0) {
      break;  // sorted: everything after is zero too
    }
    if (p_max >= 1.0) {
      // Geometric skipping breaks down at p == 1; test each element
      // directly (all have probability <= 1 but the first is 1).
      for (std::uint64_t pos = bucket_begin; pos < end; ++pos) {
        if (rng.Bernoulli(probs[pos])) {
          emit(static_cast<std::uint32_t>(pos));
        }
      }
    } else {
      const double inv_log_q = GeometricInvLogQ(p_max);
      std::uint64_t pos = bucket_begin;
      while (true) {
        const std::uint64_t skip = SampleGeometricFast(rng, inv_log_q);
        if (geometric_draws != nullptr) {
          ++*geometric_draws;
        }
        if (skip > end - pos) {
          break;
        }
        pos += skip;
        const std::uint64_t index = pos - 1;
        // Rejection: accept with probs[index] / p_max so the element's
        // overall inclusion probability is exactly probs[index].
        if (rng.NextDouble() * p_max < probs[index]) {
          if (rejection_accepts != nullptr) {
            ++*rejection_accepts;
          }
          emit(static_cast<std::uint32_t>(index));
        }
      }
    }
    bucket_begin = end;
    bucket_size <<= 1;
  }
}

}  // namespace subsim

#endif  // SUBSIM_SAMPLING_INLINE_SAMPLING_H_
