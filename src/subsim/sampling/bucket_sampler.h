#ifndef SUBSIM_SAMPLING_BUCKET_SAMPLER_H_
#define SUBSIM_SAMPLING_BUCKET_SAMPLER_H_

#include <cstdint>
#include <vector>

#include "subsim/random/alias_table.h"
#include "subsim/random/rng.h"

namespace subsim {

/// General-probability subset sampling in O(1 + mu) expected time with O(h)
/// preprocessing — Lemma 5 of the paper (after Bringmann–Panagiotou), with
/// the alias-table bucket-hopping refinement of Section 3.3.
///
/// Construction groups elements into power-of-two probability buckets
/// (bucket k holds p in (2^-(k-1), 2^-k]); within a bucket, geometric skips
/// at the bucket cap 2^-k plus rejection p_i / 2^-k realize exact
/// per-element probabilities. Whether bucket k receives at least one
/// geometric hit is an independent event with probability
/// p'_k = 1 - (1 - 2^-k)^{|B_k|}, so the set of "entered" buckets is itself
/// an independent subset-sampling instance over <= ~64 buckets; it is drawn
/// in O(1 + #entered) via per-bucket alias tables over "which bucket is
/// entered next" (the paper's T[i][j] table). Within an entered bucket, the
/// first hit is drawn from the geometric distribution conditioned on
/// landing inside the bucket.
class BucketSubsetSampler {
 public:
  /// `probs` are inclusion probabilities in [0, 1] (checked).
  explicit BucketSubsetSampler(std::vector<double> probs);

  /// Appends the sampled element indices to `*out` (not cleared), grouped
  /// by probability bucket rather than sorted. `geometric_draws` and
  /// `rejection_accepts`, when non-null, accumulate the geometric draws and
  /// accepted rejection trials; counting never changes the RNG stream (the
  /// singleton and cap == 1 shortcuts take no geometric draws, so they
  /// count nothing).
  void Sample(Rng& rng, std::vector<std::uint32_t>* out,
              std::uint64_t* geometric_draws = nullptr,
              std::uint64_t* rejection_accepts = nullptr) const;

  /// Number of non-empty probability buckets (exposed for tests).
  std::size_t num_buckets() const { return buckets_.size(); }

 private:
  struct Bucket {
    /// Original element indices, ascending.
    std::vector<std::uint32_t> elements;
    /// Element probabilities aligned with `elements`.
    std::vector<double> probs;
    /// Bucket probability cap 2^-k (>= every element probability).
    double cap = 1.0;
    /// 1 / log(1 - cap); only valid when cap < 1.
    double inv_log_q = 0.0;
    /// q^size = (1 - cap)^{|B|}, the miss probability of the whole bucket.
    double miss_all = 0.0;
    /// Entry probability p' = 1 - miss_all.
    double entry_prob = 1.0;
  };

  void SampleWithinBucket(const Bucket& bucket, Rng& rng,
                          std::vector<std::uint32_t>* out,
                          std::uint64_t* geometric_draws,
                          std::uint64_t* rejection_accepts) const;

  std::vector<Bucket> buckets_;
  /// next_hop_[i] samples which bucket (> i-1) is entered next when the
  /// current bucket is i-1 (next_hop_[0] is the initial table). Outcome
  /// value b < buckets_.size() means "bucket b"; value == buckets_.size()
  /// means "no further bucket".
  std::vector<AliasTable> next_hop_;
  /// Map from alias outcome to bucket id, per hop table.
  std::vector<std::vector<std::uint32_t>> hop_outcomes_;
};

}  // namespace subsim

#endif  // SUBSIM_SAMPLING_BUCKET_SAMPLER_H_
