#include "subsim/sampling/bucket_sampler.h"

#include <cmath>
#include <map>

#include "subsim/random/geometric.h"
#include "subsim/util/check.h"

namespace subsim {

namespace {

/// Maximum bucket exponent: probabilities below 2^-kMaxBucketExp are lumped
/// into the final bucket (its cap still dominates them, so the rejection
/// step stays correct; only the acceptance ratio degrades, and mu there is
/// negligible by construction).
constexpr int kMaxBucketExp = 64;

/// Bucket exponent k for probability p in (0, 1]: the k with
/// p in (2^-(k+1), 2^-k], i.e. floor(-log2(p)), clamped to
/// [0, kMaxBucketExp].
int BucketExponent(double p) {
  SUBSIM_DCHECK(p > 0.0 && p <= 1.0, "bucket exponent needs p in (0,1]");
  if (p >= 1.0) {
    return 0;
  }
  int exp = 0;
  // frexp: p = f * 2^e with f in [0.5, 1). Then p in [2^{e-1}, 2^e).
  const double f = std::frexp(p, &exp);
  // p in (2^-(k+1), 2^-k]  <=>  -log2(p) in [k, k+1). For f == 0.5 exactly,
  // p == 2^{e-1} is the *closed* upper end of bucket k = 1-e.
  int k = (f == 0.5) ? (1 - exp) : -exp;
  if (k < 0) {
    k = 0;
  }
  if (k > kMaxBucketExp) {
    k = kMaxBucketExp;
  }
  return k;
}

}  // namespace

BucketSubsetSampler::BucketSubsetSampler(std::vector<double> probs) {
  // Group elements by bucket exponent; std::map keeps exponents sorted so
  // bucket order matches decreasing probability caps.
  std::map<int, Bucket> by_exp;
  for (std::size_t i = 0; i < probs.size(); ++i) {
    const double p = probs[i];
    SUBSIM_CHECK(p >= 0.0 && p <= 1.0, "probability out of [0,1]: %f", p);
    if (p <= 0.0) {
      continue;
    }
    const int k = BucketExponent(p);
    Bucket& bucket = by_exp[k];
    bucket.elements.push_back(static_cast<std::uint32_t>(i));
    bucket.probs.push_back(p);
    bucket.cap = std::ldexp(1.0, -k);  // 2^-k
  }

  buckets_.reserve(by_exp.size());
  for (auto& [k, bucket] : by_exp) {
    if (bucket.elements.size() == 1) {
      // Singleton shortcut: let the hop table carry the element's exact
      // probability, so entering the bucket *is* sampling the element —
      // no geometric draw, no rejection.
      bucket.entry_prob = bucket.probs[0];
      bucket.miss_all = 1.0 - bucket.entry_prob;
    } else if (bucket.cap < 1.0) {
      bucket.inv_log_q = GeometricInvLogQ(bucket.cap);
      bucket.miss_all = std::pow(1.0 - bucket.cap,
                                 static_cast<double>(bucket.elements.size()));
      bucket.entry_prob = 1.0 - bucket.miss_all;
    } else {
      bucket.miss_all = 0.0;  // cap == 1: always entered
      bucket.entry_prob = 1.0;
    }
    buckets_.push_back(std::move(bucket));
  }

  // Hop tables: hop i is used when the current bucket is i-1 (i == 0 for
  // the start). Outcome weights: entering bucket j next has probability
  // p'_j * prod_{i <= t < j} (1 - p'_t); stopping has the full-miss tail.
  const std::size_t num_buckets = buckets_.size();
  next_hop_.resize(num_buckets + 1);
  hop_outcomes_.resize(num_buckets + 1);
  for (std::size_t i = 0; i <= num_buckets; ++i) {
    std::vector<double> weights;
    std::vector<std::uint32_t> outcomes;
    double survive = 1.0;  // prod of (1 - p'_t) for buckets skipped so far
    for (std::size_t j = i; j < num_buckets; ++j) {
      weights.push_back(survive * buckets_[j].entry_prob);
      outcomes.push_back(static_cast<std::uint32_t>(j));
      survive *= 1.0 - buckets_[j].entry_prob;
    }
    weights.push_back(survive);  // terminate
    outcomes.push_back(static_cast<std::uint32_t>(num_buckets));
    next_hop_[i].Build(weights);
    hop_outcomes_[i] = std::move(outcomes);
  }
}

void BucketSubsetSampler::SampleWithinBucket(
    const Bucket& bucket, Rng& rng, std::vector<std::uint32_t>* out,
    std::uint64_t* geometric_draws, std::uint64_t* rejection_accepts) const {
  const std::uint64_t h = bucket.elements.size();
  if (h == 1) {
    // Singleton shortcut: entry probability already equals the element's
    // probability, so entry implies inclusion.
    out->push_back(bucket.elements[0]);
    return;
  }
  if (bucket.cap >= 1.0) {
    // Every element has p in (0.5, 1]; direct Bernoulli costs <= 2*mu here.
    for (std::uint64_t i = 0; i < h; ++i) {
      if (rng.Bernoulli(bucket.probs[i])) {
        out->push_back(bucket.elements[i]);
      }
    }
    return;
  }

  // This bucket was chosen by the hop table, i.e. conditioned on receiving
  // at least one geometric hit. Draw the first hit from the geometric
  // distribution truncated to [1, h]:
  //   Pr[X = x | X <= h] = (1-c)^{x-1} c / (1 - (1-c)^h).
  // Inverse CDF: X = ceil( log(1 - U * (1 - q^h)) / log q ).
  const double u = rng.NextDouble();
  const double truncated = 1.0 - u * (1.0 - bucket.miss_all);
  double x = std::ceil(std::log(truncated) * bucket.inv_log_q);
  if (x < 1.0) {
    x = 1.0;
  }
  if (x > static_cast<double>(h)) {
    x = static_cast<double>(h);  // numerical edge of the truncation
  }
  std::uint64_t pos = static_cast<std::uint64_t>(x);
  if (geometric_draws != nullptr) {
    ++*geometric_draws;  // the truncated first-hit draw above
  }

  while (true) {
    const std::uint64_t index = pos - 1;
    // Rejection: overall inclusion probability cap * (p/cap) = p.
    if (rng.NextDouble() * bucket.cap < bucket.probs[index]) {
      if (rejection_accepts != nullptr) {
        ++*rejection_accepts;
      }
      out->push_back(bucket.elements[index]);
    }
    const std::uint64_t skip = SampleGeometricFast(rng, bucket.inv_log_q);
    if (geometric_draws != nullptr) {
      ++*geometric_draws;
    }
    if (skip > h - pos) {
      break;
    }
    pos += skip;
  }
}

void BucketSubsetSampler::Sample(Rng& rng, std::vector<std::uint32_t>* out,
                                 std::uint64_t* geometric_draws,
                                 std::uint64_t* rejection_accepts) const {
  if (buckets_.empty()) {
    return;
  }
  std::size_t hop = 0;  // start table
  while (true) {
    const std::uint32_t outcome_index = next_hop_[hop].Sample(rng);
    const std::uint32_t bucket_id = hop_outcomes_[hop][outcome_index];
    if (bucket_id >= buckets_.size()) {
      return;  // terminal outcome
    }
    SampleWithinBucket(buckets_[bucket_id], rng, out, geometric_draws,
                       rejection_accepts);
    hop = bucket_id + 1;
  }
}

}  // namespace subsim
