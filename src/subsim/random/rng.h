#ifndef SUBSIM_RANDOM_RNG_H_
#define SUBSIM_RANDOM_RNG_H_

#include <cstddef>
#include <cstdint>

namespace subsim {

/// SplitMix64 step; used to expand user seeds into full engine state and to
/// derive independent substreams. Public for tests.
std::uint64_t SplitMix64(std::uint64_t* state);

/// Deterministic pseudo-random generator (xoshiro256++).
///
/// All randomness in the library flows through explicitly seeded `Rng`
/// instances — there is no global RNG — so every sampling routine, RR-set
/// generator, and IM algorithm is reproducible from a single 64-bit seed.
///
/// Satisfies the uniform_random_bit_generator concept (operator(), min, max),
/// so it can also drive <random> distributions when convenient.
class Rng {
 public:
  explicit Rng(std::uint64_t seed);

  /// Next 64 uniform random bits.
  std::uint64_t NextU64();

  /// Writes the next `n` values of the stream into `out` — exactly the
  /// values `n` successive `NextU64()` calls would return, and the engine
  /// is left in the same state. Defined inline so bulk consumers (the
  /// batched RR kernel's vectorized Bernoulli loops) keep the whole engine
  /// state in registers instead of paying a call per draw; byte-for-byte
  /// stream equality with the scalar API is pinned by `rng_test`.
  void NextU64Batch(std::uint64_t* out, std::size_t n) {
    std::uint64_t s0 = s_[0];
    std::uint64_t s1 = s_[1];
    std::uint64_t s2 = s_[2];
    std::uint64_t s3 = s_[3];
    for (std::size_t i = 0; i < n; ++i) {
      const std::uint64_t sum = s0 + s3;
      out[i] = ((sum << 23) | (sum >> 41)) + s0;
      const std::uint64_t t = s1 << 17;
      s2 ^= s0;
      s3 ^= s1;
      s1 ^= s2;
      s0 ^= s3;
      s2 ^= t;
      s3 = (s3 << 45) | (s3 >> 19);
    }
    s_[0] = s0;
    s_[1] = s1;
    s_[2] = s2;
    s_[3] = s3;
  }

  /// The exact value `NextDouble()` derives from one `NextU64()` draw.
  /// Exposed so bulk consumers of `NextU64Batch` reproduce the scalar
  /// Bernoulli comparison bit-for-bit.
  static double ToUnitDouble(std::uint64_t bits) {
    return static_cast<double>(bits >> 11) * 0x1.0p-53;
  }

  /// Uniform double in [0, 1). 53-bit resolution.
  double NextDouble();

  /// Uniform double in (0, 1); never returns 0, safe for log().
  double NextDoubleOpen();

  /// Uniform integer in [0, bound). Requires bound >= 1. Unbiased
  /// (Lemire's rejection method).
  std::uint64_t UniformInt(std::uint64_t bound);

  /// True with probability p (p clamped to [0, 1]).
  bool Bernoulli(double p);

  /// Counter-based substream: an independent generator that is a pure
  /// function of `(base_seed, set_index)` — no parent state involved. This
  /// is the thread-invariance primitive: when every RR set at index `i` is
  /// generated from `Substream(base_seed, i)`, the ordered sample stream is
  /// byte-identical regardless of how indices are scheduled across worker
  /// threads. The seed is a SplitMix64 mix of both arguments.
  static Rng Substream(std::uint64_t base_seed, std::uint64_t set_index);

  using result_type = std::uint64_t;
  result_type operator()() { return NextU64(); }
  static constexpr result_type min() { return 0; }
  static constexpr result_type max() { return ~std::uint64_t{0}; }

 private:
  std::uint64_t s_[4];
};

/// Derives the base seed of logical stream `stream` from a master seed.
/// This is how algorithms split one `rng_seed` into independent sample
/// streams (R1/R2, sentinel stream, ...) without holding a parent `Rng`:
/// the result feeds `RngStream::base_seed`, and individual sets come from
/// `Rng::Substream(base_seed, index)`.
std::uint64_t DeriveStreamSeed(std::uint64_t master_seed,
                               std::uint64_t stream);

/// Cursor over a counter-based sample stream. Element `i` of the stream is
/// `Rng::Substream(base_seed, i)`; fills consume indices starting at
/// `next_index` and advance it. The cursor is owned by the caller (not by
/// any collection), so a logical stream survives collection resets — e.g.
/// HIST regenerates a fresh sentinel collection every iteration while
/// continuing the same stream — and a fill's output depends only on
/// `(base_seed, next_index, count)`, never on thread count or on how the
/// same total was split across calls.
struct RngStream {
  std::uint64_t base_seed = 0;
  std::uint64_t next_index = 0;
};

/// Stream `stream` of master seed `master_seed`, positioned at index 0.
inline RngStream MakeRngStream(std::uint64_t master_seed,
                               std::uint64_t stream) {
  return RngStream{DeriveStreamSeed(master_seed, stream), 0};
}

}  // namespace subsim

#endif  // SUBSIM_RANDOM_RNG_H_
