#include "subsim/random/rng.h"

#include "subsim/util/check.h"

namespace subsim {

namespace {

inline std::uint64_t Rotl(std::uint64_t x, int k) {
  return (x << k) | (x >> (64 - k));
}

}  // namespace

std::uint64_t SplitMix64(std::uint64_t* state) {
  std::uint64_t z = (*state += 0x9e3779b97f4a7c15ull);
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ull;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebull;
  return z ^ (z >> 31);
}

Rng::Rng(std::uint64_t seed) {
  std::uint64_t sm = seed;
  for (auto& word : s_) {
    word = SplitMix64(&sm);
  }
  // xoshiro must not start from the all-zero state; SplitMix64 of any seed
  // cannot produce four zero words, but keep the guard explicit.
  if ((s_[0] | s_[1] | s_[2] | s_[3]) == 0) {
    s_[0] = 0x9e3779b97f4a7c15ull;
  }
}

std::uint64_t Rng::NextU64() {
  const std::uint64_t result = Rotl(s_[0] + s_[3], 23) + s_[0];
  const std::uint64_t t = s_[1] << 17;
  s_[2] ^= s_[0];
  s_[3] ^= s_[1];
  s_[1] ^= s_[2];
  s_[0] ^= s_[3];
  s_[2] ^= t;
  s_[3] = Rotl(s_[3], 45);
  return result;
}

double Rng::NextDouble() {
  return static_cast<double>(NextU64() >> 11) * 0x1.0p-53;
}

double Rng::NextDoubleOpen() {
  // (u >> 11) is in [0, 2^53); +0.5 shifts to (0, 2^53), then scale.
  return (static_cast<double>(NextU64() >> 11) + 0.5) * 0x1.0p-53;
}

std::uint64_t Rng::UniformInt(std::uint64_t bound) {
  SUBSIM_DCHECK(bound >= 1, "UniformInt requires bound >= 1");
  // Lemire's multiply-then-reject method: unbiased, one division in the
  // rare rejection path only.
  std::uint64_t x = NextU64();
  __uint128_t m = static_cast<__uint128_t>(x) * bound;
  std::uint64_t l = static_cast<std::uint64_t>(m);
  if (l < bound) {
    const std::uint64_t threshold = (0 - bound) % bound;
    while (l < threshold) {
      x = NextU64();
      m = static_cast<__uint128_t>(x) * bound;
      l = static_cast<std::uint64_t>(m);
    }
  }
  return static_cast<std::uint64_t>(m >> 64);
}

bool Rng::Bernoulli(double p) {
  if (p <= 0.0) {
    return false;
  }
  if (p >= 1.0) {
    return true;
  }
  return NextDouble() < p;
}

Rng Rng::Substream(std::uint64_t base_seed, std::uint64_t set_index) {
  // Keyed on a plain seed, not on live engine state, so the result is a
  // pure function of its two arguments. The mix spreads consecutive set
  // indices apart.
  std::uint64_t mix =
      base_seed ^ Rotl(base_seed, 29) ^ (set_index * 0xd1342543de82ef95ull);
  std::uint64_t seed = SplitMix64(&mix);
  return Rng(seed ^ set_index);
}

std::uint64_t DeriveStreamSeed(std::uint64_t master_seed,
                               std::uint64_t stream) {
  std::uint64_t mix = master_seed ^ (stream * 0x94d049bb133111ebull);
  return SplitMix64(&mix) ^ stream;
}

}  // namespace subsim
