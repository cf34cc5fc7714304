// ANALYZE-AS: src/subsim/algo/example.cc
// Fixture: a suppression without a reason is itself a finding — the why
// is the whole point of the marker.
#include <cstdint>

#include "subsim/random/rng.h"

namespace subsim {

std::uint64_t BadSuppression(std::uint64_t seed) {
  Rng rng(seed);  // SUBSIM-NOLINT(rng-confinement) -- ANALYZE-EXPECT: nolint-needs-reason
  return rng.NextU64();
}

}  // namespace subsim
