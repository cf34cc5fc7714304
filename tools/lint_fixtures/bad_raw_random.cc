// ANALYZE-AS: src/subsim/algo/example.cc
// Fixture: raw randomness sources in an algorithm file. Every one of these
// breaks single-seed reproducibility and must be a finding.
#include <cstdlib>
#include <random>

namespace subsim {

unsigned BadEntropy() {
  std::random_device dev;                // ANALYZE-EXPECT: raw-random
  std::mt19937 engine(dev());            // ANALYZE-EXPECT: raw-random
  return engine() + std::rand();         // ANALYZE-EXPECT: raw-random
}

}  // namespace subsim
