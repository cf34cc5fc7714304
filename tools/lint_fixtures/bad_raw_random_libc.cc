// ANALYZE-AS: src/subsim/util/example_seed.cc
// Fixture: raw libc/std randomness outside src/subsim/random/ must be
// flagged. Never compiled — checked only by subsim_analyze.py --self-test.
#include <cstdlib>
#include <random>

int NoisySeed() {
  std::random_device rd;  // ANALYZE-EXPECT: raw-random
  return static_cast<int>(rd());
}

int LibcDraw() {
  srand(42);  // ANALYZE-EXPECT: raw-random
  return std::rand();  // ANALYZE-EXPECT: raw-random
}

// Mentioning rand() in a comment is fine; identifiers merely containing the
// word, like operand_count or rand_index, are fine too.
int operand_count(int rand_index);
