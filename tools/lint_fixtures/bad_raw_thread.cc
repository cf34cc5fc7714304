// ANALYZE-AS: src/subsim/util/example_spawn.cc
// Fixture: thread management outside rrset/parallel_fill.cc must be
// flagged. Never compiled — checked only by subsim_analyze.py --self-test.
#include <thread>  // ANALYZE-EXPECT: raw-thread

void SpawnWorker() {
  std::thread t([] {});  // ANALYZE-EXPECT: raw-thread
  t.join();
}

void SpawnJWorker() {
  std::jthread u([] {});  // ANALYZE-EXPECT: raw-thread
}

// std::thread in a comment is fine, as is this_thread-free code below.
int threads_configured();
