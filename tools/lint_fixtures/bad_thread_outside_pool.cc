// ANALYZE-AS: src/subsim/serve/worker_util.cc
// Fixture: the serve/query_engine.cc allowance is a single-file exemption,
// not a subsystem one — raw threads in any *other* serve file under src/
// (here a hypothetical serve/worker_util.cc) must still be flagged. The
// virtual path deliberately does not end in an allowed suffix. Never
// compiled — checked only by subsim_analyze.py --self-test.
#include <thread>  // ANALYZE-EXPECT: raw-thread

namespace serve_helpers {

void SpawnDetachedPoolWorker() {
  std::thread worker([] {});  // ANALYZE-EXPECT: raw-thread
  worker.detach();
}

unsigned ProbeParallelism() {
  // hardware_concurrency drags in <thread>, so even "read-only" uses of
  // std::thread are findings outside the two allowed translation units.
  return std::thread::hardware_concurrency();  // ANALYZE-EXPECT: raw-thread
}

}  // namespace serve_helpers
