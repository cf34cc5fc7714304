// ANALYZE-AS: src/subsim/serve/example.cc
// Fixture: bypassing FillCollection(FillRequest) from the serving layer.
// The batched chunk kernel is the fill's internal engine; naming its type
// or calling its chunk entry here would break the thread-count invariance
// of the generated samples. Never compiled — checked only by
// subsim_analyze.py --self-test.

namespace subsim {

void BadBatchKernel(void* kernel_ptr) {
  BatchRrKernel* kernel = nullptr;       // ANALYZE-EXPECT: fill-entry-point
  (void)kernel;
  (void)kernel_ptr;
  GenerateChunk(11, 0, 64);              // ANALYZE-EXPECT: fill-entry-point
}

// A suppression with a reason is honoured.
void Sanctioned() {
  // SUBSIM-NOLINT-NEXTLINE(fill-entry-point): exercising the suppressor
  GenerateChunk(11, 0, 64);
}

// Mentions in comments are fine: BatchRrKernel, GenerateChunk.
int fill_entry_points_configured();

}  // namespace subsim
