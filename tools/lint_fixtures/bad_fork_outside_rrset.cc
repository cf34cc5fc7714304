// ANALYZE-AS: src/subsim/obs/example_fill.cc
// Fixture: RR-set bulk generation outside the one FillCollection entry
// point must be flagged. Never compiled — checked only by
// subsim_analyze.py --self-test.

struct Rng {
  Rng Fork(unsigned long long stream) const;
};

void AdHocFill(Rng& master) {
  Rng worker = master.Fork(1);  // ANALYZE-EXPECT: fill-entry-point
  (void)worker;
  Rng* ptr = &master;
  Rng other = ptr->Fork(2);  // ANALYZE-EXPECT: fill-entry-point
  (void)other;
}

void LegacyEntryPoint() {
  ParallelFill();  // ANALYZE-EXPECT: fill-entry-point
  ParallelFillOptions options;  // ANALYZE-EXPECT: fill-entry-point
  (void)options;
}

// The batched chunk kernel is the fill's internal engine; naming the type
// or calling its chunk entry outside random/rrset bypasses FillCollection.
void DirectBatchKernel(void* kernel_ptr) {
  BatchRrKernel* kernel = nullptr;  // ANALYZE-EXPECT: fill-entry-point
  (void)kernel;
  (void)kernel_ptr;
  GenerateChunk(11, 0, 64);  // ANALYZE-EXPECT: fill-entry-point
}

// A suppression with a reason is honoured.
void Sanctioned(Rng& master) {
  // SUBSIM-NOLINT-NEXTLINE(fill-entry-point): exercising the suppressor
  Rng worker = master.Fork(3);
  (void)worker;
}

// Mentions in comments are fine: ParallelFill, Rng::Fork.
int fill_entry_points_configured();
