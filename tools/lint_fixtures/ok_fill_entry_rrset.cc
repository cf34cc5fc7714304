// ANALYZE-AS: src/subsim/rrset/example.cc
// Fixture: the rrset layer owns the batched chunk kernel; naming it and
// calling it here is the implementation, not a bypass. No findings.

namespace subsim {

void ImplementBatchedFill() {
  BatchRrKernel* kernel = nullptr;
  (void)kernel;
  GenerateChunk(11, 0, 64);
}

}  // namespace subsim
