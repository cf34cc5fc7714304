// ANALYZE-AS: src/subsim/util/example_emit.cc
// Fixture: SUBSIM-NOLINT without a reason is itself a violation; with a
// reason it suppresses. Never compiled — checked by --self-test only.
#include <cstdio>

void Emit(int n) {
  printf("%d\n", n);  // SUBSIM-NOLINT(iostream-logging) ANALYZE-EXPECT: nolint-needs-reason
  printf("%d\n", n);  // SUBSIM-NOLINT(iostream-logging): CLI result rows go to stdout by design
}

void EmitNextline(int n) {
  // SUBSIM-NOLINT-NEXTLINE(iostream-logging) ANALYZE-EXPECT: nolint-needs-reason
  printf("%d\n", n);
  // SUBSIM-NOLINT-NEXTLINE(iostream-logging): progress bar writes straight to the terminal
  printf("%d\n", n);
}
