// ANALYZE-AS: src/subsim/algo/example.cc
// Fixture: a Status-returning call used as a bare expression statement —
// the error vanishes. ([[nodiscard]] catches this at compile time; the
// analyzer keeps it visible to source-only tooling.)
#include "subsim/util/status.h"

namespace subsim {

Status FlushDiscardFixture();

void BadDiscard() {
  FlushDiscardFixture();                 // ANALYZE-EXPECT: status-discarded
}

}  // namespace subsim
