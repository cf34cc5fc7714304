// ANALYZE-AS: bench/example_fill_helper.cc
// Fixture: a Status-returning helper that shares its name with a void
// library method. Only src/subsim/rrset/rr_generator.h declares
// `void Fill(...)`, and src/ is not scanned when tests and benches are
// checked, so the text engine must gather declarations from src/ on every
// run to see that `Fill` is ambiguous. (The ast engine resolves the real
// callee.) No findings.
#include "subsim/random/rng.h"
#include "subsim/rrset/rr_collection.h"
#include "subsim/rrset/rr_generator.h"
#include "subsim/util/status.h"

namespace subsim {

Status Fill(RrCollection* collection);

void FillDirectly(RrGenerator& generator, Rng& rng, RrCollection* out) {
  generator.Fill(rng, 16, out);
}

}  // namespace subsim
