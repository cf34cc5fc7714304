// ANALYZE-AS: src/subsim/algo/example_timer.cc
// Fixture: WallTimer inside the instrumented layers (algo/rrset/serve)
// must be flagged — PhaseScope is the sanctioned stopwatch there. Never
// compiled — checked only by subsim_analyze.py --self-test.
#include "subsim/util/timer.h"

double TimeAPhaseByHand() {
  subsim::WallTimer timer;  // ANALYZE-EXPECT: ad-hoc-timer
  return timer.ElapsedSeconds();
}

double TimeAPhaseWithAnExcuse() {
  subsim::WallTimer timer;  // SUBSIM-NOLINT(ad-hoc-timer): fixture shows a reasoned suppression passes
  return timer.ElapsedSeconds();
}
