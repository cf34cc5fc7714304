#ifndef SUBSIM_UTIL_TIMER_H_
#define SUBSIM_UTIL_TIMER_H_

#include <chrono>

namespace subsim {

/// Monotonic wall-clock stopwatch.
///
/// Starts running on construction. `ElapsedSeconds` may be called
/// repeatedly.
class WallTimer {
 public:
  WallTimer() : start_(Clock::now()) {}

  double ElapsedSeconds() const {
    return std::chrono::duration<double>(Clock::now() - start_).count();
  }

 private:
  using Clock = std::chrono::steady_clock;
  Clock::time_point start_;
};

}  // namespace subsim

#endif  // SUBSIM_UTIL_TIMER_H_
