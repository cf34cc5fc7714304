// Must precede every libc header: exposes lgamma_r, the reentrant lgamma.
// std::lgamma writes the process-global `signgam`, which is a data race as
// soon as two queries compute thetas concurrently.
#if !defined(_WIN32)
#define _DEFAULT_SOURCE 1
#endif

#include "subsim/util/math.h"

#include <cmath>
#include <math.h>

#include "subsim/util/check.h"

namespace subsim {

double LogFactorial(std::uint64_t n) {
#if defined(_WIN32)
  // MSVC's lgamma has no signgam global and is thread-safe as-is.
  return std::lgamma(static_cast<double>(n) + 1.0);
#else
  int sign = 0;
  return ::lgamma_r(static_cast<double>(n) + 1.0, &sign);
#endif
}

double LogNChooseK(std::uint64_t n, std::uint64_t k) {
  SUBSIM_CHECK(k <= n, "LogNChooseK requires k <= n (k=%llu n=%llu)",
               static_cast<unsigned long long>(k),
               static_cast<unsigned long long>(n));
  if (k == 0 || k == n) {
    return 0.0;
  }
  return LogFactorial(n) - LogFactorial(k) - LogFactorial(n - k);
}

double PowOneMinusInvK(std::uint64_t k, std::uint64_t b) {
  SUBSIM_CHECK(k >= 1, "PowOneMinusInvK requires k >= 1");
  if (k == 1) {
    return b == 0 ? 1.0 : 0.0;
  }
  const double x = 1.0 - 1.0 / static_cast<double>(k);
  return std::pow(x, static_cast<double>(b));
}

double HistApproxTarget(std::uint64_t k, std::uint64_t b, double eps) {
  return 1.0 - PowOneMinusInvK(k, b) - eps;
}

}  // namespace subsim
