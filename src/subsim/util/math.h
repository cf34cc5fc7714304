#ifndef SUBSIM_UTIL_MATH_H_
#define SUBSIM_UTIL_MATH_H_

#include <cstdint>

namespace subsim {

/// Natural log of n! via lgamma. Exact enough for bound computations.
double LogFactorial(std::uint64_t n);

/// Natural log of the binomial coefficient C(n, k). Returns 0 for k == 0 or
/// k == n; requires k <= n.
double LogNChooseK(std::uint64_t n, std::uint64_t k);

/// (1 - 1/k)^b, the coverage factor used by HIST's relaxed approximation
/// target `1 - (1 - 1/k)^b - eps`. Requires k >= 1; b >= 0.
double PowOneMinusInvK(std::uint64_t k, std::uint64_t b);

/// The relaxed HIST approximation ratio `1 - (1 - 1/k)^b - eps`.
double HistApproxTarget(std::uint64_t k, std::uint64_t b, double eps);

/// `1 - 1/e`, the classic greedy approximation factor.
constexpr double kOneMinusInvE = 0.6321205588285577;

/// Rounds `x` up to the next power of two (x >= 1). Returns 1 for x == 0.
std::uint64_t NextPowerOfTwo(std::uint64_t x);

}  // namespace subsim

#endif  // SUBSIM_UTIL_MATH_H_
