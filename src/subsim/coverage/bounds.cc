#include "subsim/coverage/bounds.h"

#include <cmath>

#include "subsim/util/check.h"

namespace subsim {

double OpimLowerBound(std::uint64_t coverage, std::uint64_t num_sets,
                      NodeId num_nodes, double delta_l) {
  SUBSIM_CHECK(num_sets > 0, "lower bound needs at least one RR set");
  SUBSIM_CHECK(delta_l > 0.0 && delta_l < 1.0, "delta_l must be in (0,1)");
  const double eta = std::log(1.0 / delta_l);
  const double lambda = static_cast<double>(coverage);
  const double root =
      std::sqrt(lambda + 2.0 * eta / 9.0) - std::sqrt(eta / 2.0);
  const double estimate = root * root - eta / 18.0;
  return estimate * static_cast<double>(num_nodes) /
         static_cast<double>(num_sets);
}

double OpimUpperBound(double coverage_upper, std::uint64_t num_sets,
                      NodeId num_nodes, double delta_u) {
  SUBSIM_CHECK(num_sets > 0, "upper bound needs at least one RR set");
  SUBSIM_CHECK(delta_u > 0.0 && delta_u < 1.0, "delta_u must be in (0,1)");
  SUBSIM_CHECK(coverage_upper >= 0.0, "coverage upper bound negative");
  const double eta = std::log(1.0 / delta_u);
  const double root =
      std::sqrt(coverage_upper + eta / 2.0) + std::sqrt(eta / 2.0);
  return root * root * static_cast<double>(num_nodes) /
         static_cast<double>(num_sets);
}

double CoverageUpperBoundFromGreedy(const CoverageGreedyResult& greedy,
                                    std::uint32_t k) {
  SUBSIM_CHECK(k == greedy.upper_bound_top_count,
               "k differs from the top count greedy summed");
  return static_cast<double>(greedy.coverage_upper_bound);
}

}  // namespace subsim
