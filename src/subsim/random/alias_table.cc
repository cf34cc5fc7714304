#include "subsim/random/alias_table.h"

#include "subsim/util/check.h"

namespace subsim {

double BuildAliasColumns(std::span<const double> weights,
                         std::span<double> prob,
                         std::span<std::uint32_t> alias,
                         AliasScratch* scratch) {
  const std::size_t n = weights.size();
  SUBSIM_CHECK(n > 0, "alias table requires at least one weight");
  SUBSIM_CHECK(prob.size() == n && alias.size() == n,
               "alias columns must match the weights");

  double total_weight = 0.0;
  for (double w : weights) {
    SUBSIM_CHECK(w >= 0.0, "alias table weights must be non-negative");
    total_weight += w;
  }
  SUBSIM_CHECK(total_weight > 0.0, "alias table needs a positive weight");

  // Scaled probabilities, mean 1, kept in `prob`: a column's entry is final
  // once it leaves the under-full stack. Partition into under/over-full
  // columns and repeatedly pair one of each.
  const double scale = static_cast<double>(n) / total_weight;
  std::vector<std::uint32_t>& small = scratch->small;
  std::vector<std::uint32_t>& large = scratch->large;
  small.clear();
  large.clear();
  for (std::size_t i = 0; i < n; ++i) {
    prob[i] = weights[i] * scale;
    (prob[i] < 1.0 ? small : large).push_back(static_cast<std::uint32_t>(i));
  }

  while (!small.empty() && !large.empty()) {
    const std::uint32_t s = small.back();
    small.pop_back();
    const std::uint32_t l = large.back();
    large.pop_back();
    alias[s] = l;
    prob[l] = (prob[l] + prob[s]) - 1.0;
    (prob[l] < 1.0 ? small : large).push_back(l);
  }
  // Numerical leftovers: all remaining columns are (within rounding) full.
  for (std::uint32_t i : large) {
    prob[i] = 1.0;
    alias[i] = i;
  }
  for (std::uint32_t i : small) {
    prob[i] = 1.0;
    alias[i] = i;
  }
  return total_weight;
}

}  // namespace subsim
