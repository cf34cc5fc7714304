#ifndef SUBSIM_RANDOM_ALIAS_TABLE_H_
#define SUBSIM_RANDOM_ALIAS_TABLE_H_

#include <cstdint>
#include <span>
#include <vector>

#include "subsim/random/rng.h"

namespace subsim {

/// Walker's alias method [Walker 1977]: O(n) construction, O(1) sampling
/// from an arbitrary discrete distribution. The table is two caller-owned
/// columns, so many tables can live in two flat arrays: LT's
/// `LtEdgePicker` keeps one per skewed in-row, at the row's CSR positions.

/// Reusable work stacks of `BuildAliasColumns`, so a caller building many
/// tables allocates them once.
struct AliasScratch {
  std::vector<std::uint32_t> small;
  std::vector<std::uint32_t> large;
};

/// Builds the table of non-negative `weights` (not necessarily normalized;
/// at least one positive) into `prob` and `alias`, both `weights.size()`
/// long. Returns the sum of the weights.
double BuildAliasColumns(std::span<const double> weights,
                         std::span<double> prob,
                         std::span<std::uint32_t> alias,
                         AliasScratch* scratch);

/// Samples an index in [0, prob.size()) with probability weight[i] / sum,
/// from a table `BuildAliasColumns` built. Two draws: a uniform column,
/// then a `NextDouble` against that column's probability.
inline std::uint32_t SampleAlias(std::span<const double> prob,
                                 std::span<const std::uint32_t> alias,
                                 Rng& rng) {
  const std::uint64_t column = rng.UniformInt(prob.size());
  const double u = rng.NextDouble();
  return u < prob[column] ? static_cast<std::uint32_t>(column)
                          : alias[column];
}

}  // namespace subsim

#endif  // SUBSIM_RANDOM_ALIAS_TABLE_H_
