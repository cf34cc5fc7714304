#ifndef SUBSIM_RANDOM_ALIAS_TABLE_H_
#define SUBSIM_RANDOM_ALIAS_TABLE_H_

#include <cstdint>
#include <vector>

#include "subsim/random/rng.h"

namespace subsim {

/// Walker's alias method [Walker 1977]: O(n) construction, O(1) sampling
/// from an arbitrary discrete distribution.
///
/// Used by the LT RR-set generator and graph generators for weighted node
/// picks.
class AliasTable {
 public:
  AliasTable() = default;

  /// Builds the table from non-negative weights (not necessarily
  /// normalized). At least one weight must be positive.
  explicit AliasTable(const std::vector<double>& weights) { Build(weights); }

  void Build(const std::vector<double>& weights);

  /// Samples an index in [0, size()) with probability weight[i] / sum.
  std::uint32_t Sample(Rng& rng) const;

  std::size_t size() const { return prob_.size(); }
  bool empty() const { return prob_.empty(); }

  /// Sum of the input weights (normalization constant).
  double total_weight() const { return total_weight_; }

 private:
  std::vector<double> prob_;
  std::vector<std::uint32_t> alias_;
  double total_weight_ = 0.0;
};

}  // namespace subsim

#endif  // SUBSIM_RANDOM_ALIAS_TABLE_H_
