#ifndef SUBSIM_COVERAGE_BOUNDS_H_
#define SUBSIM_COVERAGE_BOUNDS_H_

#include <cstdint>

#include "subsim/coverage/max_coverage.h"
#include "subsim/graph/types.h"

namespace subsim {

/// Equation (1): high-confidence lower bound on the expected influence of a
/// seed set S from its coverage on an *independent* collection of `num_sets`
/// random RR sets:
///
///   I⁻(S) = ( ( sqrt(Λ + 2η/9) − sqrt(η/2) )² − η/18 ) · n / θ,
///
/// with η = ln(1/δ_l). Fails (i.e. is below the truth) with probability at
/// most δ_l. May be negative for tiny coverage; callers clamp as needed.
double OpimLowerBound(std::uint64_t coverage, std::uint64_t num_sets,
                      NodeId num_nodes, double delta_l);

/// Equation (2): high-confidence upper bound on the expected influence of
/// the *optimal* seed set, from an upper bound `coverage_upper` on its
/// coverage:
///
///   I⁺(S_k^o) = ( sqrt(Λᵘ + η/2) + sqrt(η/2) )² · n / θ,
///
/// with η = ln(1/δ_u). Fails with probability at most δ_u.
double OpimUpperBound(double coverage_upper, std::uint64_t num_sets,
                      NodeId num_nodes, double delta_u);

/// Λᵘ(S_k^o): upper bound on the optimal seed set's coverage, derived from
/// a greedy run via submodularity (the min-over-prefixes construction under
/// Equation (2) in the paper):
///
///   Λᵘ = min_i ( Λ(S_i*) + Σ_{v ∈ maxMC(S_i*, k)} Λ(v | S_i*) ).
///
/// Every term is exact: `RunCoverageGreedy` keeps each node's marginal and
/// records the minimum as `greedy.coverage_upper_bound`, which this
/// returns. `k` must be the top count that greedy summed
/// (`greedy.upper_bound_top_count`).
double CoverageUpperBoundFromGreedy(const CoverageGreedyResult& greedy,
                                    std::uint32_t k);

}  // namespace subsim

#endif  // SUBSIM_COVERAGE_BOUNDS_H_
