#ifndef SUBSIM_ALGO_REGISTRY_H_
#define SUBSIM_ALGO_REGISTRY_H_

#include <memory>
#include <string>
#include <vector>

#include "subsim/algo/im_algorithm.h"
#include "subsim/util/status.h"

namespace subsim {

/// Instantiates an IM algorithm by name: the RIS algorithms "imm",
/// "opim-c", "ssa" and "hist", Monte Carlo CELF greedy "celf-mc", or the
/// degree heuristics "max-degree", "single-discount" and
/// "degree-discount". ("subsim" and "hist+subsim" are "opim-c" / "hist"
/// with `ImOptions::generator = kSubsimIc` — the generator is an option,
/// not an algorithm.)
Result<std::unique_ptr<ImAlgorithm>> MakeImAlgorithm(const std::string& name);

/// Names accepted by `MakeImAlgorithm`.
std::vector<std::string> ImAlgorithmNames();

}  // namespace subsim

#endif  // SUBSIM_ALGO_REGISTRY_H_
