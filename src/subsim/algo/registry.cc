#include "subsim/algo/registry.h"

#include "subsim/algo/celf_greedy.h"
#include "subsim/algo/hist.h"
#include "subsim/algo/imm.h"
#include "subsim/algo/opim_c.h"
#include "subsim/algo/ssa.h"
#include "subsim/algo/degree_heuristics.h"

namespace subsim {

Result<std::unique_ptr<ImAlgorithm>> MakeImAlgorithm(
    const std::string& name) {
  if (name == "imm") {
    return std::unique_ptr<ImAlgorithm>(new Imm());
  }
  if (name == "opim-c") {
    return std::unique_ptr<ImAlgorithm>(new OpimC());
  }
  if (name == "ssa") {
    return std::unique_ptr<ImAlgorithm>(new Ssa());
  }
  if (name == "hist") {
    return std::unique_ptr<ImAlgorithm>(new Hist());
  }
  if (name == "celf-mc") {
    return std::unique_ptr<ImAlgorithm>(new CelfGreedy());
  }
  if (name == "max-degree") {
    return std::unique_ptr<ImAlgorithm>(
        new DegreeHeuristic(DegreeHeuristicKind::kMaxDegree));
  }
  if (name == "single-discount") {
    return std::unique_ptr<ImAlgorithm>(
        new DegreeHeuristic(DegreeHeuristicKind::kSingleDiscount));
  }
  if (name == "degree-discount") {
    return std::unique_ptr<ImAlgorithm>(
        new DegreeHeuristic(DegreeHeuristicKind::kDegreeDiscount));
  }
  return Status::InvalidArgument("unknown IM algorithm: " + name);
}

std::vector<std::string> ImAlgorithmNames() {
  return {"imm",     "opim-c",     "ssa",
          "hist",    "celf-mc",    "max-degree",
          "single-discount", "degree-discount"};
}

}  // namespace subsim
