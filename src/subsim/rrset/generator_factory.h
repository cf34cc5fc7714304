#ifndef SUBSIM_RRSET_GENERATOR_FACTORY_H_
#define SUBSIM_RRSET_GENERATOR_FACTORY_H_

#include <memory>
#include <string>

#include "subsim/graph/graph.h"
#include "subsim/rrset/rr_generator.h"
#include "subsim/util/status.h"

namespace subsim {

/// RR-set generation strategies selectable by name. This is the axis the
/// paper's experiments vary: every IM algorithm runs with either the
/// vanilla generator or the SUBSIM generator.
enum class GeneratorKind {
  kVanillaIc,  // Algorithm 2
  kSubsimIc,   // Algorithm 3 (+ general-IC extensions)
  kLt,         // Linear Threshold live-edge walk
};

/// Builds, on the first call for `graph`, the immutable per-graph half of
/// `kind`'s generators and kernels — SUBSIM's node plans
/// (`SubsimExpandCore::Shared`), LT's pick records and alias
/// tables (`LtEdgePicker::Shared`); vanilla IC has none — and returns the
/// kind's verdict on the graph: kLt rejects a graph whose per-node
/// in-weight sums exceed 1. The state is owned by `graph` and shared
/// read-only by every generator, kernel, fill and store over it.
Status PrepareSamplingState(GeneratorKind kind, const Graph& graph);

/// Builds a generator over `graph` (which must outlive the result): the
/// graph's shared sampling state (built here on first use; see
/// `PrepareSamplingState`) plus the generator's own scratch. Fails where
/// `PrepareSamplingState` does.
Result<std::unique_ptr<RrGenerator>> MakeRrGenerator(GeneratorKind kind,
                                                     const Graph& graph);

/// Parses "vanilla" | "subsim" | "lt".
Result<GeneratorKind> ParseGeneratorKind(const std::string& name);

const char* GeneratorKindName(GeneratorKind kind);

}  // namespace subsim

#endif  // SUBSIM_RRSET_GENERATOR_FACTORY_H_
