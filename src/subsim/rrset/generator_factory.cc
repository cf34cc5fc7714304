#include "subsim/rrset/generator_factory.h"

#include "subsim/rrset/lt_generator.h"
#include "subsim/rrset/subsim_ic_generator.h"
#include "subsim/rrset/vanilla_ic_generator.h"

namespace subsim {

void RrGenerator::Fill(Rng& rng, std::size_t count, RrCollection* collection,
                       const ObsContext& obs) {
  MetricsRegistry::HistogramHandle set_size;
  if (obs.metrics != nullptr) {
    set_size = obs.metrics->Histogram("rr.set_size");
  }
  const RrGenStats before = stats();
  std::vector<NodeId> scratch;
  for (std::size_t i = 0; i < count; ++i) {
    const bool hit = Generate(rng, &scratch);
    collection->Add(scratch, hit);
    set_size.Observe(scratch.size());
  }
  collection->IndexNewSets();
  FlushRrGenStatsDelta(before, stats(), obs.metrics);
}

void FlushRrGenStatsDelta(const RrGenStats& before, const RrGenStats& after,
                          MetricsRegistry* metrics) {
  if (metrics == nullptr) {
    return;
  }
  metrics->Counter("rr.sets_generated")
      .Add(after.sets_generated - before.sets_generated);
  metrics->Counter("rr.nodes_added").Add(after.nodes_added - before.nodes_added);
  metrics->Counter("rr.edges_examined")
      .Add(after.edges_examined - before.edges_examined);
  metrics->Counter("rr.sentinel_hits")
      .Add(after.sentinel_hits - before.sentinel_hits);
  metrics->Counter("rr.geometric_skips")
      .Add(after.geometric_skips - before.geometric_skips);
  metrics->Counter("rr.rejection_accepts")
      .Add(after.rejection_accepts - before.rejection_accepts);
  metrics->Counter("rr.batch_chunks")
      .Add(after.batch_chunks - before.batch_chunks);
  metrics->Counter("rr.prefetch_lines")
      .Add(after.prefetch_lines - before.prefetch_lines);
}

Status PrepareSamplingState(GeneratorKind kind, const Graph& graph) {
  switch (kind) {
    case GeneratorKind::kVanillaIc:
      return Status::Ok();
    case GeneratorKind::kSubsimIc:
      SubsimExpandCore::Shared(graph);
      return Status::Ok();
    case GeneratorKind::kLt:
      return LtEdgePicker::Shared(graph).status();
  }
  return Status::InvalidArgument("unknown generator kind");
}

Result<std::unique_ptr<RrGenerator>> MakeRrGenerator(GeneratorKind kind,
                                                     const Graph& graph) {
  switch (kind) {
    case GeneratorKind::kVanillaIc:
      return std::unique_ptr<RrGenerator>(new VanillaIcGenerator(graph));
    case GeneratorKind::kSubsimIc:
      return std::unique_ptr<RrGenerator>(new SubsimIcGenerator(graph));
    case GeneratorKind::kLt: {
      Result<std::unique_ptr<LtGenerator>> lt = LtGenerator::Create(graph);
      if (!lt.ok()) {
        return lt.status();
      }
      return std::unique_ptr<RrGenerator>(std::move(lt).value().release());
    }
  }
  return Status::InvalidArgument("unknown generator kind");
}

Result<GeneratorKind> ParseGeneratorKind(const std::string& name) {
  if (name == "vanilla") return GeneratorKind::kVanillaIc;
  if (name == "subsim") return GeneratorKind::kSubsimIc;
  if (name == "lt") return GeneratorKind::kLt;
  return Status::InvalidArgument("unknown generator kind: " + name);
}

const char* GeneratorKindName(GeneratorKind kind) {
  switch (kind) {
    case GeneratorKind::kVanillaIc:
      return "vanilla";
    case GeneratorKind::kSubsimIc:
      return "subsim";
    case GeneratorKind::kLt:
      return "lt";
  }
  return "?";
}

}  // namespace subsim
