#include "subsim/rrset/sample_store.h"

#include <algorithm>
#include <utility>
#include <vector>

#include "subsim/rrset/parallel_fill.h"
#include "subsim/rrset/rr_generator.h"
#include "subsim/util/bit_vector.h"

namespace subsim {

SampleStore::SampleStore(const Graph& graph, GeneratorKind kind,
                         std::array<RngStream, kNumStreams> streams,
                         const Options& options)
    : graph_(&graph),
      kind_(kind),
      num_nodes_(graph.num_nodes()),
      options_(options),
      streams_{Stream(graph.num_nodes(), options.encoding, streams[0],
                      RrIndexing::kIndexed),
               Stream(graph.num_nodes(), options.encoding, streams[1],
                      RrIndexing::kUnindexed)} {}

Result<std::unique_ptr<SampleStore>> SampleStore::Create(
    const Graph& graph, GeneratorKind kind,
    std::array<RngStream, kNumStreams> streams, const Options& options) {
  // Build the graph's shared sampling state now, so a graph the kind
  // rejects (e.g. LT weight sums) fails at creation, not on the first
  // EnsureSets; every fill of the store then reads that state.
  SUBSIM_RETURN_IF_ERROR(PrepareSamplingState(kind, graph));
  return std::unique_ptr<SampleStore>(
      new SampleStore(graph, kind, streams, options));
}

Result<std::unique_ptr<SampleStore>> SampleStore::CreateRepaired(
    const Graph& graph, const SampleStore& source,
    std::span<const NodeId> dirty_nodes, const Options& options,
    RepairStats* stats) {
  if (graph.num_nodes() != source.num_nodes_) {
    return Status::InvalidArgument(
        "repair requires an unchanged node set: source store has " +
        std::to_string(source.num_nodes_) + " nodes, new graph has " +
        std::to_string(graph.num_nodes()));
  }
  // The regeneration engine below, over the new graph's shared sampling
  // state: every store repaired onto `graph` shares one plan build.
  // Creation fails here when the kind rejects the mutated graph (e.g. an
  // LT weight sum pushed past 1).
  Result<std::unique_ptr<RrGenerator>> generator =
      MakeRrGenerator(source.kind_, graph);
  if (!generator.ok()) {
    return generator.status();
  }

  // Readers-writer discipline: the shared lock freezes both streams at
  // their committed lengths while letting concurrent queries keep reading
  // the source (it may still be serving the retiring version).
  const ReaderMutexLock source_lock(source.mu_);
  std::array<RngStream, kNumStreams> streams{};
  for (std::size_t s = 0; s < kNumStreams; ++s) {
    const Stream& from = source.streams_[s];
    // The repaired store continues each stream exactly where the source
    // stopped; `next_index == collection.num_sets()` is the stream cursor
    // invariant, re-established here for the new store.
    streams[s] = RngStream{from.rng.base_seed, from.collection.num_sets()};
  }
  // The repaired store inherits the source's arena encoding: kept sets are
  // copied through RrSetView in storage order, which is an identity
  // round-trip only within one encoding (delta storage is sorted, raw
  // storage is discovery-ordered).
  Options repaired_options = options;
  repaired_options.encoding = source.options_.encoding;
  auto repaired = std::unique_ptr<SampleStore>(
      new SampleStore(graph, source.kind_, streams, repaired_options));

  const RrGenStats stats_before = (*generator)->stats();
  RepairStats repair;
  // A set replays identically unless it visited a node whose in-row
  // changed; ids past the node range name no member.
  BitVector dirty(source.num_nodes_);
  for (const NodeId v : dirty_nodes) {
    if (v < source.num_nodes_) {
      dirty.Set(v);
    }
  }
  const auto is_dirty = [&dirty](NodeId v) { return dirty.Get(v); };
  std::vector<NodeId> scratch;
  std::vector<NodeId> decode_scratch;
  const WriterMutexLock repaired_lock(repaired->mu_);
  for (std::size_t s = 0; s < kNumStreams; ++s) {
    const RrCollection& from = source.streams_[s].collection;
    const std::size_t num_sets = from.num_sets();
    RrCollection& to = repaired->streams_[s].collection;
    const std::uint64_t base_seed = source.streams_[s].rng.base_seed;
    for (std::size_t i = 0; i < num_sets; ++i) {
      // Bulk-decode the set through the view: for raw arenas a zero-copy
      // span, for delta arenas a decode into the reused scratch, from which
      // Add re-encodes the (already sorted) members to identical bytes.
      const std::span<const NodeId> members =
          from.View(static_cast<RrId>(i)).Decode(&decode_scratch);
      if (std::any_of(members.begin(), members.end(), is_dirty)) {
        Rng set_rng = Rng::Substream(base_seed, i);
        const bool hit = (*generator)->Generate(set_rng, &scratch);
        to.Add(scratch, hit);
        ++repair.sets_repaired;
      } else {
        to.Add(members, from.HitSentinel(static_cast<RrId>(i)));
        ++repair.sets_kept;
      }
    }
    to.IndexNewSets();
    SUBSIM_DCHECK(to.num_hit_sentinel() == 0,
                  "sentinel-truncated set in a repaired sample store");
    repaired->committed_[s].store(to.num_sets(), std::memory_order_release);
  }
  FlushRrGenStatsDelta(stats_before, (*generator)->stats(),
                       options.obs.metrics);
  if (stats != nullptr) {
    *stats = repair;
  }
  return repaired;
}

Status SampleStore::EnsureSets(std::size_t stream, std::uint64_t count,
                               std::uint64_t* appended) {
  SUBSIM_CHECK(stream < kNumStreams, "stream out of range");
  if (committed_[stream].load(std::memory_order_acquire) >= count) {
    return Status::Ok();
  }
  const WriterMutexLock lock(mu_);
  Stream& s = streams_[stream];
  const std::uint64_t have = s.collection.num_sets();
  if (have >= count) {
    return Status::Ok();
  }
  const std::size_t need = static_cast<std::size_t>(count - have);
  FillRequest request;
  request.kind = kind_;
  request.graph = graph_;
  request.rng = &s.rng;
  request.count = need;
  request.num_threads = options_.num_threads;
  request.obs = options_.obs;
  request.kernel = options_.kernel;
  SUBSIM_RETURN_IF_ERROR(FillCollection(request, &s.collection));
  if (MetricsRegistry* metrics = options_.obs.metrics; metrics != nullptr) {
    metrics->Counter("store.fill_rounds").Increment();
    metrics->Counter("store.sets_generated").Add(need);
    // Recompute bytes inline: ApproxMemoryBytes() takes the shared lock we
    // already hold exclusively.
    std::uint64_t bytes = sizeof(SampleStore);
    for (const Stream& st : streams_) {
      bytes += st.collection.ApproxMemoryBytes();
    }
    metrics->Gauge("store.approx_bytes").Set(static_cast<double>(bytes));
  }
  // Store streams carry no sentinels, so no set may be truncated — the
  // invariant that makes them safe to serve to any non-HIST query.
  SUBSIM_DCHECK(s.collection.num_hit_sentinel() == 0,
                "sentinel-truncated set in a shared sample store");
  committed_[stream].store(s.collection.num_sets(),
                           std::memory_order_release);
  if (appended != nullptr) {
    *appended += need;
  }
  return Status::Ok();
}

std::uint32_t SampleStore::StoppingRound(const RoundKey& key) const {
  const MutexLock lock(rounds_mu_);
  for (std::size_t i = 0; i < num_rounds_; ++i) {
    if (rounds_[i].key == key) {
      return rounds_[i].round;
    }
  }
  return 0;
}

void SampleStore::RecordStoppingRound(const RoundKey& key,
                                      std::uint32_t round) {
  const MutexLock lock(rounds_mu_);
  for (std::size_t i = 0; i < num_rounds_; ++i) {
    if (rounds_[i].key == key) {
      rounds_[i].round = round;
      return;
    }
  }
  rounds_[next_round_] = RoundEntry{key, round};
  next_round_ = (next_round_ + 1) % kMaxRoundEntries;
  num_rounds_ = std::min(num_rounds_ + 1, kMaxRoundEntries);
}

std::size_t SampleStore::num_stopping_rounds() const {
  const MutexLock lock(rounds_mu_);
  return num_rounds_;
}

std::uint64_t SampleStore::ApproxMemoryBytes() const {
  const ReaderMutexLock lock(mu_);
  std::uint64_t bytes = sizeof(SampleStore);
  for (const Stream& stream : streams_) {
    bytes += stream.collection.ApproxMemoryBytes();
  }
  return bytes;
}

}  // namespace subsim
