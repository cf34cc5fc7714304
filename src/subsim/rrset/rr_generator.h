#ifndef SUBSIM_RRSET_RR_GENERATOR_H_
#define SUBSIM_RRSET_RR_GENERATOR_H_

#include <cstdint>
#include <span>
#include <vector>

#include "subsim/graph/types.h"
#include "subsim/obs/obs_context.h"
#include "subsim/random/rng.h"
#include "subsim/rrset/rr_collection.h"

namespace subsim {

/// Cumulative cost counters for RR-set generation. `edges_examined` counts
/// candidate in-edges actually probed: for the vanilla generator this is
/// every in-edge of every activated node (one coin flip each); for SUBSIM
/// it is only the geometric-skip landings — the gap between the two is the
/// paper's Section 3 speedup. `geometric_skips` counts geometric draws in
/// the skip kernels (uniform and sorted-bucket paths);
/// `rejection_accepts` counts accepted rejection trials in the non-uniform
/// kernels. Both stay zero for generators that use neither (vanilla, LT).
/// `batch_chunks` and `prefetch_lines` are produced only by the batched
/// kernel (see docs/rr_generation.md): chunks of sets generated per
/// `GenerateChunk` call, and software-prefetch instructions issued over the
/// CSR adjacency arrays.
struct RrGenStats {
  std::uint64_t sets_generated = 0;
  std::uint64_t nodes_added = 0;
  std::uint64_t edges_examined = 0;
  std::uint64_t sentinel_hits = 0;
  std::uint64_t geometric_skips = 0;
  std::uint64_t rejection_accepts = 0;
  std::uint64_t batch_chunks = 0;
  std::uint64_t prefetch_lines = 0;
};

/// Strategy interface for generating random reverse-reachable sets.
///
/// A generator is bound to one graph. `Generate` produces one RR set rooted
/// at a uniformly random node. All generators support *hit-and-stop*
/// sentinel semantics (Algorithm 5): once a sentinel set is installed via
/// `SetSentinels`, a traversal terminates as soon as any sentinel node is
/// activated (the sentinel node is still appended, so the set is visibly
/// covered by the sentinel set).
///
/// Implementations keep per-instance scratch state (visited bitmap, queue)
/// and are therefore not thread-safe; use one generator per thread.
class RrGenerator {
 public:
  virtual ~RrGenerator() = default;

  /// Clears `*out` and fills it with one random RR set. Returns true if
  /// the traversal was stopped by a sentinel hit.
  virtual bool Generate(Rng& rng, std::vector<NodeId>* out) = 0;

  /// Installs (or, with an empty span, removes) the sentinel set.
  virtual void SetSentinels(std::span<const NodeId> sentinels) = 0;

  virtual const RrGenStats& stats() const = 0;
  virtual void ResetStats() = 0;
  virtual const char* name() const = 0;

  /// Generates `count` RR sets, appends them to `collection` and indexes
  /// them (`RrCollection::IndexNewSets`, a no-op on an unindexed
  /// collection) once at the end. With a
  /// metrics registry attached to `obs`, the fill's `RrGenStats` delta is
  /// flushed to the `rr.*` counters and every set size is observed into the
  /// `rr.set_size` histogram (see docs/observability.md); the RNG stream is
  /// identical either way.
  void Fill(Rng& rng, std::size_t count, RrCollection* collection,
            const ObsContext& obs);
  void Fill(Rng& rng, std::size_t count, RrCollection* collection) {
    Fill(rng, count, collection, ObsContext());
  }
};

/// Adds `after - before` to the registry's `rr.*` counters. No-op when
/// `metrics` is null. Fill paths call this once per fill, never per set.
void FlushRrGenStatsDelta(const RrGenStats& before, const RrGenStats& after,
                          MetricsRegistry* metrics);

}  // namespace subsim

#endif  // SUBSIM_RRSET_RR_GENERATOR_H_
