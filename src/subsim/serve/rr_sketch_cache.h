#ifndef SUBSIM_SERVE_RR_SKETCH_CACHE_H_
#define SUBSIM_SERVE_RR_SKETCH_CACHE_H_

#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <string>
#include <tuple>
#include <utility>
#include <vector>

#include "subsim/graph/graph.h"
#include "subsim/rrset/generator_factory.h"
#include "subsim/rrset/sample_store.h"
#include "subsim/util/mutex.h"
#include "subsim/util/status.h"
#include "subsim/util/thread_annotations.h"

namespace subsim {

/// Identity of a reusable RR sketch. Two queries may share a `SampleStore`
/// only when all five coordinates agree:
///  - `graph`: the registry name whose snapshot the sets were sampled on;
///  - `graph_version`: the registry version of that snapshot. Versions are
///             never reused, so a key can only ever hit sets sampled on
///             exactly the topology the query resolved — re-registering or
///             updating a name changes the version and the old entries
///             simply stop being reachable (stale hits are structurally
///             impossible, not merely invalidated);
///  - `generator`: the RR-set generation strategy (vanilla / subsim / lt);
///  - `rng_seed`: the master seed the stream seeds derive from;
///  - `encoding`: the arena storage encoding. Raw and delta stores hold
///             the same logical sets (either serves any query exactly),
///             but a store's encoding is fixed at creation, so queries
///             asking for different encodings get distinct entries rather
///             than transcoding in place.
///
/// The algorithm is not part of the key: OPIM-C is the only algorithm
/// whose samples are cached (`OpimC::MakeSampleStore`), so every entry
/// holds its R1 and R2. The generation thread count is deliberately *not*
/// part of the key either: fills are thread-count invariant, so stores
/// produced at any `num_threads` are interchangeable.
struct SketchKey {
  std::string graph;
  std::uint64_t graph_version = 0;
  GeneratorKind generator = GeneratorKind::kVanillaIc;
  std::uint64_t rng_seed = 1;
  RrEncoding encoding = RrEncoding::kRaw;

  friend bool operator==(const SketchKey& a, const SketchKey& b) {
    return a.graph == b.graph && a.graph_version == b.graph_version &&
           a.generator == b.generator && a.rng_seed == b.rng_seed &&
           a.encoding == b.encoding;
  }
  friend bool operator<(const SketchKey& a, const SketchKey& b) {
    return std::tie(a.graph, a.graph_version, a.generator, a.rng_seed,
                    a.encoding) <
           std::tie(b.graph, b.graph_version, b.generator, b.rng_seed,
                    b.encoding);
  }
};

/// Thread-safe cache of extendable RR-set collections (`SampleStore`s),
/// keyed by `SketchKey`, with byte-budget LRU eviction.
///
/// Entries pair a store with the graph snapshot it was sampled on, so a
/// query always runs against the exact graph its reused sets came from even
/// if the registry has since re-loaded the name. Stores only ever hold
/// plain (never sentinel-truncated) RR sets: the engine builds them only
/// through `OpimC::MakeSampleStore` and runs HIST, which truncates, on
/// fresh sampling, so its sets never reach the cache.
///
/// Eviction removes least-recently-used entries until the sum of store
/// footprints fits `Options::max_bytes`. Eviction only drops the cache's
/// reference: queries still running against an evicted entry keep it alive
/// through their `shared_ptr` and finish normally.
class RrSketchCache {
 public:
  struct Options {
    /// Byte budget across all cached stores. 0 disables caching entirely
    /// (every lookup is a miss and nothing is retained).
    std::uint64_t max_bytes = 512ull << 20;
  };

  /// A cached store plus the graph snapshot it samples.
  struct Entry {
    std::shared_ptr<const Graph> graph;
    std::unique_ptr<SampleStore> store;
  };

  /// Builds the store for a key on a miss. Receives the graph snapshot the
  /// entry will pin.
  using StoreFactory =
      std::function<Result<std::unique_ptr<SampleStore>>(const Graph&)>;

  struct Lookup {
    std::shared_ptr<Entry> entry;
    /// True when the entry pre-existed this lookup (its sets came from
    /// earlier queries) — including the lost-race case, where this caller
    /// built a store but another lookup's insert won.
    bool hit = false;
  };

  RrSketchCache() : RrSketchCache(Options()) {}
  explicit RrSketchCache(const Options& options) : options_(options) {}
  RrSketchCache(const RrSketchCache&) = delete;
  RrSketchCache& operator=(const RrSketchCache&) = delete;

  /// Returns the entry for `key`, creating it via `factory` on a miss.
  /// The factory runs outside the cache lock, so concurrent misses on the
  /// same key each build a store; the first insert wins, every other
  /// caller gets the winner's entry (`hit` = true) and is counted in
  /// `lost_races`, not in `hits`. The losers waste only a construction:
  /// factories build empty stores, and sets are sampled later on the
  /// winning entry.
  Result<Lookup> GetOrCreate(const SketchKey& key,
                             std::shared_ptr<const Graph> graph,
                             const StoreFactory& factory)
      SUBSIM_EXCLUDES(mu_);

  /// Inserts (or replaces) an entry under `key` without going through a
  /// factory — how repaired stores are published under a new graph version.
  /// A no-op when caching is disabled (`max_bytes == 0`).
  void Put(const SketchKey& key, std::shared_ptr<Entry> entry)
      SUBSIM_EXCLUDES(mu_);

  /// The resident entries whose key names (`graph`, `graph_version`) —
  /// what an incremental repair walks. Keys come back in map order
  /// (deterministic).
  std::vector<std::pair<SketchKey, std::shared_ptr<Entry>>> EntriesForGraph(
      const std::string& graph, std::uint64_t graph_version) const
      SUBSIM_EXCLUDES(mu_);

  /// Drops every entry whose key names `graph` — called when a registry
  /// name is removed outright. Returns the number dropped.
  std::size_t EraseGraph(const std::string& graph) SUBSIM_EXCLUDES(mu_);

  /// Drops every entry for `graph` with a version strictly below
  /// `graph_version` — the post-repair cleanup: entries the repair carried
  /// forward live under the new version, the old-version originals are
  /// unreachable (their version is retired) and only waste budget. Returns
  /// the number dropped.
  std::size_t EraseGraphVersionsBelow(const std::string& graph,
                                      std::uint64_t graph_version)
      SUBSIM_EXCLUDES(mu_);

  /// Evicts least-recently-used entries until within the byte budget.
  /// Called by the engine after queries (stores grow in place, so an entry
  /// can exceed the budget only after use). Cost: refreshes the cached
  /// footprint of entries touched since the last call (dirty flags), then
  /// one sorted pass over the survivors when over budget — no O(n) rescan
  /// per eviction.
  void EnforceBudget() SUBSIM_EXCLUDES(mu_);

  std::uint64_t hits() const SUBSIM_EXCLUDES(mu_);
  std::uint64_t misses() const SUBSIM_EXCLUDES(mu_);
  /// Cold misses that built a store only to find another lookup's insert
  /// won the race — the build was paid but wasted. Counted separately from
  /// `hits` so hit-rate gauges don't overstate cache effectiveness.
  std::uint64_t lost_races() const SUBSIM_EXCLUDES(mu_);
  std::uint64_t evictions() const SUBSIM_EXCLUDES(mu_);
  std::size_t num_entries() const SUBSIM_EXCLUDES(mu_);
  /// Sum of the cached stores' approximate footprints (exact recompute;
  /// stats path only — budget enforcement uses the running total).
  std::uint64_t ApproxMemoryBytes() const SUBSIM_EXCLUDES(mu_);

 private:
  struct Slot {
    std::shared_ptr<Entry> entry;
    std::uint64_t last_used = 0;
    /// Footprint as of the last refresh; `total_bytes_` is the sum of
    /// these over all slots.
    std::uint64_t bytes = 0;
    /// Set when the store may have grown since `bytes` was computed (every
    /// hit marks the slot — the query that took it will extend the store),
    /// and kept set by a refresh that finds the entry still held outside
    /// the cache.
    bool dirty = false;
  };

  void AddSlotLocked(const SketchKey& key, std::shared_ptr<Entry> entry)
      SUBSIM_REQUIRES(mu_);
  std::size_t EraseIfLocked(
      const std::function<bool(const SketchKey&)>& predicate)
      SUBSIM_REQUIRES(mu_);

  Options options_;
  /// Acquired before `SampleStore::mu_`: budget enforcement and footprint
  /// accounting call into cached stores while holding the cache lock. The
  /// reverse order never happens — stores know nothing about the cache.
  mutable Mutex mu_;
  std::map<SketchKey, Slot> slots_ SUBSIM_GUARDED_BY(mu_);
  /// Sum of `Slot::bytes` over `slots_` — kept in lockstep on insert,
  /// erase, and dirty-refresh so budget checks are O(1).
  std::uint64_t total_bytes_ SUBSIM_GUARDED_BY(mu_) = 0;
  std::uint64_t tick_ SUBSIM_GUARDED_BY(mu_) = 0;
  std::uint64_t hits_ SUBSIM_GUARDED_BY(mu_) = 0;
  std::uint64_t misses_ SUBSIM_GUARDED_BY(mu_) = 0;
  std::uint64_t lost_races_ SUBSIM_GUARDED_BY(mu_) = 0;
  std::uint64_t evictions_ SUBSIM_GUARDED_BY(mu_) = 0;
};

}  // namespace subsim

#endif  // SUBSIM_SERVE_RR_SKETCH_CACHE_H_
