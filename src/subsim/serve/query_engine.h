#ifndef SUBSIM_SERVE_QUERY_ENGINE_H_
#define SUBSIM_SERVE_QUERY_ENGINE_H_

#include <cstdint>
#include <future>
#include <memory>
#include <string>

#include "subsim/obs/metrics.h"
#include "subsim/serve/graph_registry.h"
#include "subsim/serve/query.h"
#include "subsim/serve/rr_sketch_cache.h"
#include "subsim/util/deadline.h"

namespace subsim {

struct QueryEngineOptions {
  /// Worker threads executing queries; 0 = hardware concurrency.
  unsigned num_workers = 0;
  /// RR-generation threads per query (`ImOptions::num_threads`): 1
  /// (default) fills inline, 0 = hardware concurrency, N = N workers.
  /// Generation is thread-count invariant, so this changes latency only —
  /// results and cache contents are byte-identical for every value.
  unsigned num_threads = 1;
  RrSketchCache::Options cache;
};

/// Executes `SelectSeedsQuery`s on a worker pool, routing OPIM-C through a
/// shared `RrSketchCache` (`OpimC::RunWithStore`) and running HIST on
/// fresh sampling (its sentinel-truncated sets are never cached, so they
/// can never leak into another query's evaluation). Those two, the
/// algorithms that honour a deadline and certify their answer, are the
/// only ones served: any other `algo` (IMM included) fails with
/// `kInvalidArgument` before a graph or cache entry is touched.
///
/// Every query runs against the graph snapshot pinned by its cache entry
/// (or fetched from the registry on the fallback path), so registry
/// re-loads never mix snapshots mid-query. Results are deterministic: a
/// query's response is identical whether its sets came fresh or from the
/// cache, and identical to a direct `ImAlgorithm::Run` with the same
/// options (`SelectSeedsQuery::ToImOptions`).
///
/// Thread-safety: `Submit` and `Execute` may be called from any thread.
/// Shutdown ordering: the destructor drains every already-submitted query
/// (each future is fulfilled with its real response) before tearing the
/// workers down; a `Submit` that races the destructor never loses its
/// promise — it resolves immediately with `StatusCode::kUnavailable`.
///
/// Concurrent same-key queries share one store with no engine-level
/// coordination: `SampleStore::EnsureSets` appends each stream index
/// exactly once under the store's writer lock, so N concurrent cold
/// queries together generate what one cold run would, and each response's
/// `rr_sets_generated` counts exactly the sets its own run appended.
class QueryEngine {
 public:
  /// Per-call execution context for `Execute` — lets a network front end
  /// account queue time it measured itself and pass the remaining deadline
  /// budget.
  struct ExecContext {
    /// Seconds the request waited upstream (admission queue); recorded in
    /// `serve.queue_us` and echoed in `QueryStats::queue_seconds`.
    double queue_seconds = 0.0;
    /// Remaining execution budget. An already-expired deadline is shed
    /// with `kDeadlineExceeded` before any work; one that expires mid-run
    /// degrades at a round boundary (see `ImOptions::deadline`).
    Deadline deadline;
  };

  explicit QueryEngine(GraphRegistry* registry,
                       const QueryEngineOptions& options = QueryEngineOptions());
  ~QueryEngine();
  QueryEngine(const QueryEngine&) = delete;
  QueryEngine& operator=(const QueryEngine&) = delete;

  /// Enqueues a query for the worker pool; the future carries the response
  /// (never an exception — failures land in `QueryResponse::status`).
  /// `query.deadline_ms` starts counting here, so time spent queued burns
  /// budget; a budget fully consumed in the queue sheds the query.
  std::future<QueryResponse> Submit(SelectSeedsQuery query);

  /// Runs a query synchronously on the calling thread, sharing the same
  /// cache as pooled queries. `queue_seconds` stays 0 and
  /// `query.deadline_ms` starts counting at the call.
  QueryResponse Execute(const SelectSeedsQuery& query);

  /// As above with caller-supplied queue accounting and deadline; when
  /// `ctx.deadline` is unset, `query.deadline_ms` applies from now.
  QueryResponse Execute(const SelectSeedsQuery& query, const ExecContext& ctx);

  /// What one accepted update batch did, for callers that surface it
  /// (HTTP route, CLI, bench assertions).
  struct GraphUpdateOutcome {
    /// The newly published snapshot version.
    std::uint64_t version = 0;
    /// The version the batch was applied on top of.
    std::uint64_t previous_version = 0;
    /// Edge count of the new snapshot.
    std::uint64_t num_edges = 0;
    /// Cache entries incrementally repaired onto the new version.
    std::size_t entries_repaired = 0;
    /// Old-version entries dropped without repair (repair rejected the new
    /// graph for that entry's generator kind, e.g. LT weight sums).
    std::size_t entries_dropped = 0;
    /// Across all repaired entries: sets regenerated / carried forward.
    std::uint64_t sets_repaired = 0;
    std::uint64_t sets_kept = 0;
    /// Wall seconds spent repairing cache entries (timed by the
    /// `serve.update` stopwatch; also observed into `update.repair_us`).
    double repair_seconds = 0.0;
  };

  /// Applies an edge-update batch to `name`: publishes a new registry
  /// version, incrementally repairs every resident cache entry of the
  /// previous version onto it (regenerating only the RR sets whose
  /// traversal touched a mutated edge's target), and retires the old
  /// version's entries. Queries racing the update are safe on both sides:
  /// in-flight ones keep their pinned old snapshot, new ones resolve the
  /// new version and — thanks to the repaired entries — stay warm.
  /// Updates serialize with each other; queries are never blocked. Fails
  /// with `kNotFound` (unknown name), `kFailedPrecondition`
  /// (`batch.expect_version` skew), or `kInvalidArgument` (bad batch), in
  /// which case nothing is published and the cache is untouched.
  Result<GraphUpdateOutcome> ApplyGraphUpdates(const std::string& name,
                                               const UpdateBatch& batch);

  /// Removes `name` end to end: erases it from the registry and drops its
  /// cache entries (all versions). In-flight queries finish on their
  /// pinned snapshots. Returns the number of cache entries dropped, or
  /// `kNotFound` when the registry has no such name.
  Result<std::size_t> RemoveGraph(const std::string& name);

  RrSketchCache& cache() { return cache_; }
  const RrSketchCache& cache() const { return cache_; }
  GraphRegistry& registry() { return *registry_; }

  /// The engine-lifetime metrics registry every query executes against
  /// (`serve.*` plus whatever the algorithms and generators record).
  MetricsRegistry& metrics() { return metrics_; }
  const MetricsRegistry& metrics() const { return metrics_; }

  /// The cache-level stats as one JSON object: `cache_entries`,
  /// `cache_hits`, `cache_misses`, `cache_lost_races`, `cache_evictions`,
  /// `cache_bytes` — what `subsim_cli batch` prints when it finishes.
  std::string CacheStatsJson() const;

  /// `CacheStatsJson`'s fields plus the observability fields
  /// (docs/observability.md) in one JSON object — what `GET /metricsz`
  /// serves.
  std::string StatsJson() const;

 private:
  struct Impl;

  QueryResponse ExecuteInternal(const SelectSeedsQuery& query,
                                std::uint64_t query_id, double queue_seconds,
                                const Deadline& deadline);

  // Declared before the cache: cached SampleStores carry ObsContext
  // pointers into the registry, so they must be destroyed first.
  MetricsRegistry metrics_;
  // Handles to the engine's own instruments, taken once so /metricsz
  // exposes every golden key (docs/observability.md) from the first scrape
  // and queries do no name lookups under the registry mutex.
  MetricsRegistry::CounterHandle queries_ = metrics_.Counter("serve.queries");
  MetricsRegistry::CounterHandle errors_ = metrics_.Counter("serve.errors");
  MetricsRegistry::CounterHandle shed_ = metrics_.Counter("serve.shed");
  MetricsRegistry::CounterHandle deadline_hits_ =
      metrics_.Counter("serve.deadline_hits");
  MetricsRegistry::HistogramHandle queue_us_ =
      metrics_.Histogram("serve.queue_us");
  MetricsRegistry::HistogramHandle exec_us_ =
      metrics_.Histogram("serve.exec_us");
  MetricsRegistry::CounterHandle update_batches_ =
      metrics_.Counter("update.batches");
  MetricsRegistry::CounterHandle update_sets_repaired_ =
      metrics_.Counter("update.sets_repaired");
  MetricsRegistry::CounterHandle update_sets_kept_ =
      metrics_.Counter("update.sets_kept");
  MetricsRegistry::HistogramHandle update_repair_us_ =
      metrics_.Histogram("update.repair_us");
  // Written by `OpimC::RunWithStore` through the query's ObsContext; taken
  // here only so the first scrape already shows it.
  MetricsRegistry::CounterHandle rounds_skipped_ =
      metrics_.Counter("opim_c.rounds_skipped");
  GraphRegistry* registry_;
  RrSketchCache cache_;
  /// Serializes `ApplyGraphUpdates` calls: each repair pass must see the
  /// cache state the previous update left (never held while queries run).
  Mutex update_mu_;
  unsigned num_threads_ = 1;
  std::unique_ptr<Impl> impl_;
};

}  // namespace subsim

#endif  // SUBSIM_SERVE_QUERY_ENGINE_H_
