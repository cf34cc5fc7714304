#include "subsim/serve/query_engine.h"

#include <atomic>
#include <chrono>
#include <deque>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "subsim/algo/registry.h"
#include "subsim/obs/obs_json.h"
#include "subsim/obs/phase_tracer.h"
#include "subsim/util/mutex.h"
#include "subsim/util/thread_annotations.h"
#include "subsim/util/threading.h"

namespace subsim {

namespace {

double SecondsSince(std::chrono::steady_clock::time_point start) {
  return std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                       start)
      .count();
}

Deadline DeadlineFromQuery(const SelectSeedsQuery& query) {
  return query.deadline_ms > 0
             ? Deadline::AfterMillis(
                   static_cast<std::int64_t>(query.deadline_ms))
             : Deadline();
}

}  // namespace

struct QueryEngine::Impl {
  struct Job {
    std::uint64_t id = 0;
    SelectSeedsQuery query;
    std::promise<QueryResponse> promise;
    std::chrono::steady_clock::time_point enqueued;
    Deadline deadline;
  };

  explicit Impl(QueryEngine* engine, unsigned num_workers) : engine(engine) {
    num_workers = ResolveNumThreads(num_workers);
    workers.reserve(num_workers);
    for (unsigned i = 0; i < num_workers; ++i) {
      workers.emplace_back([this] { WorkerLoop(); });
    }
  }

  ~Impl() {
    {
      const MutexLock lock(mu);
      stopping = true;
    }
    cv.NotifyAll();
    for (std::thread& worker : workers) {
      worker.join();
    }
    // Workers drain the queue before exiting, so this is normally empty.
    // If anything is left (it should not be), fail the promises explicitly
    // rather than let their destruction raise broken_promise on waiters.
    const MutexLock lock(mu);
    for (Job& job : queue) {
      job.promise.set_value(Rejected(job, "query engine shut down"));
    }
    queue.clear();
  }

  static QueryResponse Rejected(const Job& job, std::string why) {
    QueryResponse response;
    response.query_id = job.id;
    response.query = job.query;
    response.status = Status::Unavailable(std::move(why));
    return response;
  }

  void WorkerLoop() SUBSIM_EXCLUDES(mu) {
    for (;;) {
      Job job;
      {
        const MutexLock lock(mu);
        // Predicate is inlined (not a wait() lambda) so the guarded reads
        // happen where the analysis can prove the lock is held.
        while (!stopping && queue.empty()) {
          cv.Wait(mu);
        }
        if (queue.empty()) {
          return;  // stopping and drained
        }
        job = std::move(queue.front());
        queue.pop_front();
      }
      QueryResponse response =
          engine->ExecuteInternal(job.query, job.id,
                                  SecondsSince(job.enqueued), job.deadline);
      job.promise.set_value(std::move(response));
    }
  }

  QueryEngine* engine;
  Mutex mu;
  CondVar cv;
  std::deque<Job> queue SUBSIM_GUARDED_BY(mu);
  bool stopping SUBSIM_GUARDED_BY(mu) = false;
  std::atomic<std::uint64_t> next_id{1};
  std::vector<std::thread> workers;
};

QueryEngine::QueryEngine(GraphRegistry* registry,
                         const QueryEngineOptions& options)
    : registry_(registry),
      cache_(options.cache),
      num_threads_(options.num_threads),
      impl_(std::make_unique<Impl>(this, options.num_workers)) {
  // Register the serve-level instruments up front so /metricsz exposes
  // every golden key (docs/serving.md) from the first scrape, before any
  // traffic arrives.
  metrics_.Counter("serve.queries");
  metrics_.Counter("serve.errors");
  metrics_.Counter("serve.shed");
  metrics_.Counter("serve.deadline_hits");
  metrics_.Histogram("serve.queue_us");
  metrics_.Histogram("serve.exec_us");
  metrics_.Counter("update.batches");
  metrics_.Counter("update.sets_repaired");
  metrics_.Counter("update.sets_kept");
  metrics_.Histogram("update.repair_us");
}

QueryEngine::~QueryEngine() = default;

std::future<QueryResponse> QueryEngine::Submit(SelectSeedsQuery query) {
  Impl::Job job;
  job.id = impl_->next_id.fetch_add(1, std::memory_order_relaxed);
  job.query = std::move(query);
  job.enqueued = std::chrono::steady_clock::now();
  job.deadline = DeadlineFromQuery(job.query);
  std::future<QueryResponse> future = job.promise.get_future();
  bool rejected = false;
  {
    const MutexLock lock(impl_->mu);
    if (impl_->stopping) {
      // Racing the destructor: resolve the promise now — after `stopping`
      // flips, no worker is guaranteed to look at the queue again.
      rejected = true;
    } else {
      impl_->queue.push_back(std::move(job));
    }
  }
  if (rejected) {
    job.promise.set_value(
        Impl::Rejected(job, "query engine is shutting down"));
    return future;
  }
  impl_->cv.NotifyOne();
  return future;
}

QueryResponse QueryEngine::Execute(const SelectSeedsQuery& query) {
  return ExecuteInternal(
      query, impl_->next_id.fetch_add(1, std::memory_order_relaxed),
      /*queue_seconds=*/0.0, DeadlineFromQuery(query));
}

QueryResponse QueryEngine::Execute(const SelectSeedsQuery& query,
                                   const ExecContext& ctx) {
  return ExecuteInternal(
      query, impl_->next_id.fetch_add(1, std::memory_order_relaxed),
      ctx.queue_seconds,
      ctx.deadline.is_set() ? ctx.deadline : DeadlineFromQuery(query));
}

Result<QueryEngine::GraphUpdateOutcome> QueryEngine::ApplyGraphUpdates(
    const std::string& name, const UpdateBatch& batch) {
  // One update at a time so each repair pass starts from the cache state
  // the previous update left. Queries never take this lock — they keep
  // executing (and even populating old-version entries) throughout.
  const MutexLock update_lock(update_mu_);
  Result<GraphRegistry::UpdateResult> updated =
      registry_->ApplyUpdates(name, batch);
  if (!updated.ok()) {
    return updated.status();
  }

  GraphUpdateOutcome outcome;
  outcome.version = updated->snapshot.version;
  outcome.previous_version = updated->previous.version;
  outcome.num_edges = updated->snapshot.graph->num_edges();

  // Repair every resident entry of the retiring version onto the new one.
  // Runs outside the cache lock — lookups stay unblocked; a query racing
  // this loop either finds the old-version entry (fine: its key pins the
  // old snapshot) or misses on the new version and fills cold.
  PhaseScope repair_span(&tracer_, "serve.update");
  const std::vector<std::pair<SketchKey, std::shared_ptr<RrSketchCache::Entry>>>
      old_entries =
          cache_.EntriesForGraph(name, updated->previous.version);
  for (const auto& [old_key, old_entry] : old_entries) {
    SampleStore::Options store_options;
    store_options.num_threads = num_threads_;
    store_options.obs = ObsContext{&metrics_, &tracer_};
    SampleStore::RepairStats repair_stats;
    Result<std::unique_ptr<SampleStore>> repaired =
        SampleStore::CreateRepaired(*updated->snapshot.graph,
                                    *old_entry->store, updated->dirty_nodes,
                                    store_options, &repair_stats);
    if (!repaired.ok()) {
      // The mutated graph is no longer valid for this entry's generator
      // kind (e.g. LT weight sums); drop it and let queries fail or fill
      // fresh against the new snapshot.
      ++outcome.entries_dropped;
      continue;
    }
    auto entry = std::make_shared<RrSketchCache::Entry>();
    entry->graph = updated->snapshot.graph;
    entry->store = std::move(*repaired);
    SketchKey key = old_key;
    key.graph_version = updated->snapshot.version;
    cache_.Put(key, std::move(entry));
    ++outcome.entries_repaired;
    outcome.sets_repaired += repair_stats.sets_repaired;
    outcome.sets_kept += repair_stats.sets_kept;
  }
  // The retiring version's keys can never be looked up again; entries not
  // repaired above (raced-in after the walk, or dropped) are dead weight.
  cache_.EraseGraphVersionsBelow(name, updated->snapshot.version);
  outcome.repair_seconds = repair_span.ElapsedSeconds();
  repair_span.Close();

  metrics_.Counter("update.batches").Increment();
  metrics_.Counter("update.sets_repaired").Add(outcome.sets_repaired);
  metrics_.Counter("update.sets_kept").Add(outcome.sets_kept);
  metrics_.Histogram("update.repair_us")
      .Observe(static_cast<std::uint64_t>(outcome.repair_seconds * 1e6));
  cache_.EnforceBudget();
  return outcome;
}

Result<std::size_t> QueryEngine::RemoveGraph(const std::string& name) {
  if (!registry_->Erase(name)) {
    return Status::NotFound("no graph registered as '" + name + "'");
  }
  return cache_.EraseGraph(name);
}

std::string QueryEngine::CacheStatsJson() const {
  std::string out = "{";
  out += "\"cache_entries\":" + std::to_string(cache_.num_entries());
  out += ",\"cache_hits\":" + std::to_string(cache_.hits());
  out += ",\"cache_misses\":" + std::to_string(cache_.misses());
  out += ",\"cache_lost_races\":" + std::to_string(cache_.lost_races());
  out += ",\"cache_evictions\":" + std::to_string(cache_.evictions());
  out += ",\"cache_bytes\":" + std::to_string(cache_.ApproxMemoryBytes());
  out += "}";
  return out;
}

std::string QueryEngine::StatsJson() const {
  std::string out = CacheStatsJson();
  out.back() = ',';  // reopen the object for the observability fields
  out += ObsJsonFields(metrics_.Snapshot(), &tracer_);
  out += "}";
  return out;
}

QueryResponse QueryEngine::ExecuteInternal(const SelectSeedsQuery& query,
                                           std::uint64_t query_id,
                                           double queue_seconds,
                                           const Deadline& deadline) {
  QueryResponse response;
  response.query_id = query_id;
  response.query = query;
  response.stats.queue_seconds = queue_seconds;
  metrics_.Histogram("serve.queue_us")
      .Observe(static_cast<std::uint64_t>(queue_seconds * 1e6));
  PhaseScope exec_span(&tracer_, "serve.exec");

  const auto finish = [&](Status status) -> QueryResponse {
    response.stats.exec_seconds = exec_span.ElapsedSeconds();
    exec_span.Close();
    metrics_.Histogram("serve.exec_us")
        .Observe(static_cast<std::uint64_t>(response.stats.exec_seconds * 1e6));
    metrics_.Counter("serve.queries").Increment();
    if (!status.ok()) {
      metrics_.Counter("serve.errors").Increment();
    }
    if (response.result.deadline_hit) {
      metrics_.Counter("serve.deadline_hits").Increment();
    }
    metrics_.Gauge("serve.cache_entries")
        .Set(static_cast<double>(cache_.num_entries()));
    metrics_.Gauge("serve.cache_bytes")
        .Set(static_cast<double>(cache_.ApproxMemoryBytes()));
    response.status = std::move(status);
    return std::move(response);
  };

  // A budget fully consumed before execution starts is shed here — running
  // anyway would only make the caller's overload worse. Budgets that
  // expire mid-run degrade at a round boundary instead (ImOptions).
  if (deadline.is_set() && deadline.Expired()) {
    metrics_.Counter("serve.shed").Increment();
    return finish(Status::DeadlineExceeded(
        "deadline expired before execution started"));
  }

  Result<GraphSnapshot> snapshot = registry_->GetSnapshot(query.graph);
  if (!snapshot.ok()) {
    return finish(snapshot.status());
  }
  Result<std::unique_ptr<ImAlgorithm>> algorithm =
      MakeImAlgorithm(query.algo);
  if (!algorithm.ok()) {
    return finish(algorithm.status());
  }
  ImOptions options = query.ToImOptions();
  // Every query — cached or fresh — records into the engine registry.
  options.obs = ObsContext{&metrics_, &tracer_};
  // Generation threads are an engine-level knob: results are invariant to
  // the thread count, so applying it here cannot change any response.
  options.num_threads = num_threads_;
  options.deadline = deadline;

  if (!(*algorithm)->SupportsSampleReuse()) {
    // Cache-incompatible (HIST et al.): fresh, private sampling.
    Result<ImResult> result = (*algorithm)->Run(*snapshot->graph, options);
    if (!result.ok()) {
      return finish(result.status());
    }
    response.result = std::move(*result);
    response.stats.rr_sets_generated = response.result.num_rr_sets;
    return finish(Status::Ok());
  }

  response.stats.cache_eligible = true;
  SketchKey key;
  key.graph = query.graph;
  // The version makes stale hits structurally impossible: replacing or
  // updating the name publishes a new version, so old entries are simply
  // never looked up again.
  key.graph_version = snapshot->version;
  key.generator = query.generator;
  key.rng_seed = query.rng_seed;
  // Raw and delta stores hold identical logical sets, but an entry's
  // encoding is fixed at creation — keying on it keeps each request's
  // byte-budget behavior what it asked for instead of transcoding.
  key.encoding = query.rr_encoding;
  Result<RrSketchCache::Lookup> lookup = cache_.GetOrCreate(
      key, snapshot->graph, [&](const Graph& target) {
        return (*algorithm)->MakeSampleStore(target, options);
      });
  if (!lookup.ok()) {
    return finish(lookup.status());
  }
  response.stats.cache_hit = lookup->hit;

  // Run against the entry's pinned snapshot (it may predate a registry
  // re-load; its sets were sampled on exactly that snapshot). Concurrent
  // same-key queries need no coordination here: the store appends each
  // stream index exactly once, and `rr_sets_generated` counts only the
  // appends this run made.
  const std::shared_ptr<RrSketchCache::Entry> entry = lookup->entry;
  Result<ImResult> result =
      (*algorithm)->RunWithStore(*entry->graph, options, entry->store.get());
  if (!result.ok()) {
    return finish(result.status());
  }
  response.result = std::move(*result);
  response.stats.rr_sets_generated = response.result.rr_sets_generated;
  response.stats.rr_sets_reused =
      response.result.num_rr_sets - response.result.rr_sets_generated;
  cache_.EnforceBudget();
  return finish(Status::Ok());
}

}  // namespace subsim
