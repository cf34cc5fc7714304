#ifndef SUBSIM_SERVE_GRAPH_REGISTRY_H_
#define SUBSIM_SERVE_GRAPH_REGISTRY_H_

#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "subsim/graph/graph.h"
#include "subsim/graph/graph_update.h"
#include "subsim/util/mutex.h"
#include "subsim/util/status.h"
#include "subsim/util/thread_annotations.h"

namespace subsim {

/// A pinned registry snapshot: the immutable graph plus the version tag it
/// was published under. Versions are drawn from one registry-global
/// monotonic counter, so a (name, version) pair identifies a topology
/// forever — even across `Erase` + re-`Register` of the same name, a retired
/// version can never be reissued. That property is what lets `SketchKey`
/// carry the version and make stale cache hits structurally impossible.
struct GraphSnapshot {
  std::shared_ptr<const Graph> graph;
  std::uint64_t version = 0;
};

/// Named, immutable, *versioned* graph snapshots shared across concurrent
/// queries.
///
/// A graph is loaded (or registered) under a name and handed out as a
/// `GraphSnapshot`; queries and cache entries keep their snapshot alive for
/// as long as they need it, so replacing or updating a name never
/// invalidates work in flight — old holders keep the old snapshot, new
/// queries see the new one. Every publication (`Register`, `LoadFromFile`,
/// `ApplyUpdates`) bumps the version. All methods are thread-safe.
class GraphRegistry {
 public:
  /// What `ApplyUpdates` hands back: the newly published snapshot, the
  /// snapshot it replaced (kept alive so callers can repair state derived
  /// from it), and the invalidation frontier (see `EdgeUpdateResult`).
  struct UpdateResult {
    GraphSnapshot snapshot;
    GraphSnapshot previous;
    std::vector<NodeId> dirty_nodes;
  };

  GraphRegistry() = default;
  GraphRegistry(const GraphRegistry&) = delete;
  GraphRegistry& operator=(const GraphRegistry&) = delete;

  /// Reads a weighted edge-list file and registers it under `name`,
  /// replacing any previous graph with that name (under a new version).
  Status LoadFromFile(const std::string& name, const std::string& path)
      SUBSIM_EXCLUDES(mu_, update_mu_);

  /// Registers an already-built graph under `name` (replaces; the new
  /// snapshot gets a fresh version).
  Status Register(const std::string& name, Graph graph)
      SUBSIM_EXCLUDES(mu_, update_mu_);

  /// Applies an edge-update batch to the current snapshot of `name` and
  /// publishes the result as a new version. Updates to the registry are
  /// serialized (`update_mu_`), but the expensive graph rebuild runs
  /// outside the lookup lock, so concurrent `GetSnapshot` calls never
  /// block on an in-flight update. Fails with `kNotFound` for an unknown
  /// name, `kFailedPrecondition` when `batch.expect_version` is non-zero
  /// and does not match the current version (optimistic concurrency), and
  /// `kInvalidArgument` for a malformed batch — all without publishing.
  Result<UpdateResult> ApplyUpdates(const std::string& name,
                                    const UpdateBatch& batch)
      SUBSIM_EXCLUDES(mu_, update_mu_);

  /// Removes `name`. Snapshots already handed out stay alive through their
  /// holders' shared_ptrs. Returns true when the name was present.
  bool Erase(const std::string& name) SUBSIM_EXCLUDES(mu_);

  /// Versioned snapshot lookup. NotFound when no graph has this name.
  Result<GraphSnapshot> GetSnapshot(const std::string& name) const
      SUBSIM_EXCLUDES(mu_);

  /// Registered names, sorted.
  std::vector<std::string> Names() const SUBSIM_EXCLUDES(mu_);

 private:
  GraphSnapshot Publish(const std::string& name,
                        std::shared_ptr<const Graph> graph)
      SUBSIM_EXCLUDES(mu_);

  /// Serializes `ApplyUpdates` batches so each rebuild starts from the
  /// snapshot the previous one published. Acquired before `mu_`; `mu_` is
  /// only ever taken for short map operations inside it.
  Mutex update_mu_ SUBSIM_ACQUIRED_BEFORE(mu_);
  mutable Mutex mu_;
  std::map<std::string, GraphSnapshot> graphs_ SUBSIM_GUARDED_BY(mu_);
  /// Registry-global version counter; never reused, so retired
  /// (name, version) pairs stay retired forever.
  std::uint64_t next_version_ SUBSIM_GUARDED_BY(mu_) = 0;
};

}  // namespace subsim

#endif  // SUBSIM_SERVE_GRAPH_REGISTRY_H_
