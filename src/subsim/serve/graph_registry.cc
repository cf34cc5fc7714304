#include "subsim/serve/graph_registry.h"

#include <utility>

#include "subsim/graph/graph_builder.h"
#include "subsim/graph/graph_io.h"

namespace subsim {

Status GraphRegistry::LoadFromFile(const std::string& name,
                                   const std::string& path) {
  if (name.empty()) {
    return Status::InvalidArgument("graph name must be non-empty");
  }
  Result<EdgeList> list = ReadEdgeListText(path);
  if (!list.ok()) {
    return list.status();
  }
  Result<Graph> graph = BuildGraph(std::move(*list));
  if (!graph.ok()) {
    return graph.status();
  }
  return Register(name, std::move(*graph));
}

GraphSnapshot GraphRegistry::Publish(const std::string& name,
                                     std::shared_ptr<const Graph> graph) {
  const MutexLock lock(mu_);
  GraphSnapshot snapshot;
  snapshot.graph = std::move(graph);
  snapshot.version = ++next_version_;
  graphs_[name] = snapshot;
  return snapshot;
}

Status GraphRegistry::Register(const std::string& name, Graph graph) {
  if (name.empty()) {
    return Status::InvalidArgument("graph name must be non-empty");
  }
  Publish(name, std::make_shared<const Graph>(std::move(graph)));
  return Status::Ok();
}

Result<GraphRegistry::UpdateResult> GraphRegistry::ApplyUpdates(
    const std::string& name, const UpdateBatch& batch) {
  // One update at a time: each rebuild must start from the snapshot the
  // previous batch published, or concurrent batches would silently drop
  // each other's edits. Lookups never take this lock.
  const MutexLock update_lock(update_mu_);
  GraphSnapshot base;
  {
    const MutexLock lock(mu_);
    const auto it = graphs_.find(name);
    if (it == graphs_.end()) {
      return Status::NotFound("no graph registered as '" + name + "'");
    }
    base = it->second;
  }
  if (batch.expect_version != 0 && batch.expect_version != base.version) {
    return Status::FailedPrecondition(
        "version skew: graph '" + name + "' is at version " +
        std::to_string(base.version) + ", batch expected " +
        std::to_string(batch.expect_version));
  }
  // The rebuild is the expensive part; it runs outside `mu_` so concurrent
  // snapshot lookups proceed untouched. `update_mu_` guarantees `base` is
  // still current when we publish below.
  Result<EdgeUpdateResult> updated = ApplyEdgeUpdates(*base.graph, batch);
  if (!updated.ok()) {
    return updated.status();
  }
  UpdateResult result;
  result.snapshot = Publish(
      name, std::make_shared<const Graph>(std::move(updated->graph)));
  result.previous = std::move(base);
  result.dirty_nodes = std::move(updated->dirty_nodes);
  return result;
}

bool GraphRegistry::Erase(const std::string& name) {
  const MutexLock lock(mu_);
  return graphs_.erase(name) > 0;
}

Result<GraphSnapshot> GraphRegistry::GetSnapshot(
    const std::string& name) const {
  const MutexLock lock(mu_);
  const auto it = graphs_.find(name);
  if (it == graphs_.end()) {
    return Status::NotFound("no graph registered as '" + name + "'");
  }
  return it->second;
}

std::vector<std::string> GraphRegistry::Names() const {
  const MutexLock lock(mu_);
  std::vector<std::string> names;
  names.reserve(graphs_.size());
  for (const auto& [name, snapshot] : graphs_) {
    names.push_back(name);
  }
  return names;
}

}  // namespace subsim
