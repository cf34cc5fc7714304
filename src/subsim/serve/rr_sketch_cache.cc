#include "subsim/serve/rr_sketch_cache.h"

#include <algorithm>
#include <utility>

namespace subsim {

void RrSketchCache::AddSlotLocked(const SketchKey& key,
                                  std::shared_ptr<Entry> entry) {
  Slot slot;
  slot.entry = std::move(entry);
  slot.last_used = ++tick_;
  slot.bytes = slot.entry->store->ApproxMemoryBytes();
  // Start dirty: the caller who inserted the entry is about to grow it.
  slot.dirty = true;
  total_bytes_ += slot.bytes;
  auto [it, inserted] = slots_.insert_or_assign(key, std::move(slot));
  (void)it;
  (void)inserted;
}

Result<RrSketchCache::Lookup> RrSketchCache::GetOrCreate(
    const SketchKey& key, std::shared_ptr<const Graph> graph,
    const StoreFactory& factory) {
  {
    const MutexLock lock(mu_);
    const auto it = slots_.find(key);
    if (it != slots_.end()) {
      it->second.last_used = ++tick_;
      it->second.dirty = true;
      ++hits_;
      return Lookup{it->second.entry, /*hit=*/true};
    }
  }
  // Build outside the lock: store construction touches the graph (e.g. LT
  // validation) and must not block concurrent lookups of other keys. Two
  // racing misses on the same key both build; the first insert below wins
  // and the loser's store is discarded. Nothing serializes such misses, but
  // the race is cheap: the factory builds an empty store (sets are sampled
  // later, by `EnsureSets` on the winning entry), so the loser wastes a
  // construction, never a fill.
  Result<std::unique_ptr<SampleStore>> store = factory(*graph);
  if (!store.ok()) {
    return store.status();
  }
  auto entry = std::make_shared<Entry>();
  entry->graph = std::move(graph);
  entry->store = std::move(*store);

  const MutexLock lock(mu_);
  const auto it = slots_.find(key);
  if (it != slots_.end()) {
    // Lost the race: this caller paid a full build only to discard it.
    // Counted apart from `hits_` so hit-rate gauges reflect real savings.
    it->second.last_used = ++tick_;
    it->second.dirty = true;
    ++lost_races_;
    return Lookup{it->second.entry, /*hit=*/true};
  }
  ++misses_;
  if (options_.max_bytes == 0) {
    // Caching disabled: hand the fresh entry out without retaining it.
    return Lookup{std::move(entry), /*hit=*/false};
  }
  AddSlotLocked(key, entry);
  return Lookup{std::move(entry), /*hit=*/false};
}

void RrSketchCache::Put(const SketchKey& key, std::shared_ptr<Entry> entry) {
  if (options_.max_bytes == 0) {
    return;
  }
  const MutexLock lock(mu_);
  const auto it = slots_.find(key);
  if (it != slots_.end()) {
    total_bytes_ -= std::min(total_bytes_, it->second.bytes);
    slots_.erase(it);
  }
  AddSlotLocked(key, std::move(entry));
}

std::vector<std::pair<SketchKey, std::shared_ptr<RrSketchCache::Entry>>>
RrSketchCache::EntriesForGraph(const std::string& graph,
                               std::uint64_t graph_version) const {
  const MutexLock lock(mu_);
  std::vector<std::pair<SketchKey, std::shared_ptr<Entry>>> entries;
  for (const auto& [key, slot] : slots_) {
    if (key.graph == graph && key.graph_version == graph_version) {
      entries.emplace_back(key, slot.entry);
    }
  }
  return entries;
}

std::size_t RrSketchCache::EraseIfLocked(
    const std::function<bool(const SketchKey&)>& predicate) {
  std::size_t dropped = 0;
  for (auto it = slots_.begin(); it != slots_.end();) {
    if (predicate(it->first)) {
      total_bytes_ -= std::min(total_bytes_, it->second.bytes);
      it = slots_.erase(it);
      ++dropped;
    } else {
      ++it;
    }
  }
  return dropped;
}

std::size_t RrSketchCache::EraseGraph(const std::string& graph) {
  const MutexLock lock(mu_);
  return EraseIfLocked(
      [&](const SketchKey& key) { return key.graph == graph; });
}

std::size_t RrSketchCache::EraseGraphVersionsBelow(
    const std::string& graph, std::uint64_t graph_version) {
  const MutexLock lock(mu_);
  return EraseIfLocked([&](const SketchKey& key) {
    return key.graph == graph && key.graph_version < graph_version;
  });
}

void RrSketchCache::EnforceBudget() {
  const MutexLock lock(mu_);
  // Refresh only the slots whose stores may have grown since their last
  // accounting; clean slots keep their cached footprint.
  for (auto& [key, slot] : slots_) {
    if (!slot.dirty) {
      continue;
    }
    // A holder outside the cache may grow the store after it is measured,
    // so the slot stays dirty until no such holder is left. Read before
    // measuring: new holders come only from this class, under `mu_`.
    const bool held = slot.entry.use_count() > 1;
    const std::uint64_t bytes = slot.entry->store->ApproxMemoryBytes();
    total_bytes_ += bytes;
    total_bytes_ -= std::min(total_bytes_, slot.bytes);
    slot.bytes = bytes;
    slot.dirty = held;
  }
  if (total_bytes_ <= options_.max_bytes) {
    return;
  }
  // One pass in LRU order — no per-eviction rescan.
  std::vector<std::map<SketchKey, Slot>::iterator> order;
  order.reserve(slots_.size());
  for (auto it = slots_.begin(); it != slots_.end(); ++it) {
    order.push_back(it);
  }
  std::sort(order.begin(), order.end(), [](const auto& a, const auto& b) {
    return a->second.last_used < b->second.last_used;
  });
  for (const auto& victim : order) {
    if (total_bytes_ <= options_.max_bytes) {
      break;
    }
    total_bytes_ -= std::min(total_bytes_, victim->second.bytes);
    slots_.erase(victim);
    ++evictions_;
  }
}

std::uint64_t RrSketchCache::hits() const {
  const MutexLock lock(mu_);
  return hits_;
}

std::uint64_t RrSketchCache::misses() const {
  const MutexLock lock(mu_);
  return misses_;
}

std::uint64_t RrSketchCache::lost_races() const {
  const MutexLock lock(mu_);
  return lost_races_;
}

std::uint64_t RrSketchCache::evictions() const {
  const MutexLock lock(mu_);
  return evictions_;
}

std::size_t RrSketchCache::num_entries() const {
  const MutexLock lock(mu_);
  return slots_.size();
}

std::uint64_t RrSketchCache::ApproxMemoryBytes() const {
  const MutexLock lock(mu_);
  std::uint64_t total = 0;
  for (const auto& [key, slot] : slots_) {
    total += slot.entry->store->ApproxMemoryBytes();
  }
  return total;
}

}  // namespace subsim
