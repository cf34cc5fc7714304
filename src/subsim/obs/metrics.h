#ifndef SUBSIM_OBS_METRICS_H_
#define SUBSIM_OBS_METRICS_H_

#include <array>
#include <atomic>
#include <bit>
#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <string_view>
#include <vector>

#include "subsim/util/mutex.h"
#include "subsim/util/thread_annotations.h"

namespace subsim {

/// Snapshot of one histogram: fixed log2 buckets over non-negative integer
/// observations. Bucket 0 holds the value 0, bucket i (1 <= i <= 32) holds
/// values in [2^(i-1), 2^i), and the last bucket holds everything >= 2^32.
struct HistogramSnapshot {
  static constexpr std::size_t kNumBuckets = 34;

  std::uint64_t count = 0;
  std::uint64_t sum = 0;
  std::array<std::uint64_t, kNumBuckets> buckets{};

  double Mean() const {
    return count == 0 ? 0.0
                      : static_cast<double>(sum) / static_cast<double>(count);
  }

  /// Upper edge (exclusive) of bucket `i`; used for quantile interpolation.
  static double BucketUpperEdge(std::size_t i);

  /// Bucket-resolution quantile estimate (q in [0, 1]): the upper edge of
  /// the bucket containing the q-th observation. Coarse by design — the
  /// buckets are the stored resolution.
  double ApproxQuantile(double q) const;
};

/// Point-in-time copy of every metric in a registry. Keys are metric names;
/// maps keep them sorted so rendered output is deterministic.
struct MetricsSnapshot {
  std::map<std::string, std::uint64_t> counters;
  std::map<std::string, double> gauges;
  std::map<std::string, HistogramSnapshot> histograms;
};

/// Lock-cheap metrics registry: counters, gauges, and log2-bucket
/// histograms.
///
/// Hot-path writes go through handles (`CounterHandle` etc.) acquired once
/// outside the loop; each write is a single relaxed atomic add into one of
/// a small number of cache-line-padded shards, selected per thread so
/// concurrent writers do not share lines. `Snapshot` merges the shards
/// with acquire loads — readers never block writers and vice versa.
///
/// Metric registration (`Counter`/`Gauge`/`Histogram`) takes a mutex and
/// may be called from any thread at any time; cells are allocated with
/// stable addresses, so handles stay valid for the registry's lifetime.
/// Handles are trivially copyable; a default-constructed (or null-registry)
/// handle is a no-op sink, which lets instrumented code run unconditionally
/// with zero branches beyond one null test.
class MetricsRegistry {
 public:
  static constexpr std::size_t kNumShards = 16;

  MetricsRegistry() = default;
  MetricsRegistry(const MetricsRegistry&) = delete;
  MetricsRegistry& operator=(const MetricsRegistry&) = delete;

  class CounterHandle;
  class GaugeHandle;
  class HistogramHandle;

  /// Find-or-create by name. Mixing kinds under one name is a programmer
  /// error and aborts.
  CounterHandle Counter(std::string_view name) SUBSIM_EXCLUDES(mu_);
  GaugeHandle Gauge(std::string_view name) SUBSIM_EXCLUDES(mu_);
  HistogramHandle Histogram(std::string_view name) SUBSIM_EXCLUDES(mu_);

  MetricsSnapshot Snapshot() const SUBSIM_EXCLUDES(mu_);

 private:
  friend class CounterHandle;
  friend class GaugeHandle;
  friend class HistogramHandle;

  /// One cache line per shard so concurrent writers on different shards
  /// never false-share.
  struct alignas(64) PaddedCell {
    std::atomic<std::uint64_t> value{0};
  };

  struct CounterCells {
    std::array<PaddedCell, kNumShards> shards;

    std::uint64_t Sum() const {
      std::uint64_t total = 0;
      for (const PaddedCell& cell : shards) {
        total += cell.value.load(std::memory_order_acquire);
      }
      return total;
    }
  };

  /// Gauges are last-write-wins and written rarely; one atomic double
  /// (bit-cast through uint64) suffices.
  struct GaugeCell {
    std::atomic<std::uint64_t> bits{0};
  };

  struct HistogramCells {
    /// Per shard: bucket counts plus trailing count and sum cells, all on
    /// the shard's own cache lines (the row is 64-byte aligned and padded
    /// to a line multiple).
    struct alignas(64) ShardRow {
      std::array<std::atomic<std::uint64_t>, HistogramSnapshot::kNumBuckets>
          buckets{};
      std::atomic<std::uint64_t> count{0};
      std::atomic<std::uint64_t> sum{0};
    };
    std::array<ShardRow, kNumShards> shards;
  };

  enum class Kind : std::uint8_t { kCounter, kGauge, kHistogram };

  struct Metric {
    Kind kind;
    std::unique_ptr<CounterCells> counter;
    std::unique_ptr<GaugeCell> gauge;
    std::unique_ptr<HistogramCells> histogram;
  };

  Metric& FindOrCreate(std::string_view name, Kind kind) SUBSIM_EXCLUDES(mu_);

  /// Shard index for the calling thread: assigned round-robin on first use
  /// so long-lived worker threads spread across shards.
  static std::size_t ThisThreadShard();

  /// Leaf lock: nothing else is acquired while holding it. It guards only
  /// the name→cell map; the cells themselves are written lock-free through
  /// handles (relaxed atomics) and read with acquire loads by `Snapshot`.
  mutable Mutex mu_;
  std::map<std::string, Metric, std::less<>> metrics_ SUBSIM_GUARDED_BY(mu_);
};

/// Adds to a counter. Copyable, no-op when default-constructed.
class MetricsRegistry::CounterHandle {
 public:
  CounterHandle() = default;

  void Add(std::uint64_t n) {
    if (cells_ != nullptr) {
      cells_->shards[ThisThreadShard()].value.fetch_add(
          n, std::memory_order_relaxed);
    }
  }
  void Increment() { Add(1); }

 private:
  friend class MetricsRegistry;
  explicit CounterHandle(CounterCells* cells) : cells_(cells) {}
  CounterCells* cells_ = nullptr;
};

/// Sets a gauge (last write wins). Copyable, no-op when default-constructed.
class MetricsRegistry::GaugeHandle {
 public:
  GaugeHandle() = default;

  void Set(double value) {
    if (cell_ != nullptr) {
      cell_->bits.store(std::bit_cast<std::uint64_t>(value),
                        std::memory_order_relaxed);
    }
  }

 private:
  friend class MetricsRegistry;
  explicit GaugeHandle(GaugeCell* cell) : cell_(cell) {}
  GaugeCell* cell_ = nullptr;
};

/// Records observations into log2 buckets. Copyable, no-op when
/// default-constructed.
class MetricsRegistry::HistogramHandle {
 public:
  HistogramHandle() = default;

  void Observe(std::uint64_t value) {
    if (cells_ == nullptr) {
      return;
    }
    HistogramCells::ShardRow& row = cells_->shards[ThisThreadShard()];
    row.buckets[BucketIndex(value)].fetch_add(1, std::memory_order_relaxed);
    row.count.fetch_add(1, std::memory_order_relaxed);
    row.sum.fetch_add(value, std::memory_order_relaxed);
  }

  /// Bucket index for `value` under the log2 scheme documented on
  /// `HistogramSnapshot`.
  static std::size_t BucketIndex(std::uint64_t value) {
    if (value == 0) {
      return 0;
    }
    const std::size_t width = std::bit_width(value);  // value in [2^(w-1), 2^w)
    return width <= 32 ? width : HistogramSnapshot::kNumBuckets - 1;
  }

 private:
  friend class MetricsRegistry;
  explicit HistogramHandle(HistogramCells* cells) : cells_(cells) {}
  HistogramCells* cells_ = nullptr;
};

}  // namespace subsim

#endif  // SUBSIM_OBS_METRICS_H_
