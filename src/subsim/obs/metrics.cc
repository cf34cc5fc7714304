#include "subsim/obs/metrics.h"

#include <cmath>
#include <limits>

#include "subsim/util/check.h"

namespace subsim {

double HistogramSnapshot::BucketUpperEdge(std::size_t i) {
  SUBSIM_DCHECK(i < kNumBuckets, "bucket index %zu out of range", i);
  if (i == 0) {
    return 0.0;
  }
  // Bucket i covers [2^(i-1), 2^i); the overflow bucket has no finite edge.
  if (i == kNumBuckets - 1) {
    return std::numeric_limits<double>::infinity();
  }
  return std::ldexp(1.0, static_cast<int>(i));
}

double HistogramSnapshot::ApproxQuantile(double q) const {
  if (count == 0) {
    return 0.0;
  }
  const double rank = q * static_cast<double>(count);
  std::uint64_t seen = 0;
  for (std::size_t i = 0; i < kNumBuckets; ++i) {
    seen += buckets[i];
    if (static_cast<double>(seen) >= rank) {
      return BucketUpperEdge(i);
    }
  }
  return BucketUpperEdge(kNumBuckets - 1);
}

MetricsRegistry::Metric& MetricsRegistry::FindOrCreate(std::string_view name,
                                                       Kind kind) {
  const MutexLock lock(mu_);
  auto it = metrics_.find(name);
  if (it != metrics_.end()) {
    SUBSIM_CHECK(it->second.kind == kind,
                 "metric '%.*s' re-registered with a different kind",
                 static_cast<int>(name.size()), name.data());
    return it->second;
  }
  Metric metric;
  metric.kind = kind;
  switch (kind) {
    case Kind::kCounter:
      metric.counter = std::make_unique<CounterCells>();
      break;
    case Kind::kGauge:
      metric.gauge = std::make_unique<GaugeCell>();
      break;
    case Kind::kHistogram:
      metric.histogram = std::make_unique<HistogramCells>();
      break;
  }
  return metrics_.emplace(std::string(name), std::move(metric)).first->second;
}

MetricsRegistry::CounterHandle MetricsRegistry::Counter(std::string_view name) {
  return CounterHandle(FindOrCreate(name, Kind::kCounter).counter.get());
}

MetricsRegistry::GaugeHandle MetricsRegistry::Gauge(std::string_view name) {
  return GaugeHandle(FindOrCreate(name, Kind::kGauge).gauge.get());
}

MetricsRegistry::HistogramHandle MetricsRegistry::Histogram(
    std::string_view name) {
  return HistogramHandle(FindOrCreate(name, Kind::kHistogram).histogram.get());
}

MetricsSnapshot MetricsRegistry::Snapshot() const {
  MetricsSnapshot snap;
  const MutexLock lock(mu_);
  for (const auto& [name, metric] : metrics_) {
    switch (metric.kind) {
      case Kind::kCounter:
        snap.counters[name] = metric.counter->Sum();
        break;
      case Kind::kGauge:
        snap.gauges[name] = std::bit_cast<double>(
            metric.gauge->bits.load(std::memory_order_acquire));
        break;
      case Kind::kHistogram: {
        HistogramSnapshot h;
        for (const HistogramCells::ShardRow& row : metric.histogram->shards) {
          for (std::size_t i = 0; i < HistogramSnapshot::kNumBuckets; ++i) {
            h.buckets[i] += row.buckets[i].load(std::memory_order_acquire);
          }
          h.count += row.count.load(std::memory_order_acquire);
          h.sum += row.sum.load(std::memory_order_acquire);
        }
        snap.histograms[name] = h;
        break;
      }
    }
  }
  return snap;
}

std::size_t MetricsRegistry::ThisThreadShard() {
  static std::atomic<std::size_t> next_shard{0};
  thread_local const std::size_t shard =
      next_shard.fetch_add(1, std::memory_order_relaxed) % kNumShards;
  return shard;
}

}  // namespace subsim
