// Concurrency soak for MetricsRegistry: 16 writer threads hammer shared
// counters, a histogram, and a gauge while a reader snapshots the whole
// registry in a loop. Run under the TSan preset in CI, this is the data-
// race gate for the sharded relaxed-atomic write path; the final
// snapshot additionally proves no increment is ever lost.

#include <gtest/gtest.h>

#include <atomic>
#include <cstdint>
#include <thread>
#include <vector>

#include "subsim/obs/metrics.h"
#include "subsim/obs/phase_tracer.h"

namespace subsim {
namespace {

TEST(MetricsConcurrencyTest, WritersAndSnapshotReaderDoNotRace) {
  constexpr int kWriters = 16;
  constexpr int kOpsPerWriter = 20000;

  MetricsRegistry registry;
  std::atomic<int> running{kWriters};

  std::vector<std::thread> writers;
  writers.reserve(kWriters);
  for (int t = 0; t < kWriters; ++t) {
    writers.emplace_back([&registry, &running, t] {
      // Half the threads acquire handles up front (the hot-path idiom),
      // the other half exercise concurrent find-or-create registration.
      MetricsRegistry::CounterHandle counter = registry.Counter("soak.ops");
      MetricsRegistry::HistogramHandle histogram =
          registry.Histogram("soak.sizes");
      MetricsRegistry::GaugeHandle gauge = registry.Gauge("soak.level");
      for (int i = 0; i < kOpsPerWriter; ++i) {
        if (t % 2 == 0) {
          counter.Increment();
          histogram.Observe(static_cast<std::uint64_t>(i % 257));
          gauge.Set(static_cast<double>(i));
        } else {
          registry.Counter("soak.ops").Increment();
          registry.Histogram("soak.sizes")
              .Observe(static_cast<std::uint64_t>(i % 257));
          registry.Gauge("soak.level").Set(static_cast<double>(i));
        }
      }
      running.fetch_sub(1, std::memory_order_release);
    });
  }

  // Reader: snapshot continuously while the writers run. Counts observed
  // mid-flight must be monotone non-decreasing and never overshoot.
  std::uint64_t last_count = 0;
  while (running.load(std::memory_order_acquire) > 0) {
    const MetricsSnapshot snapshot = registry.Snapshot();
    const auto it = snapshot.counters.find("soak.ops");
    const std::uint64_t count = it == snapshot.counters.end() ? 0 : it->second;
    EXPECT_GE(count, last_count);
    EXPECT_LE(count,
              static_cast<std::uint64_t>(kWriters) * kOpsPerWriter);
    last_count = count;
  }
  for (std::thread& writer : writers) {
    writer.join();
  }

  const MetricsSnapshot final_snapshot = registry.Snapshot();
  const std::uint64_t expected =
      static_cast<std::uint64_t>(kWriters) * kOpsPerWriter;
  EXPECT_EQ(final_snapshot.counters.at("soak.ops"), expected);
  const HistogramSnapshot sizes = final_snapshot.histograms.at("soak.sizes");
  EXPECT_EQ(sizes.count, expected);
  std::uint64_t bucket_total = 0;
  for (const std::uint64_t bucket : sizes.buckets) {
    bucket_total += bucket;
  }
  EXPECT_EQ(bucket_total, expected);
  // The gauge holds one of the written values (last write wins).
  const double level = final_snapshot.gauges.at("soak.level");
  EXPECT_GE(level, 0.0);
  EXPECT_LT(level, static_cast<double>(kOpsPerWriter));
}

TEST(MetricsConcurrencyTest, ConcurrentSpansRecordWithoutRacing) {
  MetricsRegistry registry;
  PhaseTracer tracer(/*max_spans=*/1 << 14);
  constexpr int kThreads = 8;
  constexpr int kSpansPerThread = 200;

  std::vector<std::thread> threads;
  threads.reserve(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&registry, &tracer] {
      MetricsRegistry::CounterHandle counter = registry.Counter("span.work");
      for (int i = 0; i < kSpansPerThread; ++i) {
        PhaseScope outer(&tracer, "outer");
        counter.Add(2);
        PhaseScope inner(&tracer, "inner");
        counter.Add(1);
      }
    });
  }
  for (std::thread& thread : threads) {
    thread.join();
  }

  EXPECT_EQ(tracer.Spans().size(),
            static_cast<std::size_t>(2 * kThreads * kSpansPerThread));
  EXPECT_EQ(tracer.dropped_spans(), 0u);
  EXPECT_EQ(registry.Snapshot().counters.at("span.work"),
            static_cast<std::uint64_t>(3 * kThreads * kSpansPerThread));
}

}  // namespace
}  // namespace subsim
