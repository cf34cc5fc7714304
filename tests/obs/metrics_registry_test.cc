// Unit tests for the observability layer: MetricsRegistry handle
// semantics, histogram bucketing, PhaseTracer span recording, and the
// exported JSON shape.

#include <gtest/gtest.h>

#include <string>
#include <thread>
#include <vector>

#include "subsim/obs/metrics.h"
#include "subsim/obs/obs_json.h"
#include "subsim/obs/phase_tracer.h"

namespace subsim {
namespace {

TEST(MetricsRegistryTest, CounterAccumulatesAcrossHandles) {
  MetricsRegistry registry;
  MetricsRegistry::CounterHandle a = registry.Counter("x");
  MetricsRegistry::CounterHandle b = registry.Counter("x");  // same metric
  a.Add(3);
  b.Increment();
  const MetricsSnapshot snapshot = registry.Snapshot();
  ASSERT_EQ(snapshot.counters.count("x"), 1u);
  EXPECT_EQ(snapshot.counters.at("x"), 4u);
}

TEST(MetricsRegistryTest, DefaultConstructedHandlesAreNoOps) {
  MetricsRegistry::CounterHandle counter;
  MetricsRegistry::GaugeHandle gauge;
  MetricsRegistry::HistogramHandle histogram;
  counter.Add(7);
  gauge.Set(1.0);
  histogram.Observe(5);  // must not crash
}

TEST(MetricsRegistryTest, GaugeIsLastWriteWins) {
  MetricsRegistry registry;
  MetricsRegistry::GaugeHandle g = registry.Gauge("ratio");
  g.Set(0.25);
  g.Set(-3.5);
  EXPECT_DOUBLE_EQ(registry.Snapshot().gauges.at("ratio"), -3.5);
}

TEST(MetricsRegistryTest, HistogramBucketIndexLog2Scheme) {
  using Handle = MetricsRegistry::HistogramHandle;
  EXPECT_EQ(Handle::BucketIndex(0), 0u);
  EXPECT_EQ(Handle::BucketIndex(1), 1u);   // [1, 2)
  EXPECT_EQ(Handle::BucketIndex(2), 2u);   // [2, 4)
  EXPECT_EQ(Handle::BucketIndex(3), 2u);
  EXPECT_EQ(Handle::BucketIndex(4), 3u);   // [4, 8)
  EXPECT_EQ(Handle::BucketIndex(7), 3u);
  EXPECT_EQ(Handle::BucketIndex(1ull << 31), 32u);
  EXPECT_EQ(Handle::BucketIndex((1ull << 32) - 1), 32u);
  // Everything >= 2^32 lands in the overflow bucket.
  EXPECT_EQ(Handle::BucketIndex(1ull << 32),
            HistogramSnapshot::kNumBuckets - 1);
  EXPECT_EQ(Handle::BucketIndex(~0ull), HistogramSnapshot::kNumBuckets - 1);
}

TEST(MetricsRegistryTest, HistogramCountSumMeanAndQuantile) {
  MetricsRegistry registry;
  MetricsRegistry::HistogramHandle h = registry.Histogram("sizes");
  for (std::uint64_t v : {0ull, 1ull, 1ull, 6ull, 40ull}) {
    h.Observe(v);
  }
  const HistogramSnapshot snapshot =
      registry.Snapshot().histograms.at("sizes");
  EXPECT_EQ(snapshot.count, 5u);
  EXPECT_EQ(snapshot.sum, 48u);
  EXPECT_DOUBLE_EQ(snapshot.Mean(), 48.0 / 5.0);
  EXPECT_EQ(snapshot.buckets[0], 1u);
  EXPECT_EQ(snapshot.buckets[1], 2u);
  EXPECT_EQ(snapshot.buckets[3], 1u);  // 6 in [4, 8)
  EXPECT_EQ(snapshot.buckets[6], 1u);  // 40 in [32, 64)
  // Median observation (1) sits in bucket 1, upper edge 2.
  EXPECT_DOUBLE_EQ(snapshot.ApproxQuantile(0.5), 2.0);
  // The max observation sits in bucket [32, 64).
  EXPECT_DOUBLE_EQ(snapshot.ApproxQuantile(1.0), 64.0);
}

TEST(MetricsRegistryTest, WritesFromManyThreadsAllLand) {
  MetricsRegistry registry;
  MetricsRegistry::CounterHandle counter = registry.Counter("n");
  constexpr int kThreads = 8;
  constexpr int kPerThread = 1000;
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([counter]() mutable {
      for (int i = 0; i < kPerThread; ++i) {
        counter.Increment();
      }
    });
  }
  for (std::thread& t : threads) {
    t.join();
  }
  EXPECT_EQ(registry.Snapshot().counters.at("n"),
            static_cast<std::uint64_t>(kThreads) * kPerThread);
}

TEST(PhaseTracerTest, RecordsNestedSpansWithDepths) {
  PhaseTracer tracer;
  {
    PhaseScope outer(&tracer, "outer");
    { PhaseScope inner(&tracer, "inner"); }
  }
  const std::vector<PhaseSpan> spans = tracer.Spans();
  ASSERT_EQ(spans.size(), 2u);
  // Children complete (and record) before their parent.
  EXPECT_EQ(spans[0].name, "inner");
  EXPECT_EQ(spans[0].depth, 1);
  EXPECT_EQ(spans[1].name, "outer");
  EXPECT_EQ(spans[1].depth, 0);
  EXPECT_GE(spans[1].seconds, spans[0].seconds);
}

TEST(PhaseTracerTest, BoundedRetentionCountsDrops) {
  PhaseTracer tracer(/*max_spans=*/2);
  for (int i = 0; i < 5; ++i) {
    PhaseScope span(&tracer, "s");
  }
  EXPECT_EQ(tracer.Spans().size(), 2u);
  EXPECT_EQ(tracer.dropped_spans(), 3u);
}

TEST(PhaseTracerTest, NullTracerDegradesToStopwatch) {
  PhaseScope span(nullptr, "free-standing");
  EXPECT_GE(span.ElapsedSeconds(), 0.0);
  span.Close();  // idempotent, no tracer to record into
  span.Close();
}

TEST(ObsJsonTest, EmitsDocumentedSchema) {
  MetricsRegistry registry;
  PhaseTracer tracer(/*max_spans=*/16);
  registry.Counter("rr.sets_generated").Add(12);
  registry.Gauge("opim_c.approx_ratio").Set(0.73);
  registry.Histogram("rr.set_size").Observe(9);
  { PhaseScope span(&tracer, "opim_c.run"); }

  const std::string json = ObsJson(registry.Snapshot(), &tracer);
  EXPECT_EQ(json.front(), '{');
  EXPECT_NE(json.find("\"schema_version\":1"), std::string::npos);
  EXPECT_NE(json.find("\"counters\":{\"rr.sets_generated\":12}"),
            std::string::npos);
  EXPECT_NE(json.find("\"opim_c.approx_ratio\":0.73"), std::string::npos);
  EXPECT_NE(json.find("\"rr.set_size\":{\"count\":1,\"sum\":9"),
            std::string::npos);
  // A span is exactly a name, a depth and a duration; counts live in
  // "counters" only.
  const std::string span_head =
      R"("spans":[{"name":"opim_c.run","depth":0,"seconds":)";
  const std::size_t head = json.find(span_head);
  ASSERT_NE(head, std::string::npos) << json;
  const std::size_t number = head + span_head.size();
  const std::size_t number_end =
      json.find_first_not_of("0123456789.eE+-", number);
  ASSERT_NE(number_end, std::string::npos) << json;
  EXPECT_GT(number_end, number) << json;
  EXPECT_EQ(json.compare(number_end, 2, "}]"), 0) << json;
  // Nothing was dropped, so the key is omitted.
  EXPECT_EQ(json.find("dropped_spans"), std::string::npos);

  // The fields variant splices into an enclosing object.
  const std::string fields = ObsJsonFields(registry.Snapshot(), &tracer);
  EXPECT_EQ(fields.rfind("\"schema_version\":1", 0), 0u);
  EXPECT_EQ("{" + fields + "}", ObsJson(registry.Snapshot(), &tracer)
                                    .substr(0, fields.size() + 2));
}

}  // namespace
}  // namespace subsim
