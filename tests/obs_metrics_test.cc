// Metrics-registry unit tests (DESIGN.md §12): bucket-boundary `le`
// semantics, pinned quantile interpolation, a byte-exact Prometheus
// rendering golden, registry lookups across label sets, and a
// multi-threaded record/snapshot hammer the CI TSan job runs to prove
// the lock-free hot path is actually race-free.

#include <cmath>
#include <string>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "obs/metrics.h"

namespace rsr {
namespace obs {
namespace {

TEST(HistogramTest, BoundaryObservationLandsInItsLeBucket) {
  // Prometheus `le` semantics: an observation EQUAL to a bound belongs to
  // that bound's bucket, not the next one.
  Histogram h({1.0, 2.0, 4.0});
  h.Observe(1.0);
  h.Observe(2.0);
  h.Observe(4.0);
  h.Observe(4.0000001);  // just past the last bound -> +Inf
  const HistogramSnapshot snap = h.Snapshot();
  ASSERT_EQ(snap.buckets.size(), 4u);
  EXPECT_EQ(snap.buckets[0], 1u);
  EXPECT_EQ(snap.buckets[1], 1u);
  EXPECT_EQ(snap.buckets[2], 1u);
  EXPECT_EQ(snap.buckets[3], 1u);
  EXPECT_EQ(snap.count, 4u);
}

TEST(HistogramTest, QuantilePinsLinearInterpolation) {
  // bounds {1,2,4}, observations {1,1,2,2,3,3,4,4}:
  //   bucket le=1 -> 2, le=2 -> 2, le=4 -> 4, +Inf -> 0.
  Histogram h({1.0, 2.0, 4.0});
  for (double v : {1.0, 1.0, 2.0, 2.0, 3.0, 3.0, 4.0, 4.0}) h.Observe(v);
  const HistogramSnapshot snap = h.Snapshot();
  ASSERT_EQ(snap.count, 8u);
  // p50: rank 4 is the last observation of the le=2 bucket — exactly its
  // upper edge.
  EXPECT_DOUBLE_EQ(snap.Quantile(0.5), 2.0);
  // p90: rank 7.2, 3.2/4 of the way through the (2,4] bucket.
  EXPECT_DOUBLE_EQ(snap.Quantile(0.9), 3.6);
  // p99: rank 7.92 -> 2 + 2 * 3.92/4.
  EXPECT_DOUBLE_EQ(snap.Quantile(0.99), 3.96);
  // p100 clamps to the top finite bound.
  EXPECT_DOUBLE_EQ(snap.Quantile(1.0), 4.0);
  EXPECT_DOUBLE_EQ(snap.sum, 20.0);
}

TEST(HistogramTest, QuantileEdgeCases) {
  Histogram empty({1.0, 2.0});
  EXPECT_DOUBLE_EQ(empty.Snapshot().Quantile(0.5), 0.0);

  // Everything in +Inf: no finite edge to interpolate toward, so the
  // estimate clamps to the top finite bound (histogram_quantile does the
  // same).
  Histogram overflow({1.0, 2.0});
  overflow.Observe(100.0);
  EXPECT_DOUBLE_EQ(overflow.Snapshot().Quantile(0.99), 2.0);
}

TEST(HistogramTest, DefaultBoundLaddersAreStrictlyIncreasing) {
  for (const std::vector<double>& bounds :
       {DefaultLatencyBounds(), DefaultDepthBounds()}) {
    ASSERT_GE(bounds.size(), 2u);
    for (size_t i = 1; i < bounds.size(); ++i) {
      EXPECT_LT(bounds[i - 1], bounds[i]);
    }
  }
}

TEST(MetricsRegistryTest, PrometheusRenderingGolden) {
  MetricsRegistry registry;
  registry.GetCounter("test_requests_total", "Requests served",
                      {{"code", "200"}})
      ->Inc(3);
  registry.GetCounter("test_requests_total", "Requests served",
                      {{"code", "500"}})
      ->Inc();
  registry.GetGauge("test_depth", "Queue depth")->Set(-2);
  Histogram* h = registry.GetHistogram("test_latency_seconds", "Latency",
                                       {0.001, 0.01});
  h->Observe(0.001);
  h->Observe(0.5);

  // Families in name order; cumulative le buckets; _sum/_count series.
  const std::string expected =
      "# HELP test_depth Queue depth\n"
      "# TYPE test_depth gauge\n"
      "test_depth -2\n"
      "# HELP test_latency_seconds Latency\n"
      "# TYPE test_latency_seconds histogram\n"
      "test_latency_seconds_bucket{le=\"0.001\"} 1\n"
      "test_latency_seconds_bucket{le=\"0.01\"} 1\n"
      "test_latency_seconds_bucket{le=\"+Inf\"} 2\n"
      "test_latency_seconds_sum 0.501\n"
      "test_latency_seconds_count 2\n"
      "# HELP test_requests_total Requests served\n"
      "# TYPE test_requests_total counter\n"
      "test_requests_total{code=\"200\"} 3\n"
      "test_requests_total{code=\"500\"} 1\n";
  EXPECT_EQ(registry.RenderPrometheus(), expected);
}

TEST(MetricsRegistryTest, LookupsAcrossLabelSets) {
  MetricsRegistry registry;
  registry.GetCounter("c_total", "c", {{"dir", "in"}})->Inc(5);
  registry.GetCounter("c_total", "c", {{"dir", "out"}})->Inc(7);
  EXPECT_EQ(registry.CounterValue("c_total", {{"dir", "in"}}), 5u);
  EXPECT_EQ(registry.CounterValue("c_total", {{"dir", "out"}}), 7u);
  EXPECT_EQ(registry.CounterValue("c_total", {{"dir", "sideways"}}), 0u);
  EXPECT_EQ(registry.CounterValue("absent_total"), 0u);
  EXPECT_EQ(registry.SumCounters("c_total"), 12u);
  // A label subset selects the label sets carrying all of it.
  registry.GetCounter("s_total", "s", {{"p", "a"}, {"o", "ok"}})->Inc(2);
  registry.GetCounter("s_total", "s", {{"p", "a"}, {"o", "fail"}})->Inc(3);
  registry.GetCounter("s_total", "s", {{"p", "b"}, {"o", "ok"}})->Inc(4);
  EXPECT_EQ(registry.SumCounters("s_total", {{"o", "ok"}}), 6u);
  EXPECT_EQ(registry.SumCounters("s_total", {{"p", "a"}}), 5u);
  EXPECT_EQ(registry.SumCounters("s_total", {{"p", "b"}, {"o", "fail"}}), 0u);

  registry.GetGauge("g", "g")->Set(-40);
  EXPECT_EQ(registry.GaugeValue("g"), -40);
  EXPECT_EQ(registry.GaugeValue("absent"), 0);

  registry.GetHistogram("h_seconds", "h", {1.0, 2.0}, {{"p", "a"}})
      ->Observe(0.5);
  registry.GetHistogram("h_seconds", "h", {1.0, 2.0}, {{"p", "b"}})
      ->Observe(1.5);
  EXPECT_FALSE(registry.SnapshotHistogram("absent").has_value());
  const auto one = registry.SnapshotHistogram("h_seconds", {{"p", "a"}});
  ASSERT_TRUE(one.has_value());
  EXPECT_EQ(one->count, 1u);
  // The family merge adds buckets/count/sum across label sets.
  const auto merged = registry.SnapshotHistogramSum("h_seconds");
  ASSERT_TRUE(merged.has_value());
  EXPECT_EQ(merged->count, 2u);
  EXPECT_DOUBLE_EQ(merged->sum, 2.0);
  EXPECT_EQ(merged->buckets[0], 1u);
  EXPECT_EQ(merged->buckets[1], 1u);
}

TEST(MetricsRegistryTest, GetReturnsStableSameInstrument) {
  MetricsRegistry registry;
  Counter* a = registry.GetCounter("x_total", "x");
  Counter* b = registry.GetCounter("x_total", "x");
  EXPECT_EQ(a, b);
  a->Inc();
  EXPECT_EQ(b->value(), 1u);
}

// The TSan claim: writers record through relaxed atomics with no lock
// while readers snapshot and render concurrently, and registration
// itself races from many threads. Totals must still be exact.
TEST(MetricsRegistryTest, ConcurrentRecordSnapshotAndRegister) {
  constexpr size_t kThreads = 8;
  constexpr size_t kIters = 20000;
  MetricsRegistry registry;
  std::vector<std::thread> writers;
  writers.reserve(kThreads);
  for (size_t t = 0; t < kThreads; ++t) {
    writers.emplace_back([&registry, t] {
      // First-use registration races across threads by design.
      Counter* counter = registry.GetCounter("hammer_total", "hammer");
      Gauge* gauge = registry.GetGauge("hammer_depth", "hammer");
      Histogram* histogram = registry.GetHistogram(
          "hammer_seconds", "hammer", {0.25, 0.5, 0.75},
          {{"thread", std::to_string(t % 2)}});
      for (size_t i = 0; i < kIters; ++i) {
        counter->Inc();
        gauge->Add(1);
        histogram->Observe(static_cast<double>(i % 4) / 4.0);
      }
    });
  }
  std::thread reader([&registry] {
    for (size_t i = 0; i < 200; ++i) {
      const std::string text = registry.RenderPrometheus();
      EXPECT_NE(text.find("hammer_total"), std::string::npos);
      (void)registry.SnapshotHistogramSum("hammer_seconds");
      (void)registry.CounterValue("hammer_total");
    }
  });
  for (std::thread& w : writers) w.join();
  reader.join();

  EXPECT_EQ(registry.CounterValue("hammer_total"), kThreads * kIters);
  EXPECT_EQ(registry.GaugeValue("hammer_depth"),
            static_cast<int64_t>(kThreads * kIters));
  const auto merged = registry.SnapshotHistogramSum("hammer_seconds");
  ASSERT_TRUE(merged.has_value());
  EXPECT_EQ(merged->count, kThreads * kIters);
}

}  // namespace
}  // namespace obs
}  // namespace rsr
