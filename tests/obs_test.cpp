// Tests for src/obs/: metrics core (counter/gauge/histogram correctness,
// percentile edge cases, concurrent aggregation), the registry contract
// (stable handles, kind conflicts, Prometheus and JSON exposition) and the
// span tracer (Chrome trace-event round trip, drop accounting, inactive
// no-op). Runs under the ASan+UBSan and TSan CI jobs — the concurrent cases
// double as race detectors for the sharded cells and trace buffers.

#include <gtest/gtest.h>

#include <cstdint>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "svc/json.hpp"

namespace {

using namespace reconf;

/// Every test runs with the runtime switch on and restores the previous
/// state — the suite must not leak a disabled registry into other tests in
/// the same ctest invocation, nor depend on RECONF_OBS in the environment.
class ObsTest : public ::testing::Test {
 protected:
  void SetUp() override {
    was_enabled_ = obs::enabled();
    obs::set_enabled(true);
  }
  void TearDown() override { obs::set_enabled(was_enabled_); }

 private:
  bool was_enabled_ = false;
};

// ---------------------------------------------------------------- counter --

TEST_F(ObsTest, CounterStartsAtZeroAndAccumulates) {
  obs::Counter c;
  EXPECT_EQ(c.value(), 0u);
  c.inc();
  c.inc(41);
  EXPECT_EQ(c.value(), 42u);
}

TEST_F(ObsTest, CounterDisabledIsNoOp) {
  obs::Counter c;
  c.inc(5);
  obs::set_enabled(false);
  c.inc(1000);
  obs::set_enabled(true);
  c.inc(5);
  EXPECT_EQ(c.value(), 10u);
}

TEST_F(ObsTest, CounterConcurrentIncrementsAreExact) {
  // Each spawned thread gets its own cell index; the aggregate must equal
  // the total regardless of how threads map onto the kCells shards.
  obs::Counter c;
  constexpr int kThreads = 8;
  constexpr int kIncs = 20000;
  std::vector<std::thread> threads;
  threads.reserve(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&c] {
      for (int i = 0; i < kIncs; ++i) c.inc();
    });
  }
  for (auto& t : threads) t.join();
  EXPECT_EQ(c.value(), static_cast<std::uint64_t>(kThreads) * kIncs);
}

// ------------------------------------------------------------------ gauge --

TEST_F(ObsTest, GaugeSetAddValue) {
  obs::Gauge g;
  EXPECT_DOUBLE_EQ(g.value(), 0.0);
  g.set(2.5);
  EXPECT_DOUBLE_EQ(g.value(), 2.5);
  g.add(-1.0);
  EXPECT_DOUBLE_EQ(g.value(), 1.5);
}

// -------------------------------------------------------------- histogram --

TEST_F(ObsTest, HistogramBucketBoundariesAreUpperInclusive) {
  // Bucket i holds samples in (bounds[i-1], bounds[i]]; beyond the last
  // bound is the overflow bucket.
  obs::Histogram h({10, 20, 50});
  h.record(0);    // -> bucket 0
  h.record(10);   // -> bucket 0 (upper bound inclusive)
  h.record(11);   // -> bucket 1
  h.record(20);   // -> bucket 1
  h.record(50);   // -> bucket 2
  h.record(51);   // -> overflow
  h.record(1000); // -> overflow

  const obs::HistogramSnapshot snap = h.snapshot();
  ASSERT_EQ(snap.bucket_counts.size(), 4u);
  EXPECT_EQ(snap.bucket_counts[0], 2u);
  EXPECT_EQ(snap.bucket_counts[1], 2u);
  EXPECT_EQ(snap.bucket_counts[2], 1u);
  EXPECT_EQ(snap.bucket_counts[3], 2u);
  EXPECT_EQ(snap.count, 7u);
  EXPECT_EQ(snap.sum, 0u + 10 + 11 + 20 + 50 + 51 + 1000);
  EXPECT_EQ(snap.max, 1000u);
}

TEST_F(ObsTest, HistogramPercentileEdgeCases) {
  obs::Histogram h({10, 20, 50});

  // Empty: every quantile is 0.
  EXPECT_EQ(h.percentile(0.5), 0u);
  EXPECT_EQ(h.percentile(0.99), 0u);

  // Single sample: every quantile is its bucket's upper bound.
  h.record(15);
  EXPECT_EQ(h.percentile(0.0), 20u);
  EXPECT_EQ(h.percentile(0.5), 20u);
  EXPECT_EQ(h.percentile(1.0), 20u);
}

TEST_F(ObsTest, HistogramPercentileRankArithmetic) {
  obs::Histogram h({10, 20, 50});
  // 98 samples in (0,10], 1 in (10,20], 1 in (20,50]: p50 must sit in the
  // first bucket, p99 in the second, p100 in the third.
  for (int i = 0; i < 98; ++i) h.record(5);
  h.record(15);
  h.record(30);
  EXPECT_EQ(h.percentile(0.50), 10u);
  EXPECT_EQ(h.percentile(0.99), 20u);
  EXPECT_EQ(h.percentile(1.0), 50u);
}

TEST_F(ObsTest, HistogramOverflowPercentileReportsTrackedMax) {
  obs::Histogram h({10});
  h.record(123456);
  EXPECT_EQ(h.percentile(0.5), 123456u);
  EXPECT_EQ(h.snapshot().max, 123456u);
}

TEST_F(ObsTest, HistogramDefaultBoundsCoverLatencyLadder) {
  const auto bounds = obs::Histogram::default_latency_bounds();
  ASSERT_GE(bounds.size(), 2u);
  EXPECT_EQ(bounds.front(), 10u);                 // 10 ns
  EXPECT_EQ(bounds.back(), 10'000'000'000u);      // 10 s
  for (std::size_t i = 1; i < bounds.size(); ++i) {
    EXPECT_LT(bounds[i - 1], bounds[i]);
  }
}

TEST_F(ObsTest, HistogramConcurrentRecordsAggregate) {
  obs::Histogram h({100, 1000});
  constexpr int kThreads = 8;
  constexpr int kRecords = 5000;
  std::vector<std::thread> threads;
  threads.reserve(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&h, t] {
      for (int i = 0; i < kRecords; ++i) {
        h.record(static_cast<std::uint64_t>(t * 100 + 50));
      }
    });
  }
  for (auto& t : threads) t.join();
  const obs::HistogramSnapshot snap = h.snapshot();
  EXPECT_EQ(snap.count, static_cast<std::uint64_t>(kThreads) * kRecords);
  EXPECT_EQ(snap.bucket_counts[0] + snap.bucket_counts[1] +
                snap.bucket_counts[2],
            snap.count);
}

// --------------------------------------------------------------- registry --

TEST_F(ObsTest, RegistryReturnsStableHandles) {
  obs::MetricsRegistry reg;
  obs::Counter& a = reg.counter("reconf_test_total");
  obs::Counter& b = reg.counter("reconf_test_total");
  EXPECT_EQ(&a, &b);
  obs::Gauge& g1 = reg.gauge("reconf_test_gauge");
  obs::Gauge& g2 = reg.gauge("reconf_test_gauge");
  EXPECT_EQ(&g1, &g2);
  obs::Histogram& h1 = reg.histogram("reconf_test_ns");
  obs::Histogram& h2 = reg.histogram("reconf_test_ns", {1, 2, 3});
  EXPECT_EQ(&h1, &h2);
  // Bounds of the first creation win.
  EXPECT_EQ(h2.bounds(), obs::Histogram::default_latency_bounds());
}

TEST_F(ObsTest, RegistryRejectsKindConflicts) {
  obs::MetricsRegistry reg;
  (void)reg.counter("reconf_conflict");
  EXPECT_THROW((void)reg.gauge("reconf_conflict"), std::invalid_argument);
  EXPECT_THROW((void)reg.histogram("reconf_conflict"), std::invalid_argument);
}

TEST_F(ObsTest, PrometheusTextExposition) {
  obs::MetricsRegistry reg;
  reg.counter("reconf_requests_total").inc(3);
  reg.gauge("reconf_depth").set(1.5);
  obs::Histogram& h = reg.histogram("reconf_lat_ns", {10, 100});
  h.record(5);
  h.record(5);
  h.record(50);
  h.record(5000);

  const std::string text = reg.prometheus_text();
  EXPECT_NE(text.find("# TYPE reconf_requests_total counter"),
            std::string::npos);
  EXPECT_NE(text.find("reconf_requests_total 3"), std::string::npos);
  EXPECT_NE(text.find("reconf_depth 1.5"), std::string::npos);
  // Cumulative buckets: 2 (≤10), 3 (≤100), 4 (+Inf), plus sum and count.
  EXPECT_NE(text.find("reconf_lat_ns_bucket{le=\"10\"} 2"),
            std::string::npos);
  EXPECT_NE(text.find("reconf_lat_ns_bucket{le=\"100\"} 3"),
            std::string::npos);
  EXPECT_NE(text.find("reconf_lat_ns_bucket{le=\"+Inf\"} 4"),
            std::string::npos);
  EXPECT_NE(text.find("reconf_lat_ns_count 4"), std::string::npos);
}

TEST_F(ObsTest, PrometheusMergesLeIntoExistingLabels) {
  obs::MetricsRegistry reg;
  reg.histogram("reconf_lat_ns{analyzer=\"dp\"}", {10}).record(1);
  const std::string text = reg.prometheus_text();
  // The le label joins the existing label set instead of nesting braces.
  EXPECT_NE(text.find("reconf_lat_ns_bucket{analyzer=\"dp\",le=\"10\"} 1"),
            std::string::npos);
  EXPECT_EQ(text.find("}{"), std::string::npos);
}

TEST_F(ObsTest, JsonSnapshotIsValidJsonWithExpectedShape) {
  obs::MetricsRegistry reg;
  reg.counter("reconf_c_total").inc(7);
  reg.gauge("reconf_g").set(0.25);
  obs::Histogram& h = reg.histogram("reconf_h_ns", {100, 1000});
  for (int i = 0; i < 10; ++i) h.record(50);

  const svc::json::Value doc = svc::json::parse(reg.json_snapshot());
  ASSERT_EQ(doc.kind, svc::json::Value::Kind::kObject);
  const auto* counters = doc.find("counters");
  const auto* gauges = doc.find("gauges");
  const auto* histograms = doc.find("histograms");
  ASSERT_NE(counters, nullptr);
  ASSERT_NE(gauges, nullptr);
  ASSERT_NE(histograms, nullptr);
  const auto* c = counters->find("reconf_c_total");
  ASSERT_NE(c, nullptr);
  EXPECT_EQ(c->integer, 7);
  const auto* g = gauges->find("reconf_g");
  ASSERT_NE(g, nullptr);
  EXPECT_DOUBLE_EQ(g->number, 0.25);
  const auto* hist = histograms->find("reconf_h_ns");
  ASSERT_NE(hist, nullptr);
  ASSERT_NE(hist->find("count"), nullptr);
  EXPECT_EQ(hist->find("count")->integer, 10);
  ASSERT_NE(hist->find("p99"), nullptr);
  EXPECT_EQ(hist->find("p99")->integer, 100);
}

// ------------------------------------------------------------------ trace --

TEST_F(ObsTest, TraceExportRoundTripsChromeFormat) {
  obs::Tracer& tracer = obs::Tracer::instance();
  tracer.start();
  {
    const obs::Span outer("outer.span", "test");
    const obs::Span inner("inner.span", "test");
  }
  tracer.record("explicit", "test", obs::Tracer::now_ns(), 1000);
  tracer.stop();

  const std::string json = tracer.chrome_json();
  const svc::json::Value doc = svc::json::parse(json);
  ASSERT_EQ(doc.kind, svc::json::Value::Kind::kObject);
  const auto* unit = doc.find("displayTimeUnit");
  ASSERT_NE(unit, nullptr);
  EXPECT_EQ(unit->text, "ns");
  const auto* events = doc.find("traceEvents");
  ASSERT_NE(events, nullptr);
  ASSERT_EQ(events->kind, svc::json::Value::Kind::kArray);
  ASSERT_GE(events->items.size(), 3u);
  bool saw_outer = false;
  for (const auto& e : events->items) {
    ASSERT_EQ(e.kind, svc::json::Value::Kind::kObject);
    ASSERT_NE(e.find("name"), nullptr);
    ASSERT_NE(e.find("cat"), nullptr);
    ASSERT_NE(e.find("ph"), nullptr);
    EXPECT_EQ(e.find("ph")->text, "X");
    ASSERT_NE(e.find("ts"), nullptr);
    ASSERT_NE(e.find("dur"), nullptr);
    ASSERT_NE(e.find("pid"), nullptr);
    ASSERT_NE(e.find("tid"), nullptr);
    saw_outer = saw_outer || e.find("name")->text == "outer.span";
  }
  EXPECT_TRUE(saw_outer);
}

TEST_F(ObsTest, TraceDropsBeyondCapacityAndCounts) {
  obs::Tracer& tracer = obs::Tracer::instance();
  tracer.start(/*per_thread_capacity=*/4);
  for (int i = 0; i < 10; ++i) {
    tracer.record("e", "test", obs::Tracer::now_ns(), 1);
  }
  tracer.stop();
  EXPECT_EQ(tracer.event_count(), 4u);
  EXPECT_EQ(tracer.dropped(), 6u);
}

TEST_F(ObsTest, InactiveSpanRecordsNothing) {
  obs::Tracer& tracer = obs::Tracer::instance();
  tracer.start();
  tracer.stop();
  const std::size_t before = tracer.event_count();
  {
    const obs::Span span("should.not.appear", "test");
  }
  EXPECT_EQ(tracer.event_count(), before);
}

TEST_F(ObsTest, TraceStartClearsPreviousTrace) {
  obs::Tracer& tracer = obs::Tracer::instance();
  tracer.start();
  tracer.record("old", "test", obs::Tracer::now_ns(), 1);
  tracer.stop();
  ASSERT_GE(tracer.event_count(), 1u);
  tracer.start();
  tracer.stop();
  EXPECT_EQ(tracer.event_count(), 0u);
  EXPECT_EQ(tracer.dropped(), 0u);
}

TEST_F(ObsTest, TraceConcurrentSpansLandInPerThreadBuffers) {
  obs::Tracer& tracer = obs::Tracer::instance();
  tracer.start();
  constexpr int kThreads = 4;
  constexpr int kSpans = 200;
  std::vector<std::thread> threads;
  threads.reserve(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&tracer] {
      for (int i = 0; i < kSpans; ++i) {
        tracer.record("worker.span", "test", obs::Tracer::now_ns(), 10);
      }
    });
  }
  for (auto& t : threads) t.join();
  tracer.stop();
  EXPECT_EQ(tracer.event_count() + tracer.dropped(),
            static_cast<std::uint64_t>(kThreads) * kSpans);
  // The export must still be one valid JSON document.
  const svc::json::Value doc = svc::json::parse(tracer.chrome_json());
  EXPECT_EQ(doc.kind, svc::json::Value::Kind::kObject);
}

}  // namespace
