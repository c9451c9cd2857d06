/// \file test_metrics.cpp
/// The telemetry subsystem (obs/): registry concurrency with exact
/// totals, histogram bucket boundaries, runtime enable/disable,
/// deterministic trace span IDs across thread counts, span nesting,
/// and the Prometheus/JSON exposition formats. The suite runs under
/// TSan in CI (counters and traces are hammered from many threads).

#include <gtest/gtest.h>

#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "obs/exposition.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "util/error.h"
#include "util/json_parser.h"

namespace bgls {
namespace {

using obs::MetricsRegistry;
using obs::SpanRecord;
using obs::Trace;
using obs::TraceSpan;

TEST(MetricsRegistry, CounterConcurrentIncrementsAreExact) {
  MetricsRegistry registry;
  obs::Counter counter = registry.counter("t_ops_total", "ops");
  obs::Histogram histogram = registry.histogram("t_op_seconds", "op time");
  constexpr int kThreads = 8;
  constexpr int kPerThread = 5000;
  std::vector<std::thread> workers;
  workers.reserve(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    workers.emplace_back([&counter, &histogram] {
      for (int i = 0; i < kPerThread; ++i) {
        counter.add();
        histogram.observe(1e-5);
      }
    });
  }
  for (std::thread& worker : workers) worker.join();
  // Relaxed atomics lose no increments: the totals are exact, not
  // approximate.
  constexpr auto kExpected =
      static_cast<std::uint64_t>(kThreads) * kPerThread;
  EXPECT_EQ(counter.value(), kExpected);
  EXPECT_EQ(histogram.count(), kExpected);
  EXPECT_NEAR(histogram.sum(), kThreads * kPerThread * 1e-5, 1e-9);
}

TEST(MetricsRegistry, HandlesAreCachedPerName) {
  MetricsRegistry registry;
  obs::Counter a = registry.counter("t_total", "help");
  obs::Counter b = registry.counter("t_total", "help");
  a.add(2);
  b.add(3);
  EXPECT_EQ(a.value(), 5u);  // same cell behind both handles
  EXPECT_EQ(registry.snapshot().size(), 1u);
}

TEST(MetricsRegistry, GaugeSetAddSub) {
  MetricsRegistry registry;
  obs::Gauge gauge = registry.gauge("t_depth", "depth");
  gauge.set(10);
  gauge.add(5);
  gauge.sub(7);
  EXPECT_EQ(gauge.value(), 8);
  gauge.sub(9);
  EXPECT_EQ(gauge.value(), -1);  // gauges may go negative
}

TEST(MetricsRegistry, HistogramBucketBoundariesAreInclusive) {
  MetricsRegistry registry;
  const std::vector<double> bounds = {0.001, 0.01, 0.1};
  obs::Histogram histogram = registry.histogram("t_seconds", "t", bounds);
  histogram.observe(0.0005);  // below the first bound
  histogram.observe(0.001);   // exactly on a bound: le is inclusive
  histogram.observe(0.0011);  // just above
  histogram.observe(0.1);     // on the last bound
  histogram.observe(0.5);     // overflow (+Inf only)
  const obs::MetricsSnapshot snapshot = registry.snapshot();
  ASSERT_EQ(snapshot.size(), 1u);
  const obs::SeriesSnapshot& series = snapshot[0];
  ASSERT_EQ(series.bounds, bounds);
  ASSERT_EQ(series.bucket_counts.size(), bounds.size() + 1);  // + overflow
  EXPECT_EQ(series.bucket_counts[0], 2u);
  EXPECT_EQ(series.bucket_counts[1], 1u);
  EXPECT_EQ(series.bucket_counts[2], 1u);
  EXPECT_EQ(series.bucket_counts[3], 1u);
  EXPECT_EQ(series.count, 5u);
}

TEST(MetricsRegistry, KindAndBoundsMismatchThrow) {
  MetricsRegistry registry;
  (void)registry.counter("t_total", "help");
  EXPECT_THROW((void)registry.gauge("t_total", "help"), ValueError);
  (void)registry.histogram("t_seconds", "help", {0.1, 1.0});
  EXPECT_THROW((void)registry.histogram("t_seconds", "help", {0.5}),
               ValueError);
  EXPECT_THROW((void)registry.histogram("t_unsorted", "help", {1.0, 0.1}),
               ValueError);
}

TEST(MetricsRegistry, RuntimeDisableStopsRecording) {
  MetricsRegistry registry;
  obs::Counter counter = registry.counter("t_total", "help");
  counter.add();
  {
    obs::EnabledScope scope(false);
    counter.add(100);  // dropped
  }
  counter.add();
  EXPECT_EQ(counter.value(), 2u);
}

TEST(MetricsRegistry, ResetForTestingZeroesCells) {
  MetricsRegistry registry;
  obs::Counter counter = registry.counter("t_total", "help");
  obs::Histogram histogram = registry.histogram("t_seconds", "help", {1.0});
  counter.add(7);
  histogram.observe(0.5);
  registry.reset_for_testing();
  EXPECT_EQ(counter.value(), 0u);
  EXPECT_EQ(histogram.count(), 0u);
  EXPECT_EQ(histogram.sum(), 0.0);
}

TEST(Exposition, PrometheusTextGolden) {
  MetricsRegistry registry;
  obs::Counter done =
      registry.counter("app_jobs_total{state=\"done\"}", "Jobs by state");
  (void)registry.counter("app_jobs_total{state=\"failed\"}", "Jobs by state");
  obs::Gauge depth = registry.gauge("app_queue_depth", "Queued jobs");
  obs::Histogram wait =
      registry.histogram("app_wait_seconds", "Wait", {0.001, 0.01});
  done.add();
  depth.set(2);
  wait.observe(0.0005);
  wait.observe(0.005);
  wait.observe(5.0);
  const std::string expected =
      "# HELP app_jobs_total Jobs by state\n"
      "# TYPE app_jobs_total counter\n"
      "app_jobs_total{state=\"done\"} 1\n"
      "app_jobs_total{state=\"failed\"} 0\n"
      "# HELP app_queue_depth Queued jobs\n"
      "# TYPE app_queue_depth gauge\n"
      "app_queue_depth 2\n"
      "# HELP app_wait_seconds Wait\n"
      "# TYPE app_wait_seconds histogram\n"
      "app_wait_seconds_bucket{le=\"0.001\"} 1\n"
      "app_wait_seconds_bucket{le=\"0.01\"} 2\n"
      "app_wait_seconds_bucket{le=\"+Inf\"} 3\n"
      "app_wait_seconds_sum 5.0055\n"
      "app_wait_seconds_count 3\n";
  EXPECT_EQ(obs::to_prometheus(registry.snapshot()), expected);
}

TEST(Exposition, JsonDumpParses) {
  MetricsRegistry registry;
  registry.counter("t_total", "help").add(3);
  obs::Histogram histogram = registry.histogram("t_seconds", "help", {1.0});
  histogram.observe(0.5);
  std::ostringstream os;
  obs::write_metrics_json(os, registry.snapshot());
  const JsonValue doc = JsonValue::parse(os.str());
  const JsonValue* series = doc.find("series");
  ASSERT_NE(series, nullptr);
  ASSERT_EQ(series->items().size(), 2u);  // name-sorted: t_seconds, t_total
  EXPECT_EQ(series->items()[0].string_or("kind", ""), "histogram");
  EXPECT_EQ(series->items()[0].u64_or("count", 0), 1u);
  EXPECT_EQ(series->items()[1].string_or("kind", ""), "counter");
  EXPECT_EQ(series->items()[1].u64_or("value", 0), 3u);
}

/// Runs `spans` shard spans of trace 42 across `threads` workers and
/// returns the sorted records — identity must not depend on the split.
std::vector<SpanRecord> shard_spans(int threads, int spans) {
  Trace trace(42);
  std::vector<std::thread> workers;
  workers.reserve(static_cast<std::size_t>(threads));
  for (int t = 0; t < threads; ++t) {
    workers.emplace_back([&trace, t, threads, spans] {
      for (int i = t; i < spans; i += threads) {
        TraceSpan span(&trace, "shard", static_cast<std::uint64_t>(i));
      }
    });
  }
  for (std::thread& worker : workers) worker.join();
  return trace.spans();
}

TEST(TraceSpans, IdsDeterministicAcrossThreadCounts) {
  constexpr int kSpans = 8;
  const std::vector<SpanRecord> serial = shard_spans(1, kSpans);
  const std::vector<SpanRecord> parallel = shard_spans(8, kSpans);
  ASSERT_EQ(serial.size(), static_cast<std::size_t>(kSpans));
  ASSERT_EQ(parallel.size(), static_cast<std::size_t>(kSpans));
  for (int i = 0; i < kSpans; ++i) {
    // spans() sorts by (name, index, id), so position i is shard i.
    EXPECT_EQ(serial[i].name, "shard");
    EXPECT_EQ(serial[i].index, static_cast<std::uint64_t>(i));
    EXPECT_EQ(serial[i].id,
              Trace::span_id(42, "shard", static_cast<std::uint64_t>(i)));
    EXPECT_EQ(parallel[i].id, serial[i].id);
    EXPECT_EQ(parallel[i].parent, serial[i].parent);
  }
}

TEST(TraceSpans, NestingLinksParentOnSameThread) {
  Trace trace(7);
  {
    TraceSpan outer(&trace, "outer");
    EXPECT_EQ(outer.id(), Trace::span_id(7, "outer", 0));
    TraceSpan inner(&trace, "inner");
    EXPECT_EQ(inner.id(), Trace::span_id(7, "inner", 0));
  }
  const std::vector<SpanRecord> spans = trace.spans();  // inner, outer
  ASSERT_EQ(spans.size(), 2u);
  EXPECT_EQ(spans[0].name, "inner");
  EXPECT_EQ(spans[0].parent, spans[1].id);
  EXPECT_EQ(spans[1].parent, 0u);  // the outer span is a root
  EXPECT_GE(spans[1].seconds, spans[0].seconds);
}

TEST(TraceSpans, SiblingSpansDoNotNest) {
  Trace trace(9);
  { TraceSpan first(&trace, "phase", 0); }
  { TraceSpan second(&trace, "phase", 1); }
  for (const SpanRecord& span : trace.spans()) {
    EXPECT_EQ(span.parent, 0u);
  }
}

TEST(TraceSpans, NullTraceAndDisabledAreInert) {
  TraceSpan null_span(nullptr, "x");  // must not crash
  EXPECT_EQ(null_span.id(), 0u);
  Trace trace(3);
  {
    obs::EnabledScope scope(false);
    TraceSpan span(&trace, "x");
    EXPECT_EQ(span.id(), 0u);
  }
  EXPECT_TRUE(trace.spans().empty());
}

TEST(TraceSpans, SpanIdNeverZero) {
  // 0 is reserved for "no span"; the hash remaps collisions onto 1.
  EXPECT_NE(Trace::span_id(0, "", 0), 0u);
  EXPECT_NE(Trace::span_id(42, "shard", 3), 0u);
}

}  // namespace
}  // namespace bgls
