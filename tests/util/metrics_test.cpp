// The observability registry: concurrent counter increments are exact,
// histogram bucket edges are inclusive upper bounds, snapshots taken while
// writers are mid-update are safe and monotone, and both renderings (the
// Prometheus text exposition and the `metrics` verb's JSON document) are
// byte-stable goldens. Every test builds its own local registry -- the
// process-global one belongs to the daemon's instrumentation.
#include "util/metrics.h"

#include <gtest/gtest.h>

#include <atomic>
#include <thread>
#include <vector>

#include "util/error.h"
#include "util/json.h"

namespace nwdec::metrics {
namespace {

TEST(MetricsCounterTest, ConcurrentIncrementsLoseNothing) {
  registry reg;
  counter& hits = reg.get_counter("test_hits_total");
  constexpr std::size_t kThreads = 8;
  constexpr std::size_t kIncrements = 20'000;
  std::vector<std::thread> workers;
  for (std::size_t t = 0; t < kThreads; ++t) {
    workers.emplace_back([&hits] {
      for (std::size_t i = 0; i < kIncrements; ++i) hits.inc();
    });
  }
  for (std::thread& worker : workers) worker.join();
  EXPECT_EQ(hits.value(), kThreads * kIncrements);
}

TEST(MetricsCounterTest, IncByAndSameIdentityAliasing) {
  registry reg;
  counter& a = reg.get_counter("test_total", "kind=\"x\"");
  counter& b = reg.get_counter("test_total", "kind=\"x\"");
  EXPECT_EQ(&a, &b);  // same (name, labels) -> same cell
  a.inc(41);
  b.inc();
  EXPECT_EQ(a.value(), 42u);
  // A different label body is a different cell.
  EXPECT_EQ(reg.get_counter("test_total", "kind=\"y\"").value(), 0u);
}

TEST(MetricsRegistryTest, ReRegisteringAsDifferentKindThrows) {
  registry reg;
  reg.get_counter("test_total");
  EXPECT_THROW(reg.get_gauge("test_total"), nwdec::error);
  EXPECT_THROW(reg.get_histogram("test_total"), nwdec::error);
  reg.get_gauge("test_gauge");
  EXPECT_THROW(reg.get_counter("test_gauge"), nwdec::error);
}

TEST(MetricsHistogramTest, BucketEdgesAreInclusiveUpperBounds) {
  histogram h({1.0, 2.0});
  h.observe(-3.0);    // below everything -> first bucket
  h.observe(1.0);     // exactly on an edge -> that bucket (inclusive)
  h.observe(1.5);     // interior
  h.observe(2.0);     // last finite edge, inclusive
  h.observe(2.0001);  // past every edge -> +Inf
  const std::vector<std::uint64_t> counts = h.bucket_counts();
  ASSERT_EQ(counts.size(), 3u);
  EXPECT_EQ(counts[0], 2u);
  EXPECT_EQ(counts[1], 2u);
  EXPECT_EQ(counts[2], 1u);
  EXPECT_EQ(h.count(), 5u);
  EXPECT_DOUBLE_EQ(h.sum(), -3.0 + 1.0 + 1.5 + 2.0 + 2.0001);
}

TEST(MetricsHistogramTest, QuantileInterpolatesInsideTheCoveringBucket) {
  histogram_sample sample;
  sample.bounds = {1.0, 2.0};
  sample.buckets = {5, 5, 0};
  sample.count = 10;
  EXPECT_DOUBLE_EQ(histogram_quantile(sample, 0.5), 1.0);
  EXPECT_DOUBLE_EQ(histogram_quantile(sample, 0.9), 1.8);
  // +Inf observations clamp to the last finite edge.
  sample.buckets = {0, 0, 4};
  sample.count = 4;
  EXPECT_DOUBLE_EQ(histogram_quantile(sample, 0.99), 2.0);
  // Empty histogram -> 0.
  sample.buckets = {0, 0, 0};
  sample.count = 0;
  EXPECT_DOUBLE_EQ(histogram_quantile(sample, 0.5), 0.0);
}

TEST(MetricsSnapshotTest, SnapshotWhileWritingSeesMonotoneCounts) {
  registry reg;
  counter& busy = reg.get_counter("test_busy_total");
  histogram& lat = reg.get_histogram("test_lat_seconds", "", {0.5, 1.0});
  std::atomic<bool> stop{false};
  std::thread writer([&] {
    while (!stop.load(std::memory_order_relaxed)) {
      busy.inc();
      lat.observe(0.25);
    }
  });
  double last = 0.0;
  for (int round = 0; round < 200; ++round) {
    const metrics_snapshot snap = reg.snapshot();
    ASSERT_EQ(snap.counters.size(), 1u);
    ASSERT_EQ(snap.histograms.size(), 1u);
    EXPECT_GE(snap.counters[0].value, last);  // counters are monotone
    last = snap.counters[0].value;
    // Every sampled bucket count is a value the cell actually held.
    EXPECT_LE(snap.histograms[0].buckets[0],
              static_cast<std::uint64_t>(1) << 62);
  }
  stop.store(true);
  writer.join();
  const metrics_snapshot final_snap = reg.snapshot();
  EXPECT_EQ(static_cast<std::uint64_t>(final_snap.counters[0].value),
            busy.value());
  EXPECT_EQ(final_snap.histograms[0].count, lat.count());
}

TEST(MetricsSnapshotTest, ResetZeroesValuesButKeepsRegistrations) {
  registry reg;
  reg.get_counter("test_total").inc(7);
  reg.get_gauge("test_gauge").set(3.5);
  reg.get_histogram("test_seconds", "", {1.0}).observe(0.5);
  reg.reset();
  const metrics_snapshot snap = reg.snapshot();
  ASSERT_EQ(snap.counters.size(), 1u);
  EXPECT_EQ(snap.counters[0].value, 0.0);
  ASSERT_EQ(snap.gauges.size(), 1u);
  EXPECT_EQ(snap.gauges[0].value, 0.0);
  ASSERT_EQ(snap.histograms.size(), 1u);
  EXPECT_EQ(snap.histograms[0].count, 0u);
}

// A small fixed workload whose two renderings are pinned byte for byte
// below; the daemon's `metrics` verb and the gateway's GET /metrics both
// rely on this stability.
metrics_snapshot golden_snapshot(registry& reg) {
  reg.get_counter("nw_requests_total", "kind=\"stats\"").inc();
  reg.get_counter("nw_requests_total", "kind=\"sweep\"").inc(3);
  reg.get_gauge("nw_queue_depth").set(2.0);
  histogram& lat = reg.get_histogram("nw_latency_seconds", "", {0.5, 1.0});
  lat.observe(0.25);
  lat.observe(0.75);
  lat.observe(3.0);
  return reg.snapshot();
}

TEST(MetricsRenderTest, PrometheusTextGolden) {
  registry reg;
  const std::string expected =
      "# TYPE nw_requests_total counter\n"
      "nw_requests_total{kind=\"stats\"} 1\n"
      "nw_requests_total{kind=\"sweep\"} 3\n"
      "# TYPE nw_queue_depth gauge\n"
      "nw_queue_depth 2\n"
      "# TYPE nw_latency_seconds histogram\n"
      "nw_latency_seconds_bucket{le=\"0.5\"} 1\n"
      "nw_latency_seconds_bucket{le=\"1\"} 2\n"
      "nw_latency_seconds_bucket{le=\"+Inf\"} 3\n"
      "nw_latency_seconds_sum 4\n"
      "nw_latency_seconds_count 3\n";
  EXPECT_EQ(to_prometheus(golden_snapshot(reg)), expected);
  // Two snapshots of identical state render byte-identically.
  EXPECT_EQ(to_prometheus(reg.snapshot()), expected);
}

TEST(MetricsRenderTest, JsonSnapshotGolden) {
  registry reg;
  json_writer json(json_writer::style::compact);
  write_json(json, golden_snapshot(reg));
  const std::string document = json.str();
  EXPECT_NE(document.find("\"counters\":{"
                          "\"nw_requests_total{kind=\\\"stats\\\"}\":1,"
                          "\"nw_requests_total{kind=\\\"sweep\\\"}\":3}"),
            std::string::npos)
      << document;
  EXPECT_NE(document.find("\"gauges\":{\"nw_queue_depth\":2}"),
            std::string::npos)
      << document;
  // JSON buckets are per-bucket counts, not Prometheus-style cumulative.
  EXPECT_NE(document.find("\"nw_latency_seconds\":{\"buckets\":"
                          "{\"0.5\":1,\"1\":1,\"+Inf\":1},"
                          "\"count\":3,\"sum\":4}"),
            std::string::npos)
      << document;
}

TEST(MetricsRegistryTest, UptimeAdvances) {
  registry reg;
  const double first = reg.uptime_seconds();
  EXPECT_GE(first, 0.0);
  EXPECT_GE(reg.uptime_seconds(), first);
}

}  // namespace
}  // namespace nwdec::metrics
