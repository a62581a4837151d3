#include "common/metrics.h"

#include <atomic>
#include <bit>
#include <cstdint>
#include <limits>
#include <string>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

namespace nashdb {
namespace metrics {
namespace {

/// The registry is a process-wide singleton; every test starts and ends
/// from a clean, disabled state so ordering cannot leak between tests.
class MetricsTest : public ::testing::Test {
 protected:
  void SetUp() override {
    Registry::Global().Disable();
    Registry::Global().Reset();
  }
  void TearDown() override {
    Registry::Global().Disable();
    Registry::Global().Reset();
  }
};

TEST_F(MetricsTest, CounterSemantics) {
  Registry::Global().Enable();
  Counter* c = Registry::Global().counter("test.counter");
  EXPECT_EQ(c->value(), 0u);
  c->Inc();
  c->Inc(41);
  EXPECT_EQ(c->value(), 42u);
  EXPECT_EQ(Registry::Global().CounterValue("test.counter"), 42u);
  EXPECT_EQ(Registry::Global().CounterValue("test.absent"), 0u);
  c->Reset();
  EXPECT_EQ(c->value(), 0u);
  // Same name resolves to the same instance.
  EXPECT_EQ(Registry::Global().counter("test.counter"), c);
}

TEST_F(MetricsTest, GaugeLastWriteWins) {
  Registry::Global().Enable();
  SetGauge("test.gauge", 1.5);
  SetGauge("test.gauge", -3.0);
  EXPECT_EQ(Registry::Global().gauge("test.gauge")->value(), -3.0);
}

TEST_F(MetricsTest, HistogramBucketsAndStats) {
  Registry::Global().Enable();
  const double bounds[] = {1.0, 10.0, 100.0};
  Histogram* h = Registry::Global().histogram("test.hist", bounds);
  EXPECT_EQ(h->count(), 0u);
  EXPECT_EQ(h->min(), 0.0);  // sentinel masked while empty
  EXPECT_EQ(h->max(), 0.0);
  EXPECT_EQ(h->mean(), 0.0);

  h->Observe(0.5);    // bucket 0 (le 1)
  h->Observe(1.0);    // bucket 0 (inclusive upper bound)
  h->Observe(7.0);    // bucket 1
  h->Observe(1e6);    // overflow bucket
  EXPECT_EQ(h->count(), 4u);
  EXPECT_EQ(h->min(), 0.5);
  EXPECT_EQ(h->max(), 1e6);
  EXPECT_NEAR(h->sum(), 1e6 + 8.5, 1e-9);
  const std::vector<std::uint64_t> counts = h->bucket_counts();
  ASSERT_EQ(counts.size(), 4u);
  EXPECT_EQ(counts[0], 2u);
  EXPECT_EQ(counts[1], 1u);
  EXPECT_EQ(counts[2], 0u);
  EXPECT_EQ(counts[3], 1u);
}

TEST_F(MetricsTest, DisabledModeRegistersNothingAndSharesNoops) {
  ASSERT_FALSE(Enabled());
  Count("test.c", 5);
  SetGauge("test.g", 1.0);
  Observe("test.h", 2.0);
  ScopedTimerMs timer("test.t");
  EXPECT_EQ(timer.ElapsedMs(), 0.0);
  // Nothing was allocated or registered; all lookups share the no-ops.
  EXPECT_EQ(Registry::Global().metric_count(), 0u);
  EXPECT_EQ(Registry::Global().counter("a"), Registry::Global().counter("b"));
  EXPECT_EQ(Registry::Global().gauge("a"), Registry::Global().gauge("b"));
  EXPECT_EQ(Registry::Global().histogram("a"),
            Registry::Global().histogram("b"));
  EXPECT_EQ(Registry::Global().metric_count(), 0u);
}

TEST_F(MetricsTest, ScopedTimerRecordsWhenEnabled) {
  Registry::Global().Enable();
  {
    ScopedTimerMs timer("test.timer_ms");
    EXPECT_GE(timer.ElapsedMs(), 0.0);
  }
  Histogram* h = Registry::Global().histogram("test.timer_ms");
  EXPECT_EQ(h->count(), 1u);
  EXPECT_GE(h->sum(), 0.0);
}

TEST_F(MetricsTest, ConcurrentCountersAndHistogramsLoseNothing) {
  Registry::Global().Enable();
  constexpr int kThreads = 8;
  constexpr int kPerThread = 20'000;
  std::vector<std::thread> workers;
  workers.reserve(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    workers.emplace_back([] {
      for (int i = 0; i < kPerThread; ++i) {
        Count("test.concurrent");
        Observe("test.concurrent_hist", static_cast<double>(i % 100));
      }
    });
  }
  for (std::thread& w : workers) w.join();
  EXPECT_EQ(Registry::Global().CounterValue("test.concurrent"),
            static_cast<std::uint64_t>(kThreads) * kPerThread);
  Histogram* h = Registry::Global().histogram("test.concurrent_hist");
  EXPECT_EQ(h->count(), static_cast<std::uint64_t>(kThreads) * kPerThread);
  EXPECT_EQ(h->min(), 0.0);
  EXPECT_EQ(h->max(), 99.0);
}

TEST_F(MetricsTest, ReconfigTraceRecordAndAnnotate) {
  // Disabled: record is a no-op, annotate claims success (nothing missing).
  ReconfigTrace t;
  t.round = 0;
  Registry::Global().RecordReconfig(t);
  EXPECT_EQ(Registry::Global().reconfig_count(), 0u);
  EXPECT_TRUE(
      Registry::Global().AnnotateLastReconfig([](ReconfigTrace&) {}));

  Registry::Global().Enable();
  // Enabled with no traces: annotate reports the miss so the caller can
  // append a fresh record instead.
  EXPECT_FALSE(
      Registry::Global().AnnotateLastReconfig([](ReconfigTrace&) {}));
  t.window_scans = 50;
  t.nash_equilibrium = true;
  Registry::Global().RecordReconfig(t);
  EXPECT_EQ(Registry::Global().reconfig_count(), 1u);
  EXPECT_TRUE(Registry::Global().AnnotateLastReconfig(
      [](ReconfigTrace& tr) { tr.planned_transfer_tuples = 123; }));

  const std::string json = Registry::Global().SnapshotJson();
  EXPECT_NE(json.find("\"reconfigurations\""), std::string::npos);
  EXPECT_NE(json.find("\"window_scans\": 50"), std::string::npos);
  EXPECT_NE(json.find("\"planned_transfer_tuples\": 123"), std::string::npos);
  EXPECT_NE(json.find("\"nash_equilibrium\": true"), std::string::npos);
}

TEST_F(MetricsTest, SnapshotJsonShape) {
  Registry::Global().Enable();
  Count("value.scans_added", 3);
  SetGauge("replication.disk_fill", 0.75);
  Observe("sim.reconfig_round_ms", 12.0);
  const std::string json = Registry::Global().SnapshotJson();
  EXPECT_NE(json.find("\"counters\""), std::string::npos);
  EXPECT_NE(json.find("\"gauges\""), std::string::npos);
  EXPECT_NE(json.find("\"histograms\""), std::string::npos);
  EXPECT_NE(json.find("\"value.scans_added\": 3"), std::string::npos);
  EXPECT_NE(json.find("\"replication.disk_fill\": 0.75"), std::string::npos);
  EXPECT_NE(json.find("\"le\": \"inf\""), std::string::npos);
  // Balanced braces (cheap well-formedness check without a JSON parser).
  int depth = 0;
  bool in_string = false;
  for (std::size_t i = 0; i < json.size(); ++i) {
    const char c = json[i];
    if (c == '"' && (i == 0 || json[i - 1] != '\\')) in_string = !in_string;
    if (in_string) continue;
    if (c == '{' || c == '[') ++depth;
    if (c == '}' || c == ']') --depth;
    ASSERT_GE(depth, 0);
  }
  EXPECT_EQ(depth, 0);
}

/// Every field of two histograms, the doubles compared by their bits.
void ExpectSameHistogram(const Histogram& got, const Histogram& want,
                         const std::string& what) {
  EXPECT_EQ(got.count(), want.count()) << what;
  EXPECT_EQ(std::bit_cast<std::uint64_t>(got.sum()),
            std::bit_cast<std::uint64_t>(want.sum()))
      << what << ": " << got.sum() << " vs " << want.sum();
  EXPECT_EQ(std::bit_cast<std::uint64_t>(got.min()),
            std::bit_cast<std::uint64_t>(want.min()))
      << what;
  EXPECT_EQ(std::bit_cast<std::uint64_t>(got.max()),
            std::bit_cast<std::uint64_t>(want.max()))
      << what;
  EXPECT_EQ(got.bounds(), want.bounds()) << what;
  EXPECT_EQ(got.bucket_counts(), want.bucket_counts()) << what;
}

// A LocalHistogram merged into an empty registry histogram is the
// histogram that observing its sequence directly builds: count, sum to
// the bit (in an order where rounding shows), min, max and every bucket,
// with a sample on a bound, zeros of both signs, negatives, +inf and
// NaN, at the default and at explicit bounds.
TEST_F(MetricsTest, LocalHistogramMergesAsIfObservedDirectly) {
  Registry::Global().Enable();
  const double inf = std::numeric_limits<double>::infinity();
  const double nan = std::numeric_limits<double>::quiet_NaN();
  const std::vector<std::vector<double>> sequences = {
      {0.1, 0.2, 0.3, 1e-3, 1e16, 1.0, -1e16, 0.7, 10.0},
      {1.0, 0.0, -0.0, -3.5, 2.5e-4, 7.0, 1e7, -1e-9},
      {-0.0, 5.0, inf, 100.0, -2.0},
      {nan, 0.5, 1.0, inf, -7.0, 1e6},
      {-0.0},
      {nan},
  };
  const std::vector<std::vector<double>> bound_sets = {{},
                                                       {1.0, 10.0, 100.0}};
  int name = 0;
  for (const std::vector<double>& bounds : bound_sets) {
    for (const std::vector<double>& seq : sequences) {
      const std::string what = "test.merged" + std::to_string(name++);
      Histogram direct(bounds);
      LocalHistogram local(bounds);
      for (const double x : seq) {
        direct.Observe(x);
        local.Observe(x);
      }
      EXPECT_EQ(local.count(), seq.size()) << what;
      Merge(what, local);
      const Histogram* merged = Registry::Global().histogram(what);
      ExpectSameHistogram(*merged, direct, what);
    }
  }
  EXPECT_EQ(Registry::Global().metric_count(),
            sequences.size() * bound_sets.size());

  // An empty accumulator registers nothing, enabled or not.
  Merge("test.empty", LocalHistogram());
  EXPECT_EQ(Registry::Global().metric_count(),
            sequences.size() * bound_sets.size());
  Registry::Global().Disable();
  LocalHistogram one;
  one.Observe(1.0);
  Merge("test.disabled", one);
  Registry::Global().Enable();
  EXPECT_EQ(Registry::Global().metric_count(),
            sequences.size() * bound_sets.size());
}

TEST_F(MetricsTest, ResetDropsEverything) {
  Registry::Global().Enable();
  Count("test.c");
  Registry::Global().RecordReconfig(ReconfigTrace{});
  EXPECT_EQ(Registry::Global().metric_count(), 1u);
  EXPECT_EQ(Registry::Global().reconfig_count(), 1u);
  Registry::Global().Reset();
  EXPECT_EQ(Registry::Global().metric_count(), 0u);
  EXPECT_EQ(Registry::Global().reconfig_count(), 0u);
}

}  // namespace
}  // namespace metrics
}  // namespace nashdb
