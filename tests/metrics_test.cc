// Observability layer: the latency histogram must use the complete 1-2-5
// bucket ladder and ceiling-rank percentiles (golden tables below), the
// registry must hand out stable lock-free instruments, trace spans must be
// free when disabled and aggregate correctly when enabled.

#include <atomic>
#include <filesystem>
#include <fstream>
#include <string>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "obs/metrics.h"
#include "obs/trace.h"

namespace bootleg {
namespace {

namespace fs = std::filesystem;

using obs::Counter;
using obs::Gauge;
using obs::LatencyHistogram;
using obs::MetricsRegistry;

// ---------------------------------------------------------------------------
// Histogram bucket ladder
// ---------------------------------------------------------------------------

TEST(LatencyHistogramTest, BucketLadderIsCompleteOneTwoFive) {
  // Golden table: a full 1-2-5 ladder per decade from 1µs to 100s. The
  // 50,000,000µs rung was missing before the fix.
  const int64_t kExpected[LatencyHistogram::kNumBuckets - 1] = {
      1,        2,        5,        10,       20,
      50,       100,      200,      500,      1000,
      2000,     5000,     10000,    20000,    50000,
      100000,   200000,   500000,   1000000,  2000000,
      5000000,  10000000, 20000000, 50000000, 100000000};
  for (int i = 0; i < LatencyHistogram::kNumBuckets - 1; ++i) {
    EXPECT_EQ(LatencyHistogram::BucketBoundUs(i), kExpected[i]) << "bucket " << i;
  }
  // The overflow bucket is unbounded and reports its lower edge.
  EXPECT_EQ(LatencyHistogram::BucketBoundUs(LatencyHistogram::kNumBuckets - 1),
            100000000);
  for (int i = 1; i < LatencyHistogram::kNumBuckets - 1; ++i) {
    EXPECT_LT(LatencyHistogram::BucketBoundUs(i - 1),
              LatencyHistogram::BucketBoundUs(i));
  }
}

// Records one value and reads back the bound of the bucket it landed in.
int64_t BucketOf(int64_t micros) {
  LatencyHistogram h;
  h.Record(micros);
  return h.PercentileUs(1.0);
}

TEST(LatencyHistogramTest, BucketAssignment) {
  EXPECT_EQ(BucketOf(0), 1);
  EXPECT_EQ(BucketOf(1), 1);
  EXPECT_EQ(BucketOf(2), 2);
  EXPECT_EQ(BucketOf(3), 5);
  EXPECT_EQ(BucketOf(999), 1000);
  EXPECT_EQ(BucketOf(1000), 1000);
  EXPECT_EQ(BucketOf(1001), 2000);
  // Observations between 20s and 50s belong in the restored 50,000,000 rung,
  // not in the 100s bucket.
  EXPECT_EQ(BucketOf(20000001), 50000000);
  EXPECT_EQ(BucketOf(50000000), 50000000);
  EXPECT_EQ(BucketOf(50000001), 100000000);
  EXPECT_EQ(BucketOf(100000000), 100000000);
  // Past the ladder: the overflow bucket reports its lower edge.
  EXPECT_EQ(BucketOf(100000001), 100000000);
  EXPECT_EQ(BucketOf(-5), 1);  // negatives clamp into bucket 0
}

// ---------------------------------------------------------------------------
// Percentiles: ceiling 1-based rank, exact small-sample golden tables
// ---------------------------------------------------------------------------

TEST(LatencyHistogramTest, PercentileEmptyReturnsZero) {
  LatencyHistogram h;
  for (double q : {0.0, 0.5, 0.95, 0.99, 1.0}) EXPECT_EQ(h.PercentileUs(q), 0);
}

TEST(LatencyHistogramTest, PercentileSingleObservation) {
  LatencyHistogram h;
  h.Record(7);  // bucket bound 10
  // With n=1 every quantile is the sole observation (rank clamps to 1).
  for (double q : {0.0, 0.5, 0.95, 0.99, 1.0}) {
    EXPECT_EQ(h.PercentileUs(q), 10) << "q=" << q;
  }
}

TEST(LatencyHistogramTest, PercentileTwoObservations) {
  LatencyHistogram h;
  h.Record(1);        // bucket bound 1
  h.Record(1000000);  // bucket bound 1000000
  EXPECT_EQ(h.PercentileUs(0.0), 1);        // rank clamps up to 1
  EXPECT_EQ(h.PercentileUs(0.5), 1);        // ceil(0.5·2) = 1
  EXPECT_EQ(h.PercentileUs(0.95), 1000000);  // ceil(1.9) = 2
  EXPECT_EQ(h.PercentileUs(0.99), 1000000);  // ceil(1.98) = 2
  EXPECT_EQ(h.PercentileUs(1.0), 1000000);   // rank 2
}

TEST(LatencyHistogramTest, PercentileThreeObservationsUsesCeilingRank) {
  LatencyHistogram h;
  h.Record(1);        // bucket bound 1
  h.Record(2);        // bucket bound 2
  h.Record(1000000);  // bucket bound 1000000
  EXPECT_EQ(h.PercentileUs(0.0), 1);
  // p50 of 3 observations is the 2nd (ceil(1.5) = 2). The old floor-rank
  // implementation returned the 1st here.
  EXPECT_EQ(h.PercentileUs(0.5), 2);
  EXPECT_EQ(h.PercentileUs(0.95), 1000000);  // ceil(2.85) = 3
  EXPECT_EQ(h.PercentileUs(0.99), 1000000);  // ceil(2.97) = 3
  EXPECT_EQ(h.PercentileUs(1.0), 1000000);
}

TEST(LatencyHistogramTest, CountSumMeanReset) {
  LatencyHistogram h;
  h.Record(10);
  h.Record(30);
  EXPECT_EQ(h.count(), 2);
  EXPECT_EQ(h.sum_us(), 40);
  EXPECT_DOUBLE_EQ(h.MeanUs(), 20.0);
  h.Reset();
  EXPECT_EQ(h.count(), 0);
  EXPECT_EQ(h.sum_us(), 0);
  EXPECT_EQ(h.PercentileUs(0.5), 0);
}

TEST(LatencyHistogramTest, SnapshotSummarizes) {
  LatencyHistogram h;
  for (int i = 0; i < 100; ++i) h.Record(i < 99 ? 10 : 5000);
  const obs::HistogramSnapshot snap = obs::Snapshot(h);
  EXPECT_EQ(snap.count, 100);
  EXPECT_EQ(snap.p50_us, 10);
  EXPECT_EQ(snap.p95_us, 10);
  EXPECT_EQ(snap.p99_us, 10);  // rank 99 is still the 10µs bucket
  EXPECT_EQ(h.PercentileUs(1.0), 5000);
}

// ---------------------------------------------------------------------------
// Registry
// ---------------------------------------------------------------------------

TEST(MetricsRegistryTest, InstrumentsAreStableAndNamed) {
  MetricsRegistry reg;
  Counter* c = reg.GetCounter("test.requests");
  EXPECT_EQ(reg.GetCounter("test.requests"), c);  // same slot on re-lookup
  c->Add(3);
  c->Add();
  EXPECT_EQ(c->value(), 4);

  Gauge* g = reg.GetGauge("test.depth");
  EXPECT_EQ(reg.GetGauge("test.depth"), g);
  g->Set(2.5);
  EXPECT_DOUBLE_EQ(g->value(), 2.5);

  LatencyHistogram* h = reg.GetHistogram("test.wait_us");
  EXPECT_EQ(reg.GetHistogram("test.wait_us"), h);
  h->Record(42);

  const auto counters = reg.CounterValues();
  ASSERT_EQ(counters.size(), 1u);
  EXPECT_EQ(counters[0].first, "test.requests");
  EXPECT_EQ(counters[0].second, 4);
  const auto hists = reg.HistogramValues();
  ASSERT_EQ(hists.size(), 1u);
  EXPECT_EQ(hists[0].second.count, 1);
}

TEST(MetricsRegistryTest, ValuesAreSortedByName) {
  MetricsRegistry reg;
  reg.GetCounter("b.two")->Add(2);
  reg.GetCounter("a.one")->Add(1);
  reg.GetCounter("c.three")->Add(3);
  const auto values = reg.CounterValues();
  ASSERT_EQ(values.size(), 3u);
  EXPECT_EQ(values[0].first, "a.one");
  EXPECT_EQ(values[1].first, "b.two");
  EXPECT_EQ(values[2].first, "c.three");
}

TEST(MetricsRegistryTest, DumpJsonAndReset) {
  MetricsRegistry reg;
  reg.GetCounter("x.count")->Add(7);
  reg.GetGauge("x.depth")->Set(1.0);
  reg.GetHistogram("x.wait_us")->Record(10);
  const std::string json = reg.DumpJson();
  EXPECT_NE(json.find("\"counters\""), std::string::npos);
  EXPECT_NE(json.find("\"x.count\": 7"), std::string::npos);
  EXPECT_NE(json.find("\"gauges\""), std::string::npos);
  EXPECT_NE(json.find("\"histograms\""), std::string::npos);
  EXPECT_NE(json.find("\"x.wait_us\""), std::string::npos);

  Counter* c = reg.GetCounter("x.count");
  reg.Reset();
  EXPECT_EQ(c->value(), 0);  // zeroed in place, pointer still valid
  EXPECT_EQ(reg.GetCounter("x.count"), c);
  EXPECT_EQ(reg.GetHistogram("x.wait_us")->count(), 0);
}

TEST(MetricsRegistryTest, GlobalIsSingleton) {
  EXPECT_EQ(&MetricsRegistry::Global(), &MetricsRegistry::Global());
}

TEST(MetricsRegistryTest, ConcurrentRecorders) {
  MetricsRegistry reg;
  constexpr int kThreads = 8;
  constexpr int kOps = 10000;
  std::vector<std::thread> threads;
  threads.reserve(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&reg] {
      // Every thread resolves the same names — exercises the map lock — and
      // then hammers the lock-free instruments.
      Counter* c = reg.GetCounter("mt.count");
      LatencyHistogram* h = reg.GetHistogram("mt.wait_us");
      Gauge* g = reg.GetGauge("mt.depth");
      for (int i = 0; i < kOps; ++i) {
        c->Add();
        h->Record(i % 1000);
        g->Set(static_cast<double>(i));
      }
    });
  }
  for (std::thread& t : threads) t.join();
  EXPECT_EQ(reg.GetCounter("mt.count")->value(), kThreads * kOps);
  EXPECT_EQ(reg.GetHistogram("mt.wait_us")->count(), kThreads * kOps);
}

// ---------------------------------------------------------------------------
// Trace spans
// ---------------------------------------------------------------------------

// Each test that toggles tracing restores the disabled default on exit.
class TraceTest : public ::testing::Test {
 protected:
  void SetUp() override { obs::Trace::Reset(); }
  void TearDown() override {
    obs::Trace::Enable(false);
    obs::Trace::Reset();
  }
};

TEST_F(TraceTest, DisabledSpansRecordNothing) {
  obs::Trace::Enable(false);
  {
    OBS_SPAN("test.disabled_stage");
  }
  EXPECT_EQ(obs::Trace::Stage("test.disabled_stage")->count(), 0);
  for (const obs::SpanSummary& s : obs::Trace::Summaries()) {
    EXPECT_NE(s.name, "test.disabled_stage");
  }
}

TEST_F(TraceTest, EnabledSpansAggregate) {
  obs::Trace::Enable(true);
  for (int i = 0; i < 5; ++i) {
    OBS_SPAN("test.enabled_stage");
  }
  obs::StageStats* stats = obs::Trace::Stage("test.enabled_stage");
  EXPECT_EQ(stats->count(), 5);
  EXPECT_GE(stats->max_us(), 0);

  bool found = false;
  for (const obs::SpanSummary& s : obs::Trace::Summaries()) {
    if (s.name != "test.enabled_stage") continue;
    found = true;
    EXPECT_EQ(s.count, 5);
    EXPECT_EQ(s.total_us, stats->total_us());
    EXPECT_GE(s.max_us, 0);
  }
  EXPECT_TRUE(found);
}

TEST_F(TraceTest, StagePointersAreStableAcrossReset) {
  obs::StageStats* stats = obs::Trace::Stage("test.stable_stage");
  obs::Trace::Enable(true);
  {
    OBS_SPAN("test.stable_stage");
  }
  EXPECT_EQ(stats->count(), 1);
  obs::Trace::Reset();
  EXPECT_EQ(obs::Trace::Stage("test.stable_stage"), stats);
  EXPECT_EQ(stats->count(), 0);
}

TEST_F(TraceTest, SpanStraddlingDisableIsRecordedIffOpenWhileEnabled) {
  obs::Trace::Enable(true);
  {
    OBS_SPAN("test.straddle");
    obs::Trace::Enable(false);  // span opened enabled → still recorded
  }
  EXPECT_EQ(obs::Trace::Stage("test.straddle")->count(), 1);
  {
    OBS_SPAN("test.straddle");
    obs::Trace::Enable(true);  // span opened disabled → not recorded
  }
  EXPECT_EQ(obs::Trace::Stage("test.straddle")->count(), 1);
}

TEST_F(TraceTest, WriteJsonlEmitsOneLinePerStage) {
  obs::Trace::Enable(true);
  {
    OBS_SPAN("test.jsonl_a");
  }
  {
    OBS_SPAN("test.jsonl_b");
  }
  const std::string path =
      (fs::temp_directory_path() / "bootleg_metrics_test_trace.jsonl").string();
  ASSERT_TRUE(obs::Trace::WriteJsonl(path).ok());
  std::ifstream in(path);
  std::vector<std::string> lines;
  for (std::string line; std::getline(in, line);) lines.push_back(line);
  fs::remove(path);
  ASSERT_EQ(lines.size(), 2u);
  EXPECT_NE(lines[0].find("\"span\": \"test.jsonl_a\""), std::string::npos);
  EXPECT_NE(lines[1].find("\"span\": \"test.jsonl_b\""), std::string::npos);
  EXPECT_NE(lines[0].find("\"count\": 1"), std::string::npos);
}

TEST_F(TraceTest, ConcurrentSpans) {
  obs::Trace::Enable(true);
  constexpr int kThreads = 8;
  constexpr int kOps = 2000;
  std::vector<std::thread> threads;
  threads.reserve(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([] {
      for (int i = 0; i < kOps; ++i) {
        OBS_SPAN("test.concurrent_stage");
      }
    });
  }
  for (std::thread& t : threads) t.join();
  EXPECT_EQ(obs::Trace::Stage("test.concurrent_stage")->count(),
            kThreads * kOps);
}

}  // namespace
}  // namespace bootleg
