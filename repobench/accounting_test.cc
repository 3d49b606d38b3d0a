#include "accounting.h"

#include <gtest/gtest.h>

namespace repobench {
namespace {

using bootleg::serve::Json;

TEST(PercentileTest, NearestRankOnRawSamples) {
  const std::vector<double> v = {5, 1, 4, 2, 3};
  EXPECT_DOUBLE_EQ(Percentile(v, 0.5), 3.0);
  EXPECT_DOUBLE_EQ(Percentile(v, 0.9), 5.0);  // ceil(4.5) = 5th
  EXPECT_DOUBLE_EQ(Percentile(v, 0.2), 1.0);  // ceil(1.0) = 1st
  EXPECT_DOUBLE_EQ(Percentile(v, 0.0), 1.0);  // rank clamps to 1
  EXPECT_DOUBLE_EQ(Percentile(v, 1.0), 5.0);
  EXPECT_DOUBLE_EQ(Median({2, 1}), 1.0);
  EXPECT_DOUBLE_EQ(Percentile({}, 0.5), 0.0);
}

TEST(PercentileTest, ExactNotBucketed) {
  std::vector<double> v;
  for (int i = 1; i <= 1000; ++i) v.push_back(0.001 * i);
  EXPECT_DOUBLE_EQ(Percentile(v, 0.5), 0.5);
  EXPECT_DOUBLE_EQ(Percentile(v, 0.9), 0.9);
  EXPECT_DOUBLE_EQ(Percentile(v, 0.99), 0.99);
}

TEST(PhaseTallyTest, CountsFailuresByCode) {
  PhaseTally t;
  t.name = "lo";
  t.sent = 6;
  t.Record(Outcome::kOk);
  t.Record(Outcome::kOk);
  t.Record(OutcomeFromCode("overloaded"));
  t.Record(OutcomeFromCode("deadline_exceeded"));
  t.Record(OutcomeFromCode("something_new"));
  t.Record(Outcome::kMismatch);
  EXPECT_EQ(t.ok(), 2);
  EXPECT_EQ(t.failed(), 4);
  EXPECT_EQ(t.outcomes[static_cast<size_t>(Outcome::kOtherError)], 1);
  const std::string s = t.Summary();
  EXPECT_NE(s.find("sent 6 ok 2 failed 4"), std::string::npos);
  EXPECT_NE(s.find("overloaded 1"), std::string::npos);
  EXPECT_NE(s.find("mismatch 1"), std::string::npos);
}

TEST(PhaseTallyTest, MergePoolsSlices) {
  PhaseTally a, b;
  a.seconds = 0.5;
  a.sent = 2;
  a.Record(Outcome::kOk);
  a.Record(Outcome::kOverloaded);
  a.latency_ms = {1.0};
  a.good_sentences = 8;
  b.seconds = 0.5;
  b.sent = 1;
  b.Record(Outcome::kOk);
  b.latency_ms = {3.0};
  b.lateness_ms = {0.25};
  b.good_sentences = 8;
  a.Merge(b);
  EXPECT_DOUBLE_EQ(a.seconds, 1.0);
  EXPECT_EQ(a.sent, 3);
  EXPECT_EQ(a.ok(), 2);
  EXPECT_EQ(a.failed(), 1);
  EXPECT_EQ(a.good_sentences, 16);
  EXPECT_EQ(a.latency_ms, (std::vector<double>{1.0, 3.0}));
  EXPECT_EQ(a.lateness_ms, (std::vector<double>{0.25}));
}

TEST(SpanF1Test, MatchesSpansAndEntities) {
  SpanF1 f1;
  // Gold: three mentions. Served: one right, one wrong entity, one missing,
  // plus an extra served mention on a non-gold span (ignored).
  AddSpanMatches({{0, 0, 7}, {2, 3, 8}, {5, 5, 9}},
                 {{0, 0, 7}, {2, 3, 1}, {4, 4, 3}}, &f1);
  EXPECT_EQ(f1.gold, 3);
  EXPECT_EQ(f1.predicted, 2);
  EXPECT_EQ(f1.correct, 1);
  const double p = 0.5, r = 1.0 / 3.0;
  EXPECT_DOUBLE_EQ(f1.f1(), 2 * p * r / (p + r));
  EXPECT_DOUBLE_EQ(SpanF1{}.f1(), 0.0);
}

TEST(StatsTest, ReadsAndSubtractsSnapshots) {
  auto before = Json::Parse(
      R"({"ok":true,"batches":10,"overloaded":1,)"
      R"("registry":{"counters":{"store.gather_rows":100},)"
      R"("gauges":{"store.resident_bytes":4096},)"
      R"("histograms":{"serve.queue_wait_us":{"count":4,"mean_us":25}}},)"
      R"("spans":[{"span":"serve.predict","count":10,"total_us":500},)"
      R"({"span":"other","count":1,"total_us":1}]})");
  auto after = Json::Parse(
      R"({"ok":true,"batches":30,"overloaded":1,)"
      R"("registry":{"counters":{"store.gather_rows":400},)"
      R"("gauges":{"store.resident_bytes":8192},)"
      R"("histograms":{"serve.queue_wait_us":{"count":12,"mean_us":30}}},)"
      R"("spans":[{"span":"serve.predict","count":30,"total_us":1700}]})");
  ASSERT_TRUE(before.ok());
  ASSERT_TRUE(after.ok());
  const std::vector<std::string> counters = {
      "batches", "overloaded", "store.gather_rows", "store.resident_bytes"};
  const std::vector<std::string> hists = {"serve.queue_wait_us"};
  const std::vector<std::string> spans = {"serve.predict"};
  const StatsValues b = ReadStats(before.value(), counters, hists, spans);
  const StatsValues a = ReadStats(after.value(), counters, hists, spans);
  EXPECT_DOUBLE_EQ(Get(a, "store.resident_bytes"), 8192);
  EXPECT_EQ(b.count("other#count"), 0u);
  const StatsValues d = Delta(a, b);
  EXPECT_DOUBLE_EQ(Get(d, "batches"), 20);
  EXPECT_DOUBLE_EQ(Get(d, "overloaded"), 0);
  EXPECT_DOUBLE_EQ(Get(d, "store.gather_rows"), 300);
  EXPECT_DOUBLE_EQ(Get(d, "serve.queue_wait_us#count"), 8);
  EXPECT_DOUBLE_EQ(Get(d, "serve.queue_wait_us#sum_us"), 360 - 100);
  EXPECT_DOUBLE_EQ(Get(d, "serve.predict#count"), 20);
  EXPECT_DOUBLE_EQ(Get(d, "serve.predict#sum_us"), 1200);
  EXPECT_DOUBLE_EQ(Get(d, "missing"), 0);
  StatsValues total;
  Accumulate(&total, d);
  Accumulate(&total, d);
  EXPECT_DOUBLE_EQ(Get(total, "batches"), 40);
  EXPECT_DOUBLE_EQ(Get(total, "serve.predict#sum_us"), 2400);
}

}  // namespace
}  // namespace repobench
