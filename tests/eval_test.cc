#include "eval/evaluator.h"

#include <gtest/gtest.h>

#include "data/generator.h"
#include "data/weak_label.h"
#include "data/world.h"
#include "eval/error_analysis.h"

namespace bootleg::eval {
namespace {

TEST(PrfTest, PerfectScore) {
  Prf prf{10, 10, 10};
  EXPECT_EQ(prf.precision(), 100.0);
  EXPECT_EQ(prf.recall(), 100.0);
  EXPECT_EQ(prf.f1(), 100.0);
}

TEST(PrfTest, PrecisionRecallDiverge) {
  // 8 correct out of 9 predictions over 12 gold mentions.
  Prf prf{8, 9, 12};
  EXPECT_NEAR(prf.precision(), 100.0 * 8 / 9, 1e-9);
  EXPECT_NEAR(prf.recall(), 100.0 * 8 / 12, 1e-9);
  EXPECT_GT(prf.precision(), prf.recall());
  EXPECT_GT(prf.f1(), prf.recall());
  EXPECT_LT(prf.f1(), prf.precision());
}

TEST(PrfTest, EmptyIsZero) {
  Prf prf;
  EXPECT_EQ(prf.precision(), 0.0);
  EXPECT_EQ(prf.recall(), 0.0);
  EXPECT_EQ(prf.f1(), 0.0);
}

TEST(PredictionRecordTest, EligibilityFilter) {
  PredictionRecord r;
  r.gold_in_candidates = true;
  r.num_candidates = 1;
  EXPECT_FALSE(r.Eligible());  // single candidate: trivially correct
  r.num_candidates = 2;
  EXPECT_TRUE(r.Eligible());
  r.gold_in_candidates = false;
  EXPECT_FALSE(r.Eligible());  // candidate generation missed
}

TEST(ResultSetTest, FilteredAndBuckets) {
  ResultSet rs;
  auto add = [&rs](data::PopularityBucket bucket, bool correct) {
    PredictionRecord r;
    r.gold = 1;
    r.predicted = correct ? 1 : 2;
    r.gold_in_candidates = true;
    r.num_candidates = 3;
    r.bucket = bucket;
    rs.Add(std::move(r));
  };
  add(data::PopularityBucket::kTorso, true);
  add(data::PopularityBucket::kTorso, false);
  add(data::PopularityBucket::kTail, true);
  EXPECT_EQ(rs.Overall().total, 3);
  EXPECT_NEAR(rs.Overall().f1(), 100.0 * 2 / 3, 1e-6);
  EXPECT_EQ(rs.ByBucket(data::PopularityBucket::kTail).correct, 1);
  EXPECT_EQ(rs.ByBucket(data::PopularityBucket::kUnseen).total, 0);
  EXPECT_EQ(rs.NumEligible(), 3);
}

TEST(ResultSetTest, BenchmarkCountsCandidateMisses) {
  ResultSet rs;
  PredictionRecord hit;
  hit.gold = 1;
  hit.predicted = 1;
  hit.gold_in_candidates = true;
  hit.num_candidates = 2;
  rs.Add(hit);
  PredictionRecord miss;  // no candidates at all → no prediction
  miss.gold = 5;
  miss.gold_in_candidates = false;
  miss.num_candidates = 0;
  rs.Add(miss);
  const Prf prf = rs.Benchmark();
  EXPECT_EQ(prf.total, 2);
  EXPECT_EQ(prf.predicted, 1);
  EXPECT_EQ(prf.correct, 1);
  EXPECT_GT(prf.precision(), prf.recall());
  // The filtered view drops the miss entirely.
  EXPECT_EQ(rs.Overall().total, 1);
}

/// Scorer that always predicts candidate 0 (the top prior after Finalize).
class FirstCandidateScorer : public NedScorer {
 public:
  std::vector<int64_t> Predict(const data::SentenceExample& ex) override {
    std::vector<int64_t> preds(ex.mentions.size(), -1);
    for (size_t i = 0; i < ex.mentions.size(); ++i) {
      if (!ex.mentions[i].candidates.empty()) preds[i] = 0;
    }
    return preds;
  }
};

class RunEvaluationTest : public ::testing::Test {
 protected:
  RunEvaluationTest() {
    data::SynthConfig config = data::SynthConfig::MicroScale();
    config.num_entities = 300;
    config.num_pages = 100;
    world_ = data::BuildWorld(config);
    data::CorpusGenerator generator(&world_);
    corpus_ = generator.Generate();
    data::ApplyWeakLabeling(world_.kb, &corpus_.train);
    counts_ = data::EntityCounts::FromTraining(corpus_.train);
    builder_ = std::make_unique<data::ExampleBuilder>(&world_.candidates,
                                                      &world_.vocab);
  }
  data::SynthWorld world_;
  data::Corpus corpus_;
  data::EntityCounts counts_;
  std::unique_ptr<data::ExampleBuilder> builder_;
};

TEST_F(RunEvaluationTest, RecordsAlignWithSentences) {
  FirstCandidateScorer scorer;
  ResultSet rs = RunEvaluation(&scorer, corpus_.dev, *builder_,
                               data::ExampleOptions(), counts_);
  EXPECT_GT(rs.records().size(), 0u);
  for (const PredictionRecord& r : rs.records()) {
    ASSERT_NE(r.sentence, nullptr);
    ASSERT_LT(r.mention_idx, r.sentence->mentions.size());
    EXPECT_EQ(r.gold, r.sentence->mentions[r.mention_idx].gold);
  }
}

TEST_F(RunEvaluationTest, EvaluatesAnchorsOnly) {
  FirstCandidateScorer scorer;
  ResultSet rs = RunEvaluation(&scorer, corpus_.train, *builder_,
                               data::ExampleOptions(), counts_);
  for (const PredictionRecord& r : rs.records()) {
    EXPECT_FALSE(r.sentence->mentions[r.mention_idx].weak_labeled);
  }
}

TEST_F(RunEvaluationTest, PriorScorerBeatsChanceOverall) {
  FirstCandidateScorer scorer;
  ResultSet rs = RunEvaluation(&scorer, corpus_.dev, *builder_,
                               data::ExampleOptions(), counts_);
  // Priors favor popular entities, so overall F1 must beat uniform chance
  // (~1/K with K up to 5) but unseen entities, which are never the top
  // prior, must be near zero.
  EXPECT_GT(rs.Overall().f1(), 30.0);
  EXPECT_LT(rs.ByBucket(data::PopularityBucket::kUnseen).f1(), 20.0);
}

TEST_F(RunEvaluationTest, ErrorBucketsClassify) {
  FirstCandidateScorer scorer;
  ResultSet rs = RunEvaluation(&scorer, corpus_.dev, *builder_,
                               data::ExampleOptions(), counts_);
  const auto reports = AnalyzeErrors(world_.kb, rs, 1);
  ASSERT_EQ(reports.size(), 4u);
  for (const ErrorBucketReport& report : reports) {
    EXPECT_LE(report.overall_errors_in_bucket, report.overall_errors);
    EXPECT_LE(report.tail_errors_in_bucket, report.tail_errors);
    EXPECT_LE(report.tail_errors, report.overall_errors);
  }
}

TEST(ErrorBucketTest, ExactMatchDetection) {
  kb::KnowledgeBase kb;
  kb::Entity e;
  e.title = "nielsen_media";
  kb.AddEntity(e);
  PredictionRecord r;
  r.gold = 0;
  r.alias = "nielsen_media";
  EXPECT_TRUE(InErrorBucket(kb, r, ErrorBucket::kExactMatch));
  r.alias = "nielsen";
  EXPECT_FALSE(InErrorBucket(kb, r, ErrorBucket::kExactMatch));
}

TEST(ErrorBucketTest, NumericalDetectsYearInTitle) {
  kb::KnowledgeBase kb;
  kb::Entity with_year;
  with_year.title = "games_1976_e5";
  kb.AddEntity(with_year);
  kb::Entity without;
  without.title = "ttl_e7";
  kb.AddEntity(without);
  PredictionRecord r;
  r.gold = 0;
  EXPECT_TRUE(InErrorBucket(kb, r, ErrorBucket::kNumerical));
  r.gold = 1;
  EXPECT_FALSE(InErrorBucket(kb, r, ErrorBucket::kNumerical));
}

TEST(ErrorBucketTest, NumericalNeedsAStandaloneFourDigitToken) {
  kb::KnowledgeBase kb;
  for (const char* title :
       {"ttl_e1255", "games_2012_e5", "2012", "x_12345_y", "a1999"}) {
    kb::Entity e;
    e.title = title;
    kb.AddEntity(e);
  }
  PredictionRecord r;
  const bool want[] = {false, true, true, false, false};
  for (size_t i = 0; i < std::size(want); ++i) {
    r.gold = static_cast<kb::EntityId>(i);
    EXPECT_EQ(InErrorBucket(kb, r, ErrorBucket::kNumerical), want[i])
        << kb.entity(r.gold).title;
  }
}

TEST(ErrorBucketTest, GranularityUsesSubclassHierarchy) {
  kb::KnowledgeBase kb;
  kb.AddEntity({});
  kb.AddEntity({});
  kb.AddSubclass(1, 0);
  PredictionRecord r;
  r.gold = 1;
  r.predicted = 0;
  EXPECT_TRUE(InErrorBucket(kb, r, ErrorBucket::kGranularity));
  r.predicted = kb::kInvalidId;
  EXPECT_FALSE(InErrorBucket(kb, r, ErrorBucket::kGranularity));
}

}  // namespace
}  // namespace bootleg::eval
