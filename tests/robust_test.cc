// Robustness subsystem tests: deterministic noise injection, overshadowed-
// alias mining and tagging, the prior-vs-context diagnostic, typo-fallback
// encoding, and the mention extractor's untrusted-input edge cases.
#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "data/example.h"
#include "data/generator.h"
#include "data/mention_extractor.h"
#include "data/weak_label.h"
#include "data/world.h"
#include "eval/evaluator.h"
#include "kb/candidate_map.h"
#include "robust/noise.h"
#include "robust/overshadow.h"
#include "robust/robust_eval.h"
#include "text/vocabulary.h"
#include "util/rng.h"

namespace bootleg {
namespace {

// --- Noise model -------------------------------------------------------------

data::Sentence MakeSentence(std::vector<std::string> tokens,
                            std::vector<data::Mention> mentions) {
  data::Sentence s;
  s.tokens = std::move(tokens);
  s.mentions = std::move(mentions);
  return s;
}

data::Mention MakeMention(int64_t start, int64_t end, const std::string& alias,
                          kb::EntityId gold) {
  data::Mention m;
  m.span_start = start;
  m.span_end = end;
  m.alias = alias;
  m.gold = gold;
  m.labeled = true;
  return m;
}

bool SameSentence(const data::Sentence& a, const data::Sentence& b) {
  if (a.tokens != b.tokens) return false;
  if (a.mentions.size() != b.mentions.size()) return false;
  for (size_t i = 0; i < a.mentions.size(); ++i) {
    const data::Mention& ma = a.mentions[i];
    const data::Mention& mb = b.mentions[i];
    if (ma.span_start != mb.span_start || ma.span_end != mb.span_end ||
        ma.alias != mb.alias || ma.candidate_alias != mb.candidate_alias ||
        ma.gold != mb.gold) {
      return false;
    }
  }
  return true;
}

TEST(NoiseModelTest, RateZeroIsIdentity) {
  const robust::NoiseModel noise(robust::NoiseOptions::FromRate(0.0));
  EXPECT_FALSE(noise.Active());
  const data::Sentence s = MakeSentence(
      {"the", "striker", "scored", "for", "united"},
      {MakeMention(4, 4, "united", 7)});
  EXPECT_TRUE(SameSentence(noise.PerturbSentence(s, 0), s));
  const std::vector<data::Sentence> all = noise.PerturbAll({s, s, s});
  ASSERT_EQ(all.size(), 3u);
  for (const data::Sentence& p : all) EXPECT_TRUE(SameSentence(p, s));
}

TEST(NoiseModelTest, SameSeedSameOutputDifferentSeedDiverges) {
  const data::Sentence s = MakeSentence(
      {"alpha", "bravo", "charlie", "delta", "echo", "foxtrot", "golf"},
      {MakeMention(2, 2, "charlie", 3)});
  const robust::NoiseModel a(robust::NoiseOptions::FromRate(0.5, 42));
  const robust::NoiseModel b(robust::NoiseOptions::FromRate(0.5, 42));
  const robust::NoiseModel c(robust::NoiseOptions::FromRate(0.5, 43));
  for (uint64_t idx = 0; idx < 8; ++idx) {
    EXPECT_TRUE(SameSentence(a.PerturbSentence(s, idx),
                             b.PerturbSentence(s, idx)))
        << "same (seed, index) must reproduce bit-identically, idx=" << idx;
  }
  // Across 8 sentence indices at rate 0.5, a different seed must diverge
  // somewhere (the transform would be useless otherwise).
  bool diverged = false;
  for (uint64_t idx = 0; idx < 8 && !diverged; ++idx) {
    diverged = !SameSentence(a.PerturbSentence(s, idx),
                             c.PerturbSentence(s, idx));
  }
  EXPECT_TRUE(diverged);
}

TEST(NoiseModelTest, PerturbationIndependentOfSentenceOrder) {
  const data::Sentence s1 =
      MakeSentence({"one", "two", "three"}, {MakeMention(0, 0, "one", 1)});
  const data::Sentence s2 =
      MakeSentence({"four", "five", "six"}, {MakeMention(2, 2, "six", 2)});
  const robust::NoiseModel noise(robust::NoiseOptions::FromRate(0.4, 7));
  // PerturbSentence keyed by index: the same (sentence, index) pair yields
  // the same output no matter what was perturbed before it.
  const data::Sentence first = noise.PerturbSentence(s2, 5);
  (void)noise.PerturbSentence(s1, 0);
  (void)noise.PerturbSentence(s1, 1);
  EXPECT_TRUE(SameSentence(noise.PerturbSentence(s2, 5), first));
}

TEST(NoiseModelTest, CorruptedMentionPinsCandidateAlias) {
  // char_edit_rate 1.0: every token gets an edit attempt; with case folding
  // off, a single-token mention of length >= 2 always changes (swap of 2
  // distinct chars, drop, or insert all alter the string).
  robust::NoiseOptions options;
  options.char_edit_rate = 1.0;
  options.seed = 11;
  const robust::NoiseModel noise(options);
  const data::Sentence s = MakeSentence(
      {"the", "striker", "scored", "for", "united"},
      {MakeMention(4, 4, "united", 7)});
  const data::Sentence noisy = noise.PerturbSentence(s, 0);
  ASSERT_EQ(noisy.mentions.size(), 1u);
  const data::Mention& m = noisy.mentions[0];
  // Candidate generation still resolves through the clean alias...
  EXPECT_EQ(m.candidate_alias, "united");
  // ...while the surface (what the encoder sees) is the corrupted token.
  EXPECT_EQ(m.alias, noisy.tokens[4]);
  EXPECT_NE(m.alias, "united");
  // Mention tokens are never dropped.
  ASSERT_EQ(noisy.tokens.size(), 5u);
}

TEST(NoiseModelTest, ContextDropoutRemapsSpansAndKeepsMentions) {
  robust::NoiseOptions options;
  options.context_dropout_rate = 1.0;  // drop every non-mention token
  options.seed = 3;
  const robust::NoiseModel noise(options);
  const data::Sentence s = MakeSentence(
      {"a", "b", "mention", "tok", "c", "d"},
      {MakeMention(2, 3, "mention tok", 5)});
  const data::Sentence noisy = noise.PerturbSentence(s, 0);
  ASSERT_EQ(noisy.tokens.size(), 2u);  // only the mention survives
  EXPECT_EQ(noisy.tokens[0], "mention");
  EXPECT_EQ(noisy.tokens[1], "tok");
  ASSERT_EQ(noisy.mentions.size(), 1u);
  EXPECT_EQ(noisy.mentions[0].span_start, 0);
  EXPECT_EQ(noisy.mentions[0].span_end, 1);
  // Surface untouched (no char edits), so candidate_alias stays empty.
  EXPECT_EQ(noisy.mentions[0].alias, "mention tok");
  EXPECT_TRUE(noisy.mentions[0].candidate_alias.empty());
}

TEST(NoiseModelTest, CharEditNeverEmptiesToken) {
  util::Rng rng(99);
  for (int i = 0; i < 200; ++i) {
    EXPECT_FALSE(robust::NoiseModel::ApplyCharEdit("ab", &rng).empty());
    EXPECT_FALSE(robust::NoiseModel::ApplyCharEdit("x", &rng).empty());
  }
}

// --- Overshadowed index ------------------------------------------------------

kb::CandidateMap SkewedMap() {
  kb::CandidateMap map;
  map.AddAlias("lincoln", 1, 0.9f);   // dominant: the president
  map.AddAlias("lincoln", 2, 0.08f);  // overshadowed: the city
  map.AddAlias("lincoln", 3, 0.02f);  // overshadowed: the car
  map.AddAlias("paris", 4, 0.55f);    // ambiguous but not skewed
  map.AddAlias("paris", 5, 0.45f);
  map.AddAlias("unique", 6, 1.0f);    // single candidate: skew meaningless
  map.Finalize(/*max_candidates=*/5);
  return map;
}

TEST(OvershadowedIndexTest, MinesSkewedAliasesOnly) {
  const kb::CandidateMap map = SkewedMap();
  const robust::OvershadowedIndex index =
      robust::OvershadowedIndex::Build(map);
  EXPECT_EQ(index.num_skewed_aliases(), 1);
  EXPECT_TRUE(index.Skewed("lincoln"));
  EXPECT_FALSE(index.Skewed("paris"));    // 0.55 < 0.8 dominance
  EXPECT_FALSE(index.Skewed("unique"));   // below min_candidates
  EXPECT_FALSE(index.Skewed("absent"));
  EXPECT_EQ(index.Dominant("lincoln"), 1);
  EXPECT_EQ(index.Dominant("paris"), kb::kInvalidId);
}

TEST(OvershadowedIndexTest, OvershadowedMeansGoldIsNotDominant) {
  const kb::CandidateMap map = SkewedMap();
  const robust::OvershadowedIndex index =
      robust::OvershadowedIndex::Build(map);
  EXPECT_FALSE(index.Overshadowed("lincoln", 1));  // gold IS the head
  EXPECT_TRUE(index.Overshadowed("lincoln", 2));
  EXPECT_TRUE(index.Overshadowed("lincoln", 3));
  EXPECT_FALSE(index.Overshadowed("paris", 5));    // alias not skewed
}

TEST(OvershadowedIndexTest, DominanceThresholdIsTunable) {
  const kb::CandidateMap map = SkewedMap();
  robust::OvershadowOptions options;
  options.dominance = 0.5f;
  const robust::OvershadowedIndex loose =
      robust::OvershadowedIndex::Build(map, options);
  EXPECT_TRUE(loose.Skewed("lincoln"));
  EXPECT_TRUE(loose.Skewed("paris"));  // 0.55 >= 0.5 now qualifies
  EXPECT_EQ(loose.num_skewed_aliases(), 2);
}

// --- Tagging and the prior-follow diagnostic ---------------------------------

TEST(RobustEvalTest, TagOvershadowedUsesCandidateAliasWhenPresent) {
  const kb::CandidateMap map = SkewedMap();
  const robust::OvershadowedIndex index =
      robust::OvershadowedIndex::Build(map);
  eval::ResultSet rs;
  eval::PredictionRecord noisy_surface;
  noisy_surface.alias = "lincpln";            // corrupted surface
  noisy_surface.candidate_alias = "lincoln";  // pinned clean alias
  noisy_surface.gold = 2;
  noisy_surface.gold_in_candidates = true;
  noisy_surface.num_candidates = 3;
  rs.Add(noisy_surface);
  eval::PredictionRecord head;
  head.alias = "lincoln";
  head.gold = 1;
  head.gold_in_candidates = true;
  head.num_candidates = 3;
  rs.Add(head);
  eval::PredictionRecord ungeneratable;  // Γ missed: can't be overshadowed
  ungeneratable.alias = "lincoln";
  ungeneratable.gold = 2;
  ungeneratable.gold_in_candidates = false;
  rs.Add(ungeneratable);

  robust::TagOvershadowed(index, &rs);
  EXPECT_TRUE(rs.records()[0].overshadowed);
  EXPECT_FALSE(rs.records()[1].overshadowed);
  EXPECT_FALSE(rs.records()[2].overshadowed);
}

TEST(RobustEvalTest, PriorFollowRateCountsEligiblePredictedOnly) {
  eval::ResultSet rs;
  auto add = [&rs](bool followed, bool eligible, bool predicted) {
    eval::PredictionRecord r;
    r.gold = 1;
    r.predicted = predicted ? 1 : kb::kInvalidId;
    r.gold_in_candidates = eligible;
    r.num_candidates = eligible ? 3 : 1;
    r.prior_argmax_predicted = followed;
    rs.Add(std::move(r));
  };
  add(true, true, true);    // counted, followed
  add(false, true, true);   // counted, not followed
  add(true, true, true);    // counted, followed
  add(true, false, true);   // ineligible: ignored
  add(true, true, false);   // no prediction: ignored
  EXPECT_DOUBLE_EQ(robust::PriorFollowRate(rs), 100.0 * 2 / 3);
  EXPECT_DOUBLE_EQ(
      robust::PriorFollowRate(
          rs, [](const eval::PredictionRecord&) { return false; }),
      0.0);
}

// --- End-to-end robust evaluation -------------------------------------------

/// Always predicts candidate 0 — the prior argmax after Finalize.
class FirstCandidateScorer : public eval::NedScorer {
 public:
  std::vector<int64_t> Predict(const data::SentenceExample& ex) override {
    std::vector<int64_t> preds(ex.mentions.size(), -1);
    for (size_t i = 0; i < ex.mentions.size(); ++i) {
      if (!ex.mentions[i].candidates.empty()) preds[i] = 0;
    }
    return preds;
  }
};

class RobustEvaluationTest : public ::testing::Test {
 protected:
  RobustEvaluationTest() {
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
    index_ = robust::OvershadowedIndex::Build(world_.candidates);
  }
  data::SynthWorld world_;
  data::Corpus corpus_;
  data::EntityCounts counts_;
  std::unique_ptr<data::ExampleBuilder> builder_;
  robust::OvershadowedIndex index_;
};

TEST_F(RobustEvaluationTest, RateZeroSliceIsBitIdenticalToClean) {
  FirstCandidateScorer scorer;
  const robust::RobustReport report = robust::RunRobustEvaluation(
      &scorer, corpus_.dev, *builder_, {}, counts_, index_, {0.0});
  ASSERT_EQ(report.noisy.size(), 1u);
  const auto& clean = report.clean.records();
  const auto& zero = report.noisy[0].results.records();
  ASSERT_EQ(clean.size(), zero.size());
  for (size_t i = 0; i < clean.size(); ++i) {
    EXPECT_EQ(clean[i].predicted, zero[i].predicted);
    EXPECT_EQ(clean[i].gold, zero[i].gold);
    EXPECT_EQ(clean[i].alias, zero[i].alias);
    EXPECT_EQ(clean[i].overshadowed, zero[i].overshadowed);
    EXPECT_EQ(clean[i].prior_argmax_predicted, zero[i].prior_argmax_predicted);
  }
}

TEST_F(RobustEvaluationTest, TwoRunsAreDeterministic) {
  FirstCandidateScorer scorer;
  const std::vector<double> rates = {0.1, 0.3};
  const robust::RobustReport a = robust::RunRobustEvaluation(
      &scorer, corpus_.dev, *builder_, {}, counts_, index_, rates, 99);
  const robust::RobustReport b = robust::RunRobustEvaluation(
      &scorer, corpus_.dev, *builder_, {}, counts_, index_, rates, 99,
      /*num_threads=*/2);
  ASSERT_EQ(a.noisy.size(), b.noisy.size());
  for (size_t s = 0; s < a.noisy.size(); ++s) {
    const auto& ra = a.noisy[s].results.records();
    const auto& rb = b.noisy[s].results.records();
    ASSERT_EQ(ra.size(), rb.size());
    for (size_t i = 0; i < ra.size(); ++i) {
      EXPECT_EQ(ra[i].predicted, rb[i].predicted);
      EXPECT_EQ(ra[i].alias, rb[i].alias);
    }
  }
}

TEST_F(RobustEvaluationTest, NoisePreservesEligibilityByPinnedAliases) {
  // The design invariant: candidate generation resolves through the pinned
  // clean alias, so the eligible mention set is the same clean and noisy —
  // noisy slices isolate encoder/context degradation from Γ artifacts.
  FirstCandidateScorer scorer;
  const robust::RobustReport report = robust::RunRobustEvaluation(
      &scorer, corpus_.dev, *builder_, {}, counts_, index_, {0.3});
  ASSERT_EQ(report.noisy.size(), 1u);
  EXPECT_EQ(report.clean.NumEligible(), report.noisy[0].results.NumEligible());
  EXPECT_EQ(report.clean.records().size(),
            report.noisy[0].results.records().size());
}

TEST_F(RobustEvaluationTest, PriorScorerAlwaysFollowsPrior) {
  FirstCandidateScorer scorer;
  const robust::RobustReport report = robust::RunRobustEvaluation(
      &scorer, corpus_.dev, *builder_, {}, counts_, index_, {});
  // Candidate 0 IS the prior argmax, so the diagnostic reads 100%.
  EXPECT_DOUBLE_EQ(robust::PriorFollowRate(report.clean), 100.0);
  // And a prior-following scorer scores exactly 0 on the overshadowed slice
  // whenever it is non-empty (gold is never the head there).
  const eval::Prf ov = robust::OvershadowedPrf(report.clean);
  if (ov.total > 0) EXPECT_EQ(ov.correct, 0);
}

// --- Typo-fallback encoding --------------------------------------------------

class TypoFallbackTest : public ::testing::Test {
 protected:
  TypoFallbackTest() {
    for (const char* t : {"united", "striker", "scored", "goal", "the"}) {
      vocab_.AddToken(t);
    }
    vocab_.BuildTypoIndex();
  }
  text::Vocabulary vocab_;
};

TEST_F(TypoFallbackTest, CleanTokensEncodeIdentically) {
  for (const char* t : {"united", "striker", "scored", "goal", "the"}) {
    EXPECT_EQ(vocab_.IdWithTypoFallback(t), vocab_.Id(t));
    EXPECT_NE(vocab_.Id(t), text::kUnkId);
  }
}

TEST_F(TypoFallbackTest, RecoversSingleEditTypos) {
  const int64_t united = vocab_.Id("united");
  EXPECT_EQ(vocab_.IdWithTypoFallback("uinted"), united);   // transposition
  EXPECT_EQ(vocab_.IdWithTypoFallback("unted"), united);    // deletion
  EXPECT_EQ(vocab_.IdWithTypoFallback("uniteed"), united);  // insertion
  EXPECT_EQ(vocab_.IdWithTypoFallback("unized"), united);   // substitution
  EXPECT_EQ(vocab_.IdWithTypoFallback("UNITED"), united);   // case folding
}

TEST_F(TypoFallbackTest, GarbageAndSpecialsStayUnknown) {
  EXPECT_EQ(vocab_.IdWithTypoFallback("zzzzzz"), text::kUnkId);
  EXPECT_EQ(vocab_.IdWithTypoFallback(""), text::kUnkId);
  // Single-char inputs must never resolve into the reserved specials.
  EXPECT_EQ(vocab_.IdWithTypoFallback("q"), text::kUnkId);
}

TEST_F(TypoFallbackTest, ExampleBuilderCharFallbackIsGatedAndCleanIdentical) {
  kb::CandidateMap map;
  map.AddAlias("united", 1, 1.0f);
  map.AddAlias("united", 2, 0.5f);
  map.Finalize(5);
  const data::ExampleBuilder builder(&map, &vocab_);
  const data::Sentence clean = MakeSentence(
      {"the", "striker", "scored", "for", "united"},
      {MakeMention(4, 4, "united", 1)});
  data::ExampleOptions off;
  data::ExampleOptions on;
  on.char_fallback = true;
  // Clean text: bit-identical token ids with the flag on or off.
  EXPECT_EQ(builder.Build(clean, off).token_ids,
            builder.Build(clean, on).token_ids);

  data::Sentence typod = clean;
  typod.tokens[1] = "strikre";  // transposition typo in context
  const data::SentenceExample ex_off = builder.Build(typod, off);
  const data::SentenceExample ex_on = builder.Build(typod, on);
  EXPECT_EQ(ex_off.token_ids[1], text::kUnkId);
  EXPECT_EQ(ex_on.token_ids[1], vocab_.Id("striker"));
}

// --- Mention extractor: untrusted-input edge cases (S3) ----------------------

class ExtractorEdgeCaseTest : public ::testing::Test {
 protected:
  ExtractorEdgeCaseTest() {
    map_.AddAlias("new york", 1, 0.9f);
    map_.AddAlias("new york", 2, 0.1f);
    map_.AddAlias("york", 3, 1.0f);
    map_.AddAlias("city", 4, 1.0f);
    map_.AddAlias("new", 5, 1.0f);
    map_.Finalize(5);
    for (const char* t : {"new", "york", "city", "visit"}) vocab_.AddToken(t);
    extractor_ = std::make_unique<data::MentionExtractor>(&map_);
  }
  kb::CandidateMap map_;
  text::Vocabulary vocab_;
  std::unique_ptr<data::MentionExtractor> extractor_;
};

TEST_F(ExtractorEdgeCaseTest, WindowBoundFromLongestAlias) {
  EXPECT_EQ(extractor_->max_alias_tokens(), 2);
}

TEST_F(ExtractorEdgeCaseTest, EmptyInputYieldsNothing) {
  EXPECT_TRUE(extractor_->Extract({}).empty());
  const data::SentenceExample ex = extractor_->BuildExample(vocab_, "");
  EXPECT_TRUE(ex.mentions.empty());
  EXPECT_TRUE(ex.token_ids.empty());
}

TEST_F(ExtractorEdgeCaseTest, OverlongTokensDoNotCrash) {
  const std::string huge(100000, 'x');
  const auto mentions = extractor_->Extract({huge, "york", huge});
  ASSERT_EQ(mentions.size(), 1u);
  EXPECT_EQ(mentions[0].alias, "york");
  EXPECT_EQ(mentions[0].span_start, 1);
  (void)extractor_->BuildExample(vocab_, huge + " york " + huge);
}

TEST_F(ExtractorEdgeCaseTest, PunctuationOnlyYieldsNothing) {
  EXPECT_TRUE(extractor_->Extract({".", ",", "!", "?", ";"}).empty());
  const data::SentenceExample ex =
      extractor_->BuildExample(vocab_, "... !!! ???");
  EXPECT_TRUE(ex.mentions.empty());
}

TEST_F(ExtractorEdgeCaseTest, BoundaryMentionsAtStartAndEnd) {
  const auto mentions = extractor_->Extract({"york", "visit", "city"});
  ASSERT_EQ(mentions.size(), 2u);
  EXPECT_EQ(mentions[0].alias, "york");
  EXPECT_EQ(mentions[0].span_start, 0);
  EXPECT_EQ(mentions[0].span_end, 0);
  EXPECT_EQ(mentions[1].alias, "city");
  EXPECT_EQ(mentions[1].span_start, 2);
  EXPECT_EQ(mentions[1].span_end, 2);
}

TEST_F(ExtractorEdgeCaseTest, OverlappingMatchesResolveLeftmostLongest) {
  // "new york" overlaps "york" and "new": the longest match at the leftmost
  // position wins, the scan resumes after it, and "city" still matches.
  const auto mentions = extractor_->Extract({"new", "york", "city"});
  ASSERT_EQ(mentions.size(), 2u);
  EXPECT_EQ(mentions[0].alias, "new york");
  EXPECT_EQ(mentions[0].span_start, 0);
  EXPECT_EQ(mentions[0].span_end, 1);
  EXPECT_EQ(mentions[1].alias, "city");
  EXPECT_EQ(mentions[1].span_start, 2);
}

}  // namespace
}  // namespace bootleg
