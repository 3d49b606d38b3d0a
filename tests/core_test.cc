#include "core/model.h"

#include <cstring>
#include <filesystem>

#include <gtest/gtest.h>

#include "core/regularization.h"
#include "core/trainer.h"
#include "data/generator.h"
#include "data/weak_label.h"
#include "data/world.h"
#include "util/thread_pool.h"

namespace bootleg::core {
namespace {

TEST(RegularizationTest, PaperAnchorValues) {
  RegConfig inv{RegScheme::kInvPopPow, 0.0f};
  // f(1) = 0.95, f(10000) ≈ 0.05 (paper Appendix B).
  EXPECT_NEAR(inv.MaskProbability(1), 0.95f, 1e-3f);
  EXPECT_NEAR(inv.MaskProbability(10000), 0.05f, 0.01f);

  RegConfig pop{RegScheme::kPopPow, 0.0f};
  EXPECT_NEAR(pop.MaskProbability(1), 0.05f, 0.01f);
  EXPECT_NEAR(pop.MaskProbability(10000), 0.95f, 1e-3f);
}

TEST(RegularizationTest, InvPopSchemesAreMonotoneDecreasing) {
  for (RegScheme scheme : {RegScheme::kInvPopPow, RegScheme::kInvPopLin,
                           RegScheme::kInvPopLog}) {
    RegConfig config{scheme, 0.0f};
    float prev = 1.0f;
    for (int64_t count : {1, 10, 100, 1000, 10000}) {
      const float p = config.MaskProbability(count);
      EXPECT_LE(p, prev) << RegSchemeName(scheme) << " at " << count;
      EXPECT_GE(p, 0.05f - 1e-6f);
      EXPECT_LE(p, 0.95f + 1e-6f);
      prev = p;
    }
  }
}

TEST(RegularizationTest, FixedAndNone) {
  RegConfig fixed{RegScheme::kFixed, 0.8f};
  EXPECT_EQ(fixed.MaskProbability(1), 0.8f);
  EXPECT_EQ(fixed.MaskProbability(100000), 0.8f);
  RegConfig none{RegScheme::kNone, 0.0f};
  EXPECT_EQ(none.MaskProbability(1), 0.0f);
}

TEST(RegularizationTest, ZeroCountTreatedAsOne) {
  RegConfig inv{RegScheme::kInvPopPow, 0.0f};
  EXPECT_EQ(inv.MaskProbability(0), inv.MaskProbability(1));
}

TEST(ConfigTest, AblationSwitches) {
  BootlegConfig base;
  const BootlegConfig ent = BootlegConfig::EntOnly(base);
  EXPECT_TRUE(ent.use_entity);
  EXPECT_FALSE(ent.use_type);
  EXPECT_FALSE(ent.use_kg);
  const BootlegConfig type = BootlegConfig::TypeOnly(base);
  EXPECT_FALSE(type.use_entity);
  EXPECT_TRUE(type.use_type);
  const BootlegConfig kg = BootlegConfig::KgOnly(base);
  EXPECT_TRUE(kg.use_kg);
  EXPECT_FALSE(kg.use_entity);
  EXPECT_FALSE(kg.use_type);
}

class ModelTest : public ::testing::Test {
 protected:
  ModelTest() {
    data::SynthConfig config = data::SynthConfig::MicroScale();
    config.num_entities = 300;
    config.num_pages = 80;
    world_ = data::BuildWorld(config);
    data::CorpusGenerator generator(&world_);
    corpus_ = generator.Generate();
    data::ApplyWeakLabeling(world_.kb, &corpus_.train);
    counts_ = data::EntityCounts::FromTraining(corpus_.train);
    builder_ = std::make_unique<data::ExampleBuilder>(&world_.candidates,
                                                      &world_.vocab);
    examples_ = builder_->BuildAll(corpus_.train, data::ExampleOptions());
    model_config_.hidden = 32;
    model_config_.entity_dim = 32;
    model_config_.type_dim = 16;
    model_config_.coarse_dim = 8;
    model_config_.rel_dim = 16;
    model_config_.ff_inner = 64;
    model_config_.encoder.hidden = 32;
    model_config_.encoder.ff_inner = 64;
    model_config_.encoder.max_len = 24;
    for (const data::Sentence& s : corpus_.train) {
      for (size_t i = 0; i < s.mentions.size(); ++i) {
        for (size_t j = i + 1; j < s.mentions.size(); ++j) {
          cooc_.AddPair(s.mentions[i].gold, s.mentions[j].gold);
        }
      }
    }
    for (kb::EntityId e = 0; e < world_.kb.num_entities(); ++e) {
      title_ids_.push_back(world_.vocab.Id(world_.kb.entity(e).title));
    }
  }

  /// A model of `config` with every input the config reads set (counts, and
  /// co-occurrence stats and title ids for the benchmark extras), trained
  /// `steps` optimizer steps (none for 0).
  std::unique_ptr<BootlegModel> MakeModel(const BootlegConfig& config,
                                          int64_t steps) {
    auto model = std::make_unique<BootlegModel>(&world_.kb, world_.vocab.size(),
                                                config, 1);
    model->SetEntityCounts(&counts_);
    if (config.use_cooccurrence_kg) model->SetCooccurrence(&cooc_);
    if (config.use_title_feature) model->SetTitleTokenIds(title_ids_);
    if (steps > 0) TrainSteps(model.get(), steps, /*seed=*/99);
    return model;
  }

  void TrainSteps(BootlegModel* model, int64_t steps, uint64_t seed) {
    Trainable<BootlegModel> trainable(model);
    TrainOptions options;
    options.epochs = 1;
    options.max_steps = steps;
    options.num_threads = 1;
    options.seed = seed;
    Train(&trainable, examples_, options);
  }

  data::SentenceExample FirstTrainable() const {
    for (const data::SentenceExample& ex : examples_) {
      for (const data::MentionExample& m : ex.mentions) {
        if (m.gold_index >= 0) return ex;
      }
    }
    ADD_FAILURE() << "no trainable example";
    return {};
  }

  data::SynthWorld world_;
  data::Corpus corpus_;
  data::EntityCounts counts_;
  std::unique_ptr<data::ExampleBuilder> builder_;
  std::vector<data::SentenceExample> examples_;
  BootlegConfig model_config_;
  kb::CooccurrenceStats cooc_{2};
  std::vector<int64_t> title_ids_;
};

/// The entity each mention's predicted candidate index names (kInvalidId
/// for -1).
std::vector<kb::EntityId> Chosen(const data::SentenceExample& ex,
                                 const std::vector<int64_t>& preds) {
  std::vector<kb::EntityId> out;
  for (size_t m = 0; m < preds.size(); ++m) {
    out.push_back(preds[m] < 0 ? kb::kInvalidId
                               : ex.mentions[m].candidates[static_cast<size_t>(
                                     preds[m])]);
  }
  return out;
}

/// The tape forward's choice per mention: ContextualEmbeddings runs the
/// autograd forward Loss trains through and keeps its own strict-> argmax.
std::vector<kb::EntityId> TapeChoices(BootlegModel* model,
                                      const data::SentenceExample& ex) {
  std::vector<kb::EntityId> out;
  for (const auto& cm : model->ContextualEmbeddings(ex)) out.push_back(cm.entity);
  return out;
}

TEST_F(ModelTest, PredictShapes) {
  BootlegModel model(&world_.kb, world_.vocab.size(), model_config_, 1);
  model.SetEntityCounts(&counts_);
  for (size_t i = 0; i < 20 && i < examples_.size(); ++i) {
    const auto preds = model.Predict(examples_[i]);
    ASSERT_EQ(preds.size(), examples_[i].mentions.size());
    for (size_t m = 0; m < preds.size(); ++m) {
      const int64_t k =
          static_cast<int64_t>(examples_[i].mentions[m].candidates.size());
      if (k == 0) {
        EXPECT_EQ(preds[m], -1);
      } else {
        EXPECT_GE(preds[m], 0);
        EXPECT_LT(preds[m], k);
      }
    }
  }
}

TEST_F(ModelTest, LossIsFiniteAndPositive) {
  BootlegModel model(&world_.kb, world_.vocab.size(), model_config_, 1);
  model.SetEntityCounts(&counts_);
  const data::SentenceExample ex = FirstTrainable();
  tensor::Var loss = model.Loss(ex, /*train=*/true);
  ASSERT_TRUE(loss.defined());
  EXPECT_GT(loss.value().at(0), 0.0f);
  EXPECT_TRUE(std::isfinite(loss.value().at(0)));
}

TEST_F(ModelTest, LossUndefinedForEmptySentence) {
  BootlegModel model(&world_.kb, world_.vocab.size(), model_config_, 1);
  data::SentenceExample empty;
  EXPECT_FALSE(model.Loss(empty, true).defined());
  EXPECT_TRUE(model.Predict(empty).empty());
}

TEST_F(ModelTest, TrainingReducesLoss) {
  BootlegModel model(&world_.kb, world_.vocab.size(), model_config_, 1);
  model.SetEntityCounts(&counts_);
  std::vector<data::SentenceExample> subset(
      examples_.begin(), examples_.begin() + std::min<size_t>(60, examples_.size()));
  auto avg_loss = [&]() {
    double total = 0.0;
    int64_t n = 0;
    for (const auto& ex : subset) {
      tensor::Var l = model.Loss(ex, /*train=*/false);
      if (l.defined()) {
        total += l.value().at(0);
        ++n;
      }
    }
    return total / n;
  };
  const double before = avg_loss();
  Trainable<BootlegModel> trainable(&model);
  TrainOptions options;
  options.epochs = 3;
  Train(&trainable, subset, options);
  const double after = avg_loss();
  EXPECT_LT(after, before);
}

TEST_F(ModelTest, AblationsRunForward) {
  for (const BootlegConfig& config :
       {BootlegConfig::EntOnly(model_config_),
        BootlegConfig::TypeOnly(model_config_),
        BootlegConfig::KgOnly(model_config_)}) {
    BootlegModel model(&world_.kb, world_.vocab.size(), config, 1);
    model.SetEntityCounts(&counts_);
    const data::SentenceExample ex = FirstTrainable();
    tensor::Var loss = model.Loss(ex, /*train=*/true);
    ASSERT_TRUE(loss.defined());
    EXPECT_TRUE(std::isfinite(loss.value().at(0)));
  }
}

TEST_F(ModelTest, BenchmarkExtrasRunForward) {
  BootlegConfig config = model_config_;
  config.use_cooccurrence_kg = true;
  config.use_title_feature = true;
  std::unique_ptr<BootlegModel> model = MakeModel(config, /*steps=*/0);
  tensor::Var loss = model->Loss(FirstTrainable(), true);
  ASSERT_TRUE(loss.defined());
  EXPECT_TRUE(std::isfinite(loss.value().at(0)));
}

TEST_F(ModelTest, OneDimensionalDropoutRunsForward) {
  BootlegConfig config = model_config_;
  config.regularization.two_dimensional = false;
  BootlegModel model(&world_.kb, world_.vocab.size(), config, 1);
  model.SetEntityCounts(&counts_);
  tensor::Var loss = model.Loss(FirstTrainable(), /*train=*/true);
  ASSERT_TRUE(loss.defined());
  tensor::Backward(loss);
  EXPECT_TRUE(std::isfinite(loss.value().at(0)));
}

TEST_F(ModelTest, NonEnsembleScoringRunsForward) {
  BootlegConfig config = model_config_;
  config.ensemble_scoring = false;
  BootlegModel model(&world_.kb, world_.vocab.size(), config, 1);
  model.SetEntityCounts(&counts_);
  tensor::Var loss = model.Loss(FirstTrainable(), /*train=*/true);
  ASSERT_TRUE(loss.defined());
  tensor::Backward(loss);
  EXPECT_TRUE(std::isfinite(loss.value().at(0)));
}

TEST_F(ModelTest, TwoHopKgRunsForward) {
  BootlegConfig config = model_config_;
  config.use_two_hop_kg = true;
  BootlegModel model(&world_.kb, world_.vocab.size(), config, 1);
  model.SetEntityCounts(&counts_);
  tensor::Var loss = model.Loss(FirstTrainable(), /*train=*/true);
  ASSERT_TRUE(loss.defined());
  EXPECT_TRUE(std::isfinite(loss.value().at(0)));
  // The extra adjacency registers an extra learned scalar per layer.
  EXPECT_TRUE(model.store().HasParam("layer0.kg_w1"));
}

TEST_F(ModelTest, TwoHopAdjacencyIsDownWeighted) {
  BootlegConfig config = model_config_;
  config.use_two_hop_kg = true;
  BootlegModel model(&world_.kb, world_.vocab.size(), config, 1);
  // Find a 2-hop-connected but not 1-hop-connected pair in the KB.
  kb::EntityId a = kb::kInvalidId, b = kb::kInvalidId;
  for (kb::EntityId x = 0; x < world_.kb.num_entities() && a == kb::kInvalidId;
       ++x) {
    for (kb::EntityId y = 0; y < world_.kb.num_entities(); ++y) {
      if (x != y && world_.kb.TwoHopConnected(x, y)) {
        a = x;
        b = y;
        break;
      }
    }
  }
  ASSERT_NE(a, kb::kInvalidId);
  const tensor::Tensor adj = model.BuildAdjacencyForTest(
      {a, b}, {0, 1}, BootlegModel::AdjacencyKind::kTwoHop);
  EXPECT_EQ(adj.at(0, 1), 0.5f);
  const tensor::Tensor direct = model.BuildAdjacencyForTest(
      {a, b}, {0, 1}, BootlegModel::AdjacencyKind::kWikidata);
  EXPECT_EQ(direct.at(0, 1), 0.0f);
}

TEST_F(ModelTest, DeterministicPredictionsAtEval) {
  BootlegModel model(&world_.kb, world_.vocab.size(), model_config_, 1);
  model.SetEntityCounts(&counts_);
  const data::SentenceExample ex = FirstTrainable();
  EXPECT_EQ(model.Predict(ex), model.Predict(ex));
}

TEST_F(ModelTest, ContextualEmbeddingsAlignWithMentions) {
  BootlegModel model(&world_.kb, world_.vocab.size(), model_config_, 1);
  model.SetEntityCounts(&counts_);
  for (size_t i = 0; i < 10 && i < examples_.size(); ++i) {
    const auto ctx = model.ContextualEmbeddings(examples_[i]);
    ASSERT_EQ(ctx.size(), examples_[i].mentions.size());
    for (const auto& cm : ctx) {
      EXPECT_EQ(cm.embedding.size(),
                static_cast<size_t>(model_config_.hidden));
    }
  }
}

TEST_F(ModelTest, CompressionReplacesAndRestores) {
  BootlegModel model(&world_.kb, world_.vocab.size(), model_config_, 1);
  model.SetEntityCounts(&counts_);
  nn::Embedding* emb = model.store().GetEmbedding("entity_emb");
  // Perturb rows so they differ before compression.
  util::Rng rng(5);
  emb->table() = tensor::Tensor::Randn({emb->rows(), emb->cols()}, &rng);
  const tensor::Tensor original = emb->table();

  model.CompressEntityEmbeddings(0.05, counts_);
  // Most rows now share one embedding.
  std::set<float> distinct_first_values;
  for (int64_t r = 0; r < emb->rows(); ++r) {
    distinct_first_values.insert(emb->table().at(r, 0));
  }
  EXPECT_LT(static_cast<int64_t>(distinct_first_values.size()),
            emb->rows() / 4);

  model.RestoreEntityEmbeddings();
  for (int64_t i = 0; i < original.numel(); ++i) {
    EXPECT_EQ(emb->table().at(i), original.at(i));
  }
}

TEST_F(ModelTest, CompressionKeepsPopularRows) {
  BootlegModel model(&world_.kb, world_.vocab.size(), model_config_, 1);
  model.SetEntityCounts(&counts_);
  nn::Embedding* emb = model.store().GetEmbedding("entity_emb");
  util::Rng rng(6);
  emb->table() = tensor::Tensor::Randn({emb->rows(), emb->cols()}, &rng);
  const tensor::Tensor original = emb->table();
  model.CompressEntityEmbeddings(0.10, counts_);
  // The most popular entity (id 0 by construction) keeps its row.
  for (int64_t j = 0; j < emb->cols(); ++j) {
    EXPECT_EQ(emb->table().at(0, j), original.at(0, j));
  }
  model.RestoreEntityEmbeddings();
}

TEST_F(ModelTest, SizeReportOrdering) {
  BootlegModel full(&world_.kb, world_.vocab.size(), model_config_, 1);
  BootlegModel type_only(&world_.kb, world_.vocab.size(),
                         BootlegConfig::TypeOnly(model_config_), 1);
  BootlegModel kg_only(&world_.kb, world_.vocab.size(),
                       BootlegConfig::KgOnly(model_config_), 1);
  // The entity table dominates: Type-only and KG-only are far smaller.
  EXPECT_GT(full.Size().embedding_bytes, 10 * type_only.Size().embedding_bytes);
  EXPECT_GT(type_only.Size().embedding_bytes, kg_only.Size().embedding_bytes);
  EXPECT_GT(full.Size().network_bytes, 0);
}

TEST_F(ModelTest, CheckpointRoundTripPreservesPredictions) {
  const std::string path =
      (std::filesystem::temp_directory_path() / "bootleg_ckpt_test.bin").string();
  BootlegModel a(&world_.kb, world_.vocab.size(), model_config_, 1);
  a.SetEntityCounts(&counts_);
  Trainable<BootlegModel> trainable(&a);
  TrainOptions options;
  options.epochs = 1;
  std::vector<data::SentenceExample> subset(
      examples_.begin(), examples_.begin() + std::min<size_t>(40, examples_.size()));
  Train(&trainable, subset, options);
  ASSERT_TRUE(a.store().Save(path).ok());

  BootlegModel b(&world_.kb, world_.vocab.size(), model_config_, 2);
  b.SetEntityCounts(&counts_);
  ASSERT_TRUE(b.store().Load(path).ok());
  for (size_t i = 0; i < 10 && i < examples_.size(); ++i) {
    EXPECT_EQ(a.Predict(examples_[i]), b.Predict(examples_[i]));
  }
  std::filesystem::remove(path);
}

/// Predict runs the tape-free value forward over live feature rows; Loss and
/// ContextualEmbeddings run the autograd forward. In every model config the
/// two must pick the same candidate for every mention, at 1 and 4 pool
/// threads.
class ForwardAgreementTest : public ModelTest,
                             public ::testing::WithParamInterface<std::string> {
 protected:
  BootlegConfig Config() const {
    BootlegConfig config = model_config_;
    const std::string& name = GetParam();
    if (name == "ent_only") return BootlegConfig::EntOnly(config);
    if (name == "type_only") return BootlegConfig::TypeOnly(config);
    if (name == "kg_only") return BootlegConfig::KgOnly(config);
    if (name == "cooc_title") {
      config.use_cooccurrence_kg = true;
      config.use_title_feature = true;
    }
    if (name == "no_ensemble") config.ensemble_scoring = false;
    if (name == "two_hop") config.use_two_hop_kg = true;
    if (name == "one_dim_dropout") config.regularization.two_dimensional = false;
    return config;
  }
};

/// Sentences whose score rows differ from `want` in any byte, and the rows
/// compared.
std::pair<int64_t, int64_t> ScoreRowsDiffer(
    const std::vector<std::vector<float>>& want,
    const std::vector<std::vector<float>>& got, size_t first) {
  int64_t differ = 0, rows = 0;
  for (size_t i = 0; i < got.size(); ++i) {
    const std::vector<float>& a = want[first + i];
    const std::vector<float>& b = got[i];
    rows += static_cast<int64_t>(b.size());
    if (a.size() != b.size() ||
        (!a.empty() &&
         std::memcmp(a.data(), b.data(), a.size() * sizeof(float)) != 0)) {
      ++differ;
    }
  }
  return {differ, rows};
}

TEST_P(ForwardAgreementTest, PredictPicksTheTapeForwardsCandidate) {
  util::ThreadPool::ResetGlobal(1);
  // Trained a few steps so scores are not tied at their shared init.
  std::unique_ptr<BootlegModel> model = MakeModel(Config(), /*steps=*/6);
  model->PrepareFrozenInference();
  std::vector<const data::SentenceExample*> all;
  for (const data::SentenceExample& ex : examples_) all.push_back(&ex);
  const std::vector<std::vector<float>> tape_scores =
      model->ScoresForTest(all, BootlegModel::ScoreSource::kTape);
  std::vector<std::vector<kb::EntityId>> tape;
  int64_t not_first = 0;  // mentions whose choice is not candidate 0
  for (const data::SentenceExample& ex : examples_) {
    tape.push_back(TapeChoices(model.get(), ex));
    for (size_t m = 0; m < ex.mentions.size(); ++m) {
      if (!ex.mentions[m].candidates.empty() &&
          tape.back()[m] != ex.mentions[m].candidates[0]) {
        ++not_first;
      }
    }
  }
  EXPECT_GT(not_first, 0) << "every choice is candidate 0: nothing compared";
  for (const int threads : {1, 4}) {
    util::ThreadPool::ResetGlobal(threads);
    int64_t mismatches = 0;
    for (size_t i = 0; i < examples_.size(); ++i) {
      if (Chosen(examples_[i], model->Predict(examples_[i])) != tape[i] &&
          ++mismatches <= 3) {
        ADD_FAILURE() << "threads=" << threads << " example=" << i;
      }
    }
    EXPECT_EQ(mismatches, 0) << "threads=" << threads;

    // Every score byte, not just the argmax: Predict one sentence at a time
    // over live rows, PredictBatch eight at a time over the frozen table.
    const auto [predict_differ, predict_rows] = ScoreRowsDiffer(
        tape_scores,
        model->ScoresForTest(all, BootlegModel::ScoreSource::kPredict), 0);
    EXPECT_GT(predict_rows, 0);
    EXPECT_EQ(predict_differ, 0) << "Predict, threads=" << threads;
    int64_t batch_differ = 0, batch_rows = 0;
    for (size_t first = 0; first < all.size(); first += 8) {
      const std::vector<const data::SentenceExample*> batch(
          all.begin() + static_cast<std::ptrdiff_t>(first),
          all.begin() + static_cast<std::ptrdiff_t>(
                            std::min(first + 8, all.size())));
      const auto [differ, rows] = ScoreRowsDiffer(
          tape_scores,
          model->ScoresForTest(batch, BootlegModel::ScoreSource::kPredictBatch),
          first);
      batch_differ += differ;
      batch_rows += rows;
    }
    EXPECT_EQ(batch_rows, predict_rows);
    EXPECT_EQ(batch_differ, 0) << "PredictBatch, threads=" << threads;
  }
  util::ThreadPool::ResetGlobal(1);
}

INSTANTIATE_TEST_SUITE_P(
    Configs, ForwardAgreementTest,
    ::testing::Values("default", "ent_only", "type_only", "kg_only",
                      "cooc_title", "no_ensemble", "two_hop",
                      "one_dim_dropout"),
    [](const ::testing::TestParamInfo<std::string>& info) { return info.param; });

/// Predict reads the live tables, never the frozen snapshot PredictBatch
/// serves: after the weights change behind a prepared snapshot, Predict still
/// equals the tape forward while PredictBatch over the stale table does not.
TEST_F(ModelTest, PredictReadsLiveWeightsNotTheFrozenSnapshot) {
  std::unique_ptr<BootlegModel> model = MakeModel(model_config_, /*steps=*/6);
  model->PrepareFrozenInference();
  TrainSteps(model.get(), /*steps=*/4, /*seed=*/7);
  model->CompressEntityEmbeddings(0.05, counts_);
  BootlegModel::InferenceScratch scratch;
  int64_t mismatches = 0, stale_differs = 0;
  for (size_t i = 0; i < examples_.size(); ++i) {
    const data::SentenceExample& ex = examples_[i];
    const std::vector<kb::EntityId> tape = TapeChoices(model.get(), ex);
    if (Chosen(ex, model->Predict(ex)) != tape && ++mismatches <= 3) {
      ADD_FAILURE() << "Predict differs from the tape forward on example " << i;
    }
    if (Chosen(ex, model->PredictBatch({&ex}, &scratch)[0]) != tape) {
      ++stale_differs;
    }
  }
  EXPECT_EQ(mismatches, 0);
  // Only a snapshot stale enough to change a prediction tells the two apart.
  EXPECT_GT(stale_differs, 0);
}

TEST_F(ModelTest, PredictRefusesAReleasedEntityTable) {
  ::testing::GTEST_FLAG(death_test_style) = "threadsafe";
  BootlegModel model(&world_.kb, world_.vocab.size(), model_config_, 1);
  model.PrepareFrozenInference();
  // A store-backed deployment: the view replaces the heap table, whose rows
  // this copy keeps alive.
  const tensor::Tensor table = model.frozen_static();
  ASSERT_TRUE(model
                  .UseFrozenStore(std::make_shared<store::HeapView>(
                      table.data(), table.size(0), table.size(1)))
                  .ok());
  model.ReleaseEntityTableForServing();
  const data::SentenceExample ex = FirstTrainable();
  BootlegModel::InferenceScratch scratch;
  EXPECT_EQ(model.PredictBatch({&ex}, &scratch)[0].size(), ex.mentions.size());
  EXPECT_DEATH((void)model.Predict(ex), "ReleaseEntityTableForServing");
}

TEST_F(ModelTest, TrainerSkipsUntrainableSentences) {
  BootlegModel model(&world_.kb, world_.vocab.size(), model_config_, 1);
  model.SetEntityCounts(&counts_);
  std::vector<data::SentenceExample> with_empty = {data::SentenceExample{},
                                                   FirstTrainable()};
  Trainable<BootlegModel> trainable(&model);
  TrainOptions options;
  options.epochs = 1;
  const TrainStats stats = Train(&trainable, with_empty, options);
  EXPECT_EQ(stats.sentences_seen, 2);
  EXPECT_GE(stats.steps, 1);
}

/// Parameterized sweep over regularization schemes: each must yield a valid
/// training step (the mask path exercises differently per scheme).
class RegSchemeModelTest : public ModelTest,
                           public ::testing::WithParamInterface<RegScheme> {};

TEST_P(RegSchemeModelTest, TrainStepSucceeds) {
  BootlegConfig config = model_config_;
  config.regularization.scheme = GetParam();
  config.regularization.fixed_p = 0.5f;
  BootlegModel model(&world_.kb, world_.vocab.size(), config, 1);
  model.SetEntityCounts(&counts_);
  tensor::Var loss = model.Loss(FirstTrainable(), /*train=*/true);
  ASSERT_TRUE(loss.defined());
  tensor::Backward(loss);
  EXPECT_TRUE(std::isfinite(loss.value().at(0)));
}

INSTANTIATE_TEST_SUITE_P(
    Schemes, RegSchemeModelTest,
    ::testing::Values(RegScheme::kNone, RegScheme::kFixed,
                      RegScheme::kInvPopPow, RegScheme::kInvPopLin,
                      RegScheme::kInvPopLog, RegScheme::kPopPow),
    [](const ::testing::TestParamInfo<RegScheme>& info) {
      return RegSchemeName(info.param);
    });

/// Parameterized sweep over candidate-list sizes K.
class CandidateCountTest : public ::testing::TestWithParam<int64_t> {};

TEST_P(CandidateCountTest, ForwardHandlesK) {
  data::SynthConfig config = data::SynthConfig::MicroScale();
  config.num_entities = 200;
  config.num_pages = 40;
  config.max_candidates = GetParam();
  data::SynthWorld world = data::BuildWorld(config);
  data::CorpusGenerator generator(&world);
  data::Corpus corpus = generator.Generate();
  data::ExampleBuilder builder(&world.candidates, &world.vocab);
  BootlegConfig model_config;
  model_config.hidden = 32;
  model_config.entity_dim = 32;
  model_config.type_dim = 16;
  model_config.coarse_dim = 8;
  model_config.rel_dim = 16;
  model_config.ff_inner = 64;
  model_config.encoder.hidden = 32;
  model_config.encoder.ff_inner = 64;
  model_config.encoder.max_len = 24;
  BootlegModel model(&world.kb, world.vocab.size(), model_config, 1);
  for (size_t i = 0; i < 10 && i < corpus.dev.size(); ++i) {
    const data::SentenceExample ex =
        builder.Build(corpus.dev[i], data::ExampleOptions());
    const auto preds = model.Predict(ex);
    EXPECT_EQ(preds.size(), ex.mentions.size());
  }
}

INSTANTIATE_TEST_SUITE_P(Ks, CandidateCountTest, ::testing::Values(1, 2, 5, 8));

}  // namespace
}  // namespace bootleg::core
