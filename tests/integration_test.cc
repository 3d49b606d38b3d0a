// End-to-end integration tests: environment construction, the harness cache,
// and a miniature run of the paper's central comparison (Bootleg vs the
// alias-prior floor on unseen entities).
#include <cstdlib>
#include <filesystem>

#include <gtest/gtest.h>

#include "baseline/prior_model.h"
#include "harness/experiment.h"

namespace bootleg::harness {
namespace {

data::SynthConfig TinyConfig() {
  data::SynthConfig c = data::SynthConfig::MicroScale();
  c.num_entities = 400;
  c.num_pages = 200;
  return c;
}

TEST(EnvironmentTest, BuildPopulatesEverything) {
  Environment env = BuildEnvironment(TinyConfig());
  EXPECT_GT(env.corpus.train.size(), 0u);
  EXPECT_GT(env.train_examples.size(), 0u);
  EXPECT_EQ(env.train_examples.size(), env.corpus.train.size());
  EXPECT_GT(env.wl_stats.Multiplier(), 1.0);
  EXPECT_GT(env.cooc.num_pairs(), 0);
  EXPECT_EQ(env.TitleTokenIds().size(),
            static_cast<size_t>(env.world.kb.num_entities()));
}

TEST(EnvironmentTest, NoWeakLabelsVariant) {
  Environment env = BuildEnvironment(TinyConfig(), /*apply_weak_labels=*/false);
  EXPECT_EQ(env.wl_stats.total_labels_after, 0);
  for (const data::Sentence& s : env.corpus.train) {
    for (const data::Mention& m : s.mentions) {
      EXPECT_FALSE(m.weak_labeled);
    }
  }
}

TEST(EnvironmentTest, DeterministicAcrossBuilds) {
  Environment a = BuildEnvironment(TinyConfig());
  Environment b = BuildEnvironment(TinyConfig());
  EXPECT_EQ(a.corpus.train.size(), b.corpus.train.size());
  EXPECT_EQ(a.wl_stats.total_labels_after, b.wl_stats.total_labels_after);
  EXPECT_EQ(a.corpus.dev.front().tokens, b.corpus.dev.front().tokens);
}

// A small one-epoch spec, cheap enough to train several times per test.
BootlegSpec SmallSpec(const std::string& name) {
  BootlegSpec spec;
  spec.name = name;
  spec.config = DefaultBootlegConfig();
  spec.config.hidden = 32;
  spec.config.entity_dim = 32;
  spec.config.type_dim = 16;
  spec.config.coarse_dim = 8;
  spec.config.rel_dim = 16;
  spec.config.ff_inner = 64;
  spec.config.encoder.hidden = 32;
  spec.config.encoder.ff_inner = 64;
  spec.train.epochs = 1;
  return spec;
}

TEST(CacheTest, SecondTrainLoadsFromCache) {
  const std::string cache_dir =
      (std::filesystem::temp_directory_path() / "bootleg_cache_test").string();
  std::filesystem::remove_all(cache_dir);
  ASSERT_EQ(setenv("BOOTLEG_CACHE_DIR", cache_dir.c_str(), 1), 0);

  Environment env = BuildEnvironment(TinyConfig());
  const BootlegSpec spec = SmallSpec("cache_test_model");

  auto first = TrainBootleg(&env, spec);
  auto second = TrainBootleg(&env, spec);  // must load, not retrain
  data::ExampleOptions options;
  const data::SentenceExample ex =
      env.builder->Build(env.corpus.dev.front(), options);
  EXPECT_EQ(first->Predict(ex), second->Predict(ex));

  unsetenv("BOOTLEG_CACHE_DIR");
  std::filesystem::remove_all(cache_dir);
}

TEST(CacheTest, WorkerCountIsPartOfTheKey) {
  // Training at 1 and at 2 workers yields different weights, so the second
  // run must train and cache its own file instead of loading the first's.
  const std::string cache_dir =
      (std::filesystem::temp_directory_path() / "bootleg_cache_workers_test")
          .string();
  std::filesystem::remove_all(cache_dir);
  ASSERT_EQ(setenv("BOOTLEG_CACHE_DIR", cache_dir.c_str(), 1), 0);

  Environment env = BuildEnvironment(TinyConfig());
  BootlegSpec spec = SmallSpec("cache_workers_model");
  spec.train.num_threads = 1;
  TrainBootleg(&env, spec);
  spec.train.num_threads = 2;
  TrainBootleg(&env, spec);
  int files = 0;
  for (const auto& entry : std::filesystem::directory_iterator(cache_dir)) {
    if (entry.is_regular_file()) ++files;
  }
  EXPECT_EQ(files, 2);

  unsetenv("BOOTLEG_CACHE_DIR");
  std::filesystem::remove_all(cache_dir);
}

TEST(CacheTest, DisabledViaEnv) {
  ASSERT_EQ(setenv("BOOTLEG_CACHE", "0", 1), 0);
  EXPECT_EQ(CacheDir(), "");
  unsetenv("BOOTLEG_CACHE");
  EXPECT_FALSE(CacheDir().empty());
}

TEST(IntegrationTest, BootlegBeatsPriorFloorOnUnseen) {
  ASSERT_EQ(setenv("BOOTLEG_CACHE", "0", 1), 0);
  // The full micro scale: tiny worlds are too degenerate for stable margins.
  Environment env = BuildEnvironment(data::SynthConfig::MicroScale());

  baseline::PriorModel prior;
  BucketResult prior_result = EvaluateBuckets(&prior, env, env.corpus.dev);

  BootlegSpec spec;
  spec.name = "integration_bootleg";
  spec.config = DefaultBootlegConfig();
  spec.train.epochs = 6;
  auto bootleg = TrainBootleg(&env, spec);
  BucketResult bootleg_result =
      EvaluateBuckets(bootleg.get(), env, env.corpus.dev);

  // The trained model beats the static alias-prior floor overall and
  // markedly on the tail (the paper's central claim in miniature).
  EXPECT_GT(bootleg_result.all.f1(), prior_result.all.f1() + 3.0);
  EXPECT_GT(bootleg_result.tail.f1(), prior_result.tail.f1() + 5.0);

  // On the KORE-like hard suite the primary gold is a *non-top-prior*
  // candidate by construction, so trained reasoning must out-score the
  // prior.
  data::CorpusGenerator generator(&env.world);
  const std::vector<data::Sentence> hard = generator.GenerateKoreLike(80);
  BucketResult prior_hard = EvaluateBuckets(&prior, env, hard);
  BucketResult bootleg_hard = EvaluateBuckets(bootleg.get(), env, hard);
  EXPECT_GT(bootleg_hard.all.f1(), prior_hard.all.f1());
  unsetenv("BOOTLEG_CACHE");
}

TEST(EvaluateBucketsTest, TotalsArePartition) {
  Environment env = BuildEnvironment(TinyConfig());
  baseline::PriorModel prior;
  BucketResult r = EvaluateBuckets(&prior, env, env.corpus.dev);
  const eval::Prf head = r.results.ByBucket(data::PopularityBucket::kHead);
  EXPECT_EQ(r.all.total,
            head.total + r.torso.total + r.tail.total + r.unseen.total);
}

}  // namespace
}  // namespace bootleg::harness
