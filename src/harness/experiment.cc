#include "harness/experiment.h"

#include <cstdio>
#include <cstdlib>
#include <filesystem>

#include "core/model_loader.h"

#include "util/logging.h"
#include "util/string_util.h"

namespace bootleg::harness {

std::vector<int64_t> Environment::TitleTokenIds() const {
  std::vector<int64_t> ids;
  ids.reserve(static_cast<size_t>(world.kb.num_entities()));
  for (kb::EntityId e = 0; e < world.kb.num_entities(); ++e) {
    ids.push_back(world.vocab.Id(world.kb.entity(e).title));
  }
  return ids;
}

Environment BuildEnvironment(const data::SynthConfig& config,
                             bool apply_weak_labels) {
  Environment env;
  env.synth_config = config;
  env.world = data::BuildWorld(config);
  data::CorpusGenerator generator(&env.world);
  env.corpus = generator.Generate();
  env.counts_anchor_only = data::EntityCounts::FromTraining(
      env.corpus.train, /*include_weak=*/false);
  if (apply_weak_labels) {
    env.wl_stats = data::ApplyWeakLabeling(env.world.kb, &env.corpus.train);
  }
  env.counts = data::EntityCounts::FromTraining(env.corpus.train);
  for (const data::Sentence& s : env.corpus.train) {
    for (size_t i = 0; i < s.mentions.size(); ++i) {
      if (!s.mentions[i].labeled) continue;
      for (size_t j = i + 1; j < s.mentions.size(); ++j) {
        if (!s.mentions[j].labeled) continue;
        env.cooc.AddPair(s.mentions[i].gold, s.mentions[j].gold);
      }
    }
  }
  env.builder = std::make_unique<data::ExampleBuilder>(&env.world.candidates,
                                                       &env.world.vocab);
  data::ExampleOptions options;
  env.train_examples = env.builder->BuildAll(env.corpus.train, options);
  return env;
}

data::SynthConfig MainScale() { return data::SynthConfig(); }

core::BootlegConfig DefaultBootlegConfig() {
  core::BootlegConfig config;
  config.encoder.max_len = 32;
  return config;
}

core::TrainOptions DefaultTrainOptions() {
  core::TrainOptions options;
  // The paper trains 2 epochs over 5.7M Wikipedia sentences; at this corpus
  // scale more passes are needed to reach the same convergence regime.
  options.epochs = 5;
  return options;
}

std::string CacheDir() {
  const char* toggle = std::getenv("BOOTLEG_CACHE");
  if (toggle != nullptr && std::string(toggle) == "0") return "";
  const char* dir = std::getenv("BOOTLEG_CACHE_DIR");
  return dir != nullptr ? dir : "bootleg_cache";
}

namespace {

/// Cache file name: spec name + environment fingerprint + everything that
/// changes the trained weights (schedule, worker count, batch size, both
/// seeds), so a changed recipe never silently reuses a stale checkpoint.
std::string CachePath(const Environment& env, const std::string& name,
                      const core::TrainableModel& model,
                      const core::TrainOptions& train, uint64_t model_seed) {
  const std::string dir = CacheDir();
  if (dir.empty()) return "";
  std::error_code ec;
  std::filesystem::create_directories(dir, ec);
  if (ec) return "";
  return util::StrFormat(
      "%s/%s_s%llu_p%lld_e%lld_wl%lld_ep%lld_lr%g_w%d_b%lld_ts%llu_ms%llu.ckpt",
      dir.c_str(), name.c_str(),
      static_cast<unsigned long long>(env.synth_config.seed),
      static_cast<long long>(env.synth_config.num_pages),
      static_cast<long long>(env.synth_config.num_entities),
      static_cast<long long>(env.wl_stats.total_labels_after),
      static_cast<long long>(train.epochs), static_cast<double>(train.lr),
      core::TrainWorkers(model, train),
      static_cast<long long>(train.batch_size),
      static_cast<unsigned long long>(train.seed),
      static_cast<unsigned long long>(model_seed));
}

}  // namespace

std::unique_ptr<core::BootlegModel> TrainBootleg(Environment* env,
                                                 const BootlegSpec& spec) {
  auto model = std::make_unique<core::BootlegModel>(
      &env->world.kb, env->world.vocab.size(), spec.config, spec.model_seed);
  model->SetEntityCounts(&env->counts);
  if (spec.config.use_cooccurrence_kg) model->SetCooccurrence(&env->cooc);
  if (spec.config.use_title_feature) {
    model->SetTitleTokenIds(env->TitleTokenIds());
  }
  core::Trainable<core::BootlegModel> trainable(model.get());
  const std::string cache =
      CachePath(*env, spec.name, trainable, spec.train, spec.model_seed);
  if (!cache.empty() && std::filesystem::exists(cache) &&
      core::LoadSnapshotOrInvalidate(cache, &model->store()).ok()) {
    BOOTLEG_LOG(Info) << "loaded cached model " << cache;
    return model;
  }
  const core::TrainStats stats =
      core::Train(&trainable, env->train_examples, spec.train);
  BOOTLEG_LOG(Info) << "trained " << spec.name << ": "
                    << stats.sentences_seen << " sentences in "
                    << stats.seconds << "s";
  if (!cache.empty()) {
    const util::Status st = model->store().Save(cache);
    if (!st.ok()) BOOTLEG_LOG(Warning) << "cache save failed: " << st.ToString();
  }
  return model;
}

std::unique_ptr<baseline::NedBaseModel> TrainNedBase(
    Environment* env, const std::string& name,
    const core::TrainOptions& train_options, uint64_t model_seed) {
  baseline::NedBaseConfig config;
  config.encoder.max_len = 32;
  auto model = std::make_unique<baseline::NedBaseModel>(
      env->world.kb.num_entities(), env->world.vocab.size(), config, model_seed);
  core::Trainable<baseline::NedBaseModel> trainable(model.get());
  const std::string cache =
      CachePath(*env, name, trainable, train_options, model_seed);
  if (!cache.empty() && std::filesystem::exists(cache) &&
      core::LoadSnapshotOrInvalidate(cache, &model->store()).ok()) {
    BOOTLEG_LOG(Info) << "loaded cached model " << cache;
    return model;
  }
  const core::TrainStats stats =
      core::Train(&trainable, env->train_examples, train_options);
  BOOTLEG_LOG(Info) << "trained " << name << ": " << stats.sentences_seen
                    << " sentences in " << stats.seconds << "s";
  if (!cache.empty()) {
    const util::Status st = model->store().Save(cache);
    if (!st.ok()) BOOTLEG_LOG(Warning) << "cache save failed: " << st.ToString();
  }
  return model;
}

BucketResult EvaluateBuckets(eval::NedScorer* model, const Environment& env,
                             const std::vector<data::Sentence>& sentences,
                             bool prepend_title,
                             const data::EntityCounts* bucket_counts) {
  data::ExampleOptions options;
  options.prepend_title = prepend_title;
  const data::EntityCounts& counts =
      bucket_counts != nullptr ? *bucket_counts : env.counts;
  BucketResult out{
      {}, {}, {}, {},
      eval::RunEvaluation(model, sentences, *env.builder, options, counts)};
  out.all = out.results.Overall();
  out.torso = out.results.ByBucket(data::PopularityBucket::kTorso);
  out.tail = out.results.ByBucket(data::PopularityBucket::kTail);
  out.unseen = out.results.ByBucket(data::PopularityBucket::kUnseen);
  return out;
}

std::vector<data::Sentence> DevPlusTest(const Environment& env) {
  std::vector<data::Sentence> out = env.corpus.dev;
  out.insert(out.end(), env.corpus.test.begin(), env.corpus.test.end());
  return out;
}

void PrintTableHeader(const std::string& title,
                      const std::vector<std::string>& columns) {
  std::printf("\n=== %s ===\n", title.c_str());
  std::printf("%-28s", "Model");
  for (const std::string& c : columns) std::printf(" %14s", c.c_str());
  std::printf("\n");
  for (size_t i = 0; i < 28 + columns.size() * 15; ++i) std::printf("-");
  std::printf("\n");
}

void PrintTableRow(const std::string& name, const std::vector<double>& values) {
  std::printf("%-28s", name.c_str());
  for (double v : values) std::printf(" %14.1f", v);
  std::printf("\n");
}

void PrintTableRowText(const std::string& name,
                       const std::vector<std::string>& values) {
  std::printf("%-28s", name.c_str());
  for (const std::string& v : values) std::printf(" %14s", v.c_str());
  std::printf("\n");
}

}  // namespace bootleg::harness
