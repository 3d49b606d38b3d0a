// bootleg_cli — end-to-end command-line driver for the library:
//
//   bootleg_cli gen     --out DIR [--scale micro|main] [--seed N] [--pages N]
//   bootleg_cli inspect --data DIR [--n 10]
//   bootleg_cli train   --data DIR --model PATH [--epochs N]
//                       [--ablation full|ent|type|kg] [--no-weak-labels]
//                       [--checkpoint_dir DIR [--checkpoint_every STEPS]
//                        [--retain K] [--resume] [--max_steps N]
//                        [--fault_fail_after BYTES]] [--trace_out FILE]
//   bootleg_cli eval    --data DIR --model PATH [--split dev|test]
//                       [--noise_rates 0.05,0.1] [--noise_seed N]
//                       [--overshadow_prior P] [--char_fallback]
//   bootleg_cli predict --data DIR --model PATH --text "..."
//   bootleg_cli export-store --data DIR --model PATH --out DIR
//                       [--quant float32|int8] [--shards N]
//   bootleg_cli store   --dir DIR [--verify]
//   bootleg_cli induce  --data DIR --model PATH --store DIR --title TITLE
//                       [--coarse NAME] [--gender m|f|n] [--types a,b]
//                       [--relations rel=Title,...] [--aliases a[=p],...]
//   bootleg_cli compact --dir DIR
//
// `gen` writes a self-contained dataset directory (kb.bin, candidates.bin,
// vocab.bin, corpus.bin); `train`/`eval`/`predict` work purely from those
// files — no regeneration needed. A flag the subcommand does not know, an
// integer flag that is not a whole number, an unknown --ablation,
// `train --resume` or `--checkpoint_every` without --checkpoint_dir, and an
// `induce --aliases` prior that is not one finite number all exit 2 before
// any data loads.
#include <chrono>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <optional>
#include <string>

#include "core/model.h"
#include "core/model_loader.h"
#include "core/trainer.h"
#include "index/live_index.h"
#include "data/corpus_io.h"
#include "data/example.h"
#include "data/generator.h"
#include "data/mention_extractor.h"
#include "data/weak_label.h"
#include "data/world.h"
#include "eval/evaluator.h"
#include "obs/trace.h"
#include "robust/robust_eval.h"
#include "store/embedding_store.h"
#include "util/io.h"
#include "util/string_util.h"
#include "flags.h"

using namespace bootleg;  // NOLINT

namespace {

using tools::Flags;

/// Every subcommand reads all the flags it knows, then calls this before it
/// loads anything: an unknown flag or a non-integer integer flag prints its
/// error, and the subcommand exits 2.
bool BadFlags(const Flags& flags) {
  const std::string error = flags.FirstError();
  if (error.empty()) return false;
  std::fprintf(stderr, "%s\n", error.c_str());
  return true;
}

struct Dataset {
  kb::KnowledgeBase kb;
  kb::CandidateMap candidates;
  text::Vocabulary vocab;
  data::Corpus corpus;
};

bool LoadDataset(const std::string& dir, Dataset* ds) {
  const util::Status s1 = ds->kb.Load(dir + "/kb.bin");
  const util::Status s2 = ds->candidates.Load(dir + "/candidates.bin");
  const util::Status s3 = ds->vocab.Load(dir + "/vocab.bin");
  const util::Status s4 = data::LoadCorpus(dir + "/corpus.bin", &ds->corpus);
  for (const util::Status& s : {s1, s2, s3, s4}) {
    if (!s.ok()) {
      std::fprintf(stderr, "error: %s\n", s.ToString().c_str());
      return false;
    }
  }
  return true;
}

int CmdGen(const Flags& flags) {
  const std::string out = flags.Get("out");
  data::SynthConfig config =
      flags.GetChoice("scale", "micro", {"micro", "main"}) == "main"
          ? data::SynthConfig()
          : data::SynthConfig::MicroScale();
  config.seed = static_cast<uint64_t>(flags.GetInt("seed", static_cast<int64_t>(config.seed)));
  config.num_pages = flags.GetInt("pages", config.num_pages);
  if (BadFlags(flags)) return 2;
  if (out.empty()) {
    std::fprintf(stderr, "gen requires --out DIR\n");
    return 2;
  }

  std::filesystem::create_directories(out);
  const data::SynthWorld world = data::BuildWorld(config);
  data::CorpusGenerator generator(&world);
  const data::Corpus corpus = generator.Generate();

  util::Status status = world.kb.Save(out + "/kb.bin");
  if (status.ok()) status = world.candidates.Save(out + "/candidates.bin");
  if (status.ok()) status = world.vocab.Save(out + "/vocab.bin");
  if (status.ok()) status = data::SaveCorpus(corpus, out + "/corpus.bin");
  if (!status.ok()) {
    std::fprintf(stderr, "error: %s\n", status.ToString().c_str());
    return 1;
  }
  std::printf("wrote %s: %lld entities, %lld types, %lld relations, "
              "%lld/%lld/%lld train/dev/test sentences\n",
              out.c_str(), static_cast<long long>(world.kb.num_entities()),
              static_cast<long long>(world.kb.num_types()),
              static_cast<long long>(world.kb.num_relations()),
              static_cast<long long>(corpus.train.size()),
              static_cast<long long>(corpus.dev.size()),
              static_cast<long long>(corpus.test.size()));
  return 0;
}

int CmdInspect(const Flags& flags) {
  const std::string data_dir = flags.Get("data");
  const int64_t n = flags.GetInt("n", 10);
  if (BadFlags(flags)) return 2;
  Dataset ds;
  if (!LoadDataset(data_dir, &ds)) return 1;
  std::printf("train sentences: %zu (showing %lld)\n", ds.corpus.train.size(),
              static_cast<long long>(n));
  for (int64_t i = 0; i < n && i < static_cast<int64_t>(ds.corpus.train.size());
       ++i) {
    std::printf("  %s\n",
                data::RenderSentence(ds.corpus.train[static_cast<size_t>(i)],
                                     &ds.kb)
                    .c_str());
  }
  return 0;
}

int CmdTrain(const Flags& flags) {
  const std::string data_dir = flags.Get("data");
  const std::string model_path = flags.Get("model");
  const std::string trace_out = flags.Get("trace_out");
  const bool weak_labels = !flags.Has("no-weak-labels");
  const std::string ablation = flags.Get("ablation", "full");
  const std::optional<core::BootlegConfig> config =
      core::AblationPreset(ablation);
  const auto seed = static_cast<uint64_t>(flags.GetInt("seed", 7));
  core::TrainOptions options;
  options.epochs = flags.GetInt("epochs", 5);
  options.num_threads = static_cast<int>(flags.GetInt("threads", 0));
  options.verbose = true;
  options.max_steps = flags.GetInt("max_steps", 0);
  options.checkpoint_dir = flags.Get("checkpoint_dir");
  options.checkpoint_every_steps = flags.GetInt("checkpoint_every", 0);
  options.checkpoint_retain = flags.GetInt("retain", 3);
  options.resume = flags.Has("resume");
  const int64_t fail_after_bytes = flags.GetInt("fault_fail_after", -1);
  if (BadFlags(flags)) return 2;
  if (!config.has_value()) {
    std::fprintf(stderr, "unknown --ablation %s (full|ent|type|kg)\n",
                 ablation.c_str());
    return 2;
  }
  for (const char* flag : {"resume", "checkpoint_every"}) {
    if (flags.Has(flag) && options.checkpoint_dir.empty()) {
      std::fprintf(stderr, "--%s needs --checkpoint_dir\n", flag);
      return 2;
    }
  }
  if (model_path.empty()) {
    std::fprintf(stderr, "train requires --model PATH\n");
    return 2;
  }
  Dataset ds;
  if (!LoadDataset(data_dir, &ds)) return 1;
  if (!trace_out.empty()) obs::Trace::Enable(true);
  if (weak_labels) {
    const data::WeakLabelStats wl =
        data::ApplyWeakLabeling(ds.kb, &ds.corpus.train);
    std::printf("weak labeling: %.2fx labels\n", wl.Multiplier());
  }
  const data::EntityCounts counts =
      data::EntityCounts::FromTraining(ds.corpus.train);
  core::BootlegModel model(&ds.kb, ds.vocab.size(), *config, seed);
  model.SetEntityCounts(&counts);

  data::ExampleBuilder builder(&ds.candidates, &ds.vocab);
  const auto examples = builder.BuildAll(ds.corpus.train, {});
  if (fail_after_bytes >= 0) {
    // Test hook: simulate a crash by failing (and truncating) every write
    // past a total byte budget. Torn temp files are left on disk exactly as
    // a real kill would leave them.
    util::FaultInjector::Plan plan;
    plan.fail_after_bytes = fail_after_bytes;
    util::FaultInjector::Arm(plan);
  }
  core::Trainable<core::BootlegModel> trainable(&model);
  const core::TrainStats stats = core::Train(&trainable, examples, options);
  if (stats.resumed_from_step >= 0) {
    std::printf("resumed from checkpoint step %lld\n",
                static_cast<long long>(stats.resumed_from_step));
  }
  std::printf("trained %lld sentences in %.1fs (%d threads, %lld steps)\n",
              static_cast<long long>(stats.sentences_seen), stats.seconds,
              stats.threads, static_cast<long long>(stats.steps));
  if (util::FaultInjector::crash_simulated()) {
    std::fprintf(stderr,
                 "simulated crash: injected I/O fault fired; exiting without "
                 "final save\n");
    return 1;
  }

  util::Status status = model.store().Save(model_path);
  if (status.ok()) {
    status = util::WriteTextFile(model_path + ".meta", ablation + "\n");
  }
  if (!status.ok()) {
    std::fprintf(stderr, "error: %s\n", status.ToString().c_str());
    return 1;
  }
  std::printf("saved %s\n", model_path.c_str());
  if (!trace_out.empty()) {
    status = obs::Trace::WriteJsonl(trace_out);
    if (!status.ok()) {
      std::fprintf(stderr, "error: %s\n", status.ToString().c_str());
      return 1;
    }
    std::printf("wrote per-stage trace to %s\n", trace_out.c_str());
  }
  return 0;
}

/// Loads the model (construction config from the .meta sidecar).
std::unique_ptr<core::BootlegModel> LoadModel(const Dataset& ds,
                                              const std::string& path) {
  const std::string ablation = core::ReadAblationMeta(path, "full");
  const std::optional<core::BootlegConfig> config =
      core::AblationPreset(ablation);
  if (!config.has_value()) {
    std::fprintf(stderr, "error: %s.meta names unknown ablation \"%s\"\n",
                 path.c_str(), ablation.c_str());
    return nullptr;
  }
  auto model = std::make_unique<core::BootlegModel>(
      &ds.kb, ds.vocab.size(), *config, /*seed=*/7);
  const util::Status status =
      core::LoadSnapshotOrInvalidate(path, &model->store());
  if (!status.ok()) {
    std::fprintf(stderr, "error: %s\n", status.ToString().c_str());
    return nullptr;
  }
  return model;
}

int CmdEval(const Flags& flags) {
  const std::string data_dir = flags.Get("data");
  const std::string model_path = flags.Get("model");
  const bool test_split =
      flags.GetChoice("split", "dev", {"dev", "test"}) == "test";
  const bool char_fallback = flags.Has("char_fallback");
  // Robustness slices: --noise_rates 0.05,0.1 adds one perturbed evaluation
  // per rate; the overshadowed slice and prior-follow diagnostic are always
  // reported (they reuse the clean run's records).
  const std::vector<double> rates = flags.GetDoubleList("noise_rates");
  for (double rate : rates) {
    if (!(rate >= 0.0 && rate <= 1.0)) {
      flags.Reject("--noise_rates values must be in [0, 1], got " +
                   util::StrFormat("%g", rate));
    }
  }
  const double overshadow_prior = flags.GetDouble("overshadow_prior", 0.8);
  if (!(overshadow_prior > 0.0 && overshadow_prior <= 1.0)) {
    flags.Reject("--overshadow_prior must be in (0, 1], got " +
                 util::StrFormat("%g", overshadow_prior));
  }
  const auto noise_seed = static_cast<uint64_t>(flags.GetInt("noise_seed", 1234));
  const int threads = static_cast<int>(flags.GetInt("threads", 0));
  if (BadFlags(flags)) return 2;
  Dataset ds;
  if (!LoadDataset(data_dir, &ds)) return 1;
  auto model = LoadModel(ds, model_path);
  if (model == nullptr) return 1;
  // Counts mirror training: weak labels included.
  data::ApplyWeakLabeling(ds.kb, &ds.corpus.train);
  const data::EntityCounts counts =
      data::EntityCounts::FromTraining(ds.corpus.train);
  model->SetEntityCounts(&counts);

  const auto& split = test_split ? ds.corpus.test : ds.corpus.dev;
  if (char_fallback) ds.vocab.BuildTypoIndex();
  data::ExampleBuilder builder(&ds.candidates, &ds.vocab);
  data::ExampleOptions ex_options;
  ex_options.char_fallback = char_fallback;

  robust::OvershadowOptions ov_options;
  ov_options.dominance = static_cast<float>(overshadow_prior);
  const robust::OvershadowedIndex overshadowed =
      robust::OvershadowedIndex::Build(ds.candidates, ov_options);
  const robust::RobustReport report = robust::RunRobustEvaluation(
      model.get(), split, builder, ex_options, counts, overshadowed, rates,
      noise_seed, threads);

  std::printf("%-12s %8s %8s\n", "bucket", "F1", "n");
  const eval::Prf overall = report.clean.Overall();
  std::printf("%-12s %8.1f %8lld\n", "all", overall.f1(),
              static_cast<long long>(overall.total));
  for (data::PopularityBucket b :
       {data::PopularityBucket::kHead, data::PopularityBucket::kTorso,
        data::PopularityBucket::kTail, data::PopularityBucket::kUnseen}) {
    const eval::Prf prf = report.clean.ByBucket(b);
    std::printf("%-12s %8.1f %8lld\n", data::PopularityBucketName(b), prf.f1(),
                static_cast<long long>(prf.total));
  }
  const eval::Prf ov = robust::OvershadowedPrf(report.clean);
  std::printf("%-12s %8.1f %8lld\n", "overshadowed", ov.f1(),
              static_cast<long long>(ov.total));
  for (const robust::NoisySlice& slice : report.noisy) {
    char label[32];
    std::snprintf(label, sizeof(label), "noisy@%.2f", slice.rate);
    const eval::Prf prf = slice.results.Overall();
    std::printf("%-12s %8.1f %8lld\n", label, prf.f1(),
                static_cast<long long>(prf.total));
  }
  // Prior-vs-context diagnostic: how often the model just follows the Γ
  // prior argmax — overall vs. on the overshadowed slice, where following
  // the prior is by construction the wrong strategy.
  std::printf("prior-follow: all %.1f%%  overshadowed %.1f%%\n",
              robust::PriorFollowRate(report.clean),
              robust::PriorFollowRate(
                  report.clean,
                  [](const eval::PredictionRecord& r) { return r.overshadowed; }));
  return 0;
}

int CmdPredict(const Flags& flags) {
  const std::string data_dir = flags.Get("data");
  const std::string model_path = flags.Get("model");
  const std::string text = flags.Get("text");
  if (BadFlags(flags)) return 2;
  if (text.empty()) {
    std::fprintf(stderr, "predict requires --text \"...\"\n");
    return 2;
  }
  Dataset ds;
  if (!LoadDataset(data_dir, &ds)) return 1;
  auto model = LoadModel(ds, model_path);
  if (model == nullptr) return 1;
  const data::MentionExtractor extractor(&ds.candidates);
  const data::SentenceExample example = extractor.BuildExample(ds.vocab, text);
  if (example.mentions.empty()) {
    std::printf("no mentions found\n");
    return 0;
  }
  const auto preds = model->Predict(example);
  for (size_t mi = 0; mi < example.mentions.size(); ++mi) {
    const data::MentionExample& m = example.mentions[mi];
    std::printf("  mention @%lld", static_cast<long long>(m.span_start));
    if (preds[mi] >= 0) {
      const kb::EntityId e = m.candidates[static_cast<size_t>(preds[mi])];
      std::printf(" -> %s (of %zu candidates)\n", ds.kb.entity(e).title.c_str(),
                  m.candidates.size());
    } else {
      std::printf(" -> ? (no candidates)\n");
    }
  }
  return 0;
}

/// Converts a trained snapshot into a sharded embedding-store directory:
/// the frozen per-entity feature table the serving gather path reads
/// ("static") plus the raw entity embedding ("entity_emb", for inspection
/// and downstream reuse), float32 or per-row symmetric int8.
int CmdExportStore(const Flags& flags) {
  const std::string data_dir = flags.Get("data");
  const std::string model_path = flags.Get("model");
  const std::string out = flags.Get("out");
  const std::string quant = flags.Get("quant", "float32");
  store::WriteOptions options;
  options.shards = flags.GetInt("shards", 4);
  if (BadFlags(flags)) return 2;
  if (out.empty()) {
    std::fprintf(stderr, "export-store requires --out DIR\n");
    return 2;
  }
  if (quant == "int8") {
    options.dtype = store::Dtype::kInt8;
  } else if (quant != "float32") {
    std::fprintf(stderr, "unknown --quant %s (float32|int8)\n", quant.c_str());
    return 2;
  }
  Dataset ds;
  if (!LoadDataset(data_dir, &ds)) return 1;
  auto model = LoadModel(ds, model_path);
  if (model == nullptr) return 1;

  if (model->config().use_title_feature) {
    std::vector<int64_t> ids;
    ids.reserve(static_cast<size_t>(ds.kb.num_entities()));
    for (kb::EntityId e = 0; e < ds.kb.num_entities(); ++e) {
      ids.push_back(ds.vocab.Id(ds.kb.entity(e).title));
    }
    model->SetTitleTokenIds(std::move(ids));
  }
  model->PrepareFrozenInference();
  const tensor::Tensor& frozen = model->frozen_static();

  std::vector<store::TableSource> tables;
  tables.push_back({"static", frozen.data(), frozen.size(0), frozen.size(1)});
  if (const nn::Embedding* emb = model->store().GetEmbedding("entity_emb")) {
    tables.push_back(
        {"entity_emb", emb->table().data(), emb->rows(), emb->cols()});
  }
  const util::Status status = store::WriteStore(out, tables, options);
  if (!status.ok()) {
    std::fprintf(stderr, "error: %s\n", status.ToString().c_str());
    return 1;
  }
  auto opened = store::EmbeddingStore::Open(out);
  if (!opened.ok()) {
    std::fprintf(stderr, "error: re-open after export failed: %s\n",
                 opened.status().ToString().c_str());
    return 1;
  }
  std::printf("exported %zu tables (%s, %lld shards each) to %s\n",
              tables.size(), store::DtypeName(options.dtype),
              static_cast<long long>(options.shards), out.c_str());
  for (const store::TableInfo& t : opened.value()->tables()) {
    std::printf("  %-12s %lld x %lld  max_abs_err=%.6f\n", t.name.c_str(),
                static_cast<long long>(t.rows), static_cast<long long>(t.cols),
                t.max_abs_error);
  }
  return 0;
}

/// Inspects (and with --verify, checksum-walks) a store directory.
int CmdStore(const Flags& flags) {
  const std::string dir = flags.Get("dir");
  const bool verify = flags.Has("verify");
  if (BadFlags(flags)) return 2;
  if (dir.empty()) {
    std::fprintf(stderr, "store requires --dir DIR\n");
    return 2;
  }
  int64_t generation = -1;
  auto opened = store::OpenNewestGeneration(dir, &generation);
  if (!opened.ok()) {
    std::fprintf(stderr, "error: %s\n", opened.status().ToString().c_str());
    return 1;
  }
  const store::EmbeddingStore& es = *opened.value();
  std::printf("store %s (generation %lld, %lld shards, %llu mapped bytes)\n",
              es.dir().c_str(), static_cast<long long>(generation),
              static_cast<long long>(es.num_shards()),
              static_cast<unsigned long long>(es.mapped_bytes()));
  for (const store::TableInfo& t : es.tables()) {
    std::printf("  table %-12s %lld x %lld %s", t.name.c_str(),
                static_cast<long long>(t.rows), static_cast<long long>(t.cols),
                store::DtypeName(t.dtype));
    if (t.dtype == store::Dtype::kInt8) {
      std::printf("  max_abs_err=%.6f mean_abs_err=%.6f", t.max_abs_error,
                  t.mean_abs_error);
    }
    std::printf("\n");
    for (const store::ShardInfo& s : t.shards) {
      std::printf("    %-28s rows [%lld, %lld)  %llu bytes  crc %08x\n",
                  s.file.c_str(), static_cast<long long>(s.row_begin),
                  static_cast<long long>(s.row_begin + s.row_count),
                  static_cast<unsigned long long>(s.file_bytes), s.payload_crc);
    }
  }
  if (verify) {
    const util::Status status = es.Verify();
    if (!status.ok()) {
      std::fprintf(stderr, "verify FAILED: %s\n", status.ToString().c_str());
      return 1;
    }
    std::printf("verify OK: every shard payload matches its checksum\n");
  }
  return 0;
}

/// Offline live-index mutation: induces an embedding for a never-trained
/// entity and publishes it as a chained delta generation — the same path the
/// server's add_entity op runs, minus the in-process adoption.
int CmdInduce(const Flags& flags) {
  const auto t_start = std::chrono::steady_clock::now();
  const std::string data_dir = flags.Get("data");
  const std::string model_path = flags.Get("model");
  const std::string dir = flags.Get("store");
  const std::string title = flags.Get("title");
  const std::string coarse = flags.Get("coarse", "miscellaneous");
  const std::string gender = flags.Get("gender", "n");
  const std::string types = flags.Get("types");
  const std::string relations = flags.Get("relations");
  // --aliases "alias=0.5,other alias=0.3" (prior optional, default 0.5)
  std::vector<index::DeltaAlias> aliases;
  for (const std::string& pair : util::Split(flags.Get("aliases"), ",")) {
    index::DeltaAlias alias;
    const size_t eq = pair.rfind('=');
    alias.alias = pair.substr(0, eq);
    if (eq != std::string::npos) {
      double prior = 0.0;
      if (!Flags::ParseDouble(pair.substr(eq + 1), &prior)) {
        flags.Reject("--aliases needs alias[=prior] with a finite prior, got '" +
                     pair + "'");
      }
      alias.prior = static_cast<float>(prior);
    }
    aliases.push_back(std::move(alias));
  }
  if (BadFlags(flags)) return 2;
  if (dir.empty() || title.empty()) {
    std::fprintf(stderr, "induce requires --store DIR and --title TITLE\n");
    return 2;
  }
  Dataset ds;
  if (!LoadDataset(data_dir, &ds)) return 1;
  auto model = LoadModel(ds, model_path);
  if (model == nullptr) return 1;

  int64_t generation = -1;
  auto opened = store::OpenNewestGeneration(dir, &generation);
  if (!opened.ok()) {
    std::fprintf(stderr, "error: %s\n", opened.status().ToString().c_str());
    return 1;
  }
  const store::EmbeddingStore& es = *opened.value();

  // Bring the base KB up to the chain tip so names resolve against (and the
  // new delta stacks onto) everything already added live.
  index::ApplyStats applied;
  util::Status status =
      index::ApplyDeltas(es, &ds.kb, &ds.candidates, nullptr, &applied);
  if (!status.ok()) {
    std::fprintf(stderr, "error: replaying delta chain: %s\n",
                 status.ToString().c_str());
    return 1;
  }

  index::DeltaEntity spec;
  spec.title = title;
  const auto coarse_id = kb::CoarseTypeFromName(coarse);
  if (!coarse_id.has_value()) {
    std::fprintf(stderr, "unknown --coarse \"%s\"\n", coarse.c_str());
    return 2;
  }
  spec.coarse = *coarse_id;
  if (gender != "m" && gender != "f" && gender != "n") {
    std::fprintf(stderr, "--gender must be m, f or n\n");
    return 2;
  }
  spec.gender = gender[0];
  for (const std::string& name : util::Split(types, ",")) {
    const kb::TypeId id = ds.kb.FindTypeByName(name);
    if (id == kb::kInvalidId) {
      std::fprintf(stderr, "unknown type \"%s\"\n", name.c_str());
      return 2;
    }
    spec.types.push_back(id);
  }
  // --relations rel=ObjectTitle,rel2=OtherTitle
  for (const std::string& pair : util::Split(relations, ",")) {
    const size_t eq = pair.find('=');
    if (eq == std::string::npos) {
      std::fprintf(stderr, "--relations entries are rel=ObjectTitle\n");
      return 2;
    }
    const std::string rel_name = pair.substr(0, eq);
    const std::string obj_title = pair.substr(eq + 1);
    const kb::RelationId rel = ds.kb.FindRelationByName(rel_name);
    if (rel == kb::kInvalidId) {
      std::fprintf(stderr, "unknown relation \"%s\"\n", rel_name.c_str());
      return 2;
    }
    const kb::EntityId obj = ds.kb.FindByTitle(obj_title);
    if (obj == kb::kInvalidId) {
      std::fprintf(stderr, "unknown object entity \"%s\"\n", obj_title.c_str());
      return 2;
    }
    spec.triples.push_back({rel, obj});
  }
  spec.aliases = std::move(aliases);
  if (spec.aliases.empty()) spec.aliases.push_back({spec.title, 0.5f});
  spec.title_token_id = ds.vocab.Id(spec.title);

  status = index::ValidateDeltaEntity(ds.kb, ds.candidates,
                                      ds.kb.num_entities(), spec);
  if (!status.ok()) {
    std::fprintf(stderr, "error: %s\n", status.ToString().c_str());
    return 1;
  }
  auto view = es.View("static");
  if (!view.ok()) {
    std::fprintf(stderr, "error: %s\n", view.status().ToString().c_str());
    return 1;
  }
  std::vector<float> row;
  status = index::InduceRow(*model, ds.kb, *view.value(), spec, &row);
  if (!status.ok()) {
    std::fprintf(stderr, "error: %s\n", status.ToString().c_str());
    return 1;
  }

  index::IndexDelta delta;
  delta.base_entities = ds.kb.num_entities();
  delta.entities.push_back(std::move(spec));
  index::PublishResult published;
  status = index::PublishDelta(dir, es, generation, delta, row.data(),
                               &published);
  if (!status.ok()) {
    std::fprintf(stderr, "error: %s\n", status.ToString().c_str());
    return 1;
  }
  const double ms =
      std::chrono::duration_cast<std::chrono::duration<double, std::milli>>(
          std::chrono::steady_clock::now() - t_start)
          .count();
  std::printf(
      "induced \"%s\" -> generation %lld (%s) in %.1f ms; a serving "
      "process picks it up on its next reload\n",
      title.c_str(), static_cast<long long>(published.generation),
      published.dir.c_str(), ms);
  return 0;
}

/// Folds the newest delta chain into one flat generation.
int CmdCompact(const Flags& flags) {
  const std::string dir = flags.Get("dir");
  if (BadFlags(flags)) return 2;
  if (dir.empty()) {
    std::fprintf(stderr, "compact requires --dir DIR\n");
    return 2;
  }
  index::CompactResult result;
  const util::Status status = index::Compact(dir, &result);
  if (!status.ok()) {
    std::fprintf(stderr, "error: %s\n", status.ToString().c_str());
    return 1;
  }
  if (result.already_flat) {
    std::printf("generation %lld is already flat; nothing to do\n",
                static_cast<long long>(result.source_generation));
    return 0;
  }
  std::printf(
      "compacted chain at generation %lld into flat generation %lld (%s, "
      "%lld files)\n",
      static_cast<long long>(result.source_generation),
      static_cast<long long>(result.generation), result.dir.c_str(),
      static_cast<long long>(result.files_copied));
  return 0;
}

int Usage() {
  std::fprintf(
      stderr,
      "usage: bootleg_cli "
      "<gen|inspect|train|eval|predict|export-store|store|induce|compact> "
      "[flags]\n"
      "  gen     --out DIR [--scale micro|main] [--seed N] [--pages N]\n"
      "  inspect --data DIR [--n N]\n"
      "  train   --data DIR --model PATH [--epochs N] [--threads N]\n"
      "          [--ablation full|ent|type|kg] [--no-weak-labels]\n"
      "          [--checkpoint_dir DIR] [--checkpoint_every STEPS]\n"
      "          [--retain K] [--resume] [--max_steps N]\n"
      "          [--fault_fail_after BYTES] [--trace_out FILE]\n"
      "  eval    --data DIR --model PATH [--split dev|test] [--threads N]\n"
      "  predict --data DIR --model PATH --text \"...\"\n"
      "  export-store --data DIR --model PATH --out DIR\n"
      "          [--quant float32|int8] [--shards N]\n"
      "  store   --dir DIR [--verify]\n"
      "  induce  --data DIR --model PATH --store DIR --title TITLE\n"
      "          [--coarse NAME] [--gender m|f|n] [--types a,b,...]\n"
      "          [--relations rel=Title,...] [--aliases alias[=prior],...]\n"
      "  compact --dir DIR\n");
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  if (argc < 2) return Usage();
  const Flags flags(argc, argv, /*first=*/2);
  const std::string cmd = argv[1];
  if (cmd == "gen") return CmdGen(flags);
  if (cmd == "inspect") return CmdInspect(flags);
  if (cmd == "train") return CmdTrain(flags);
  if (cmd == "eval") return CmdEval(flags);
  if (cmd == "predict") return CmdPredict(flags);
  if (cmd == "export-store") return CmdExportStore(flags);
  if (cmd == "store") return CmdStore(flags);
  if (cmd == "induce") return CmdInduce(flags);
  if (cmd == "compact") return CmdCompact(flags);
  return Usage();
}
