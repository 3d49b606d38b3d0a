// Live index mutation: the delta-generation subsystem must round-trip its
// on-disk delta records and reject every corrupted byte with kCorruption,
// validate entity specs against the serving KB, serve a never-trained entity
// within one AddEntityLive call while keeping every pre-existing prediction
// bit-identical across the generation swap, replay chains idempotently from
// disk, fall back to the newest fully-valid chain when a delta generation is
// corrupt, and compact a chain into a flat generation whose gathers are
// bit-identical to the chain tip.

#include <atomic>
#include <cstdint>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <future>
#include <iterator>
#include <memory>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "core/model.h"
#include "data/example.h"
#include "data/generator.h"
#include "data/world.h"
#include "index/live_index.h"
#include "kb/candidate_map.h"
#include "kb/kb.h"
#include "obs/metrics.h"
#include "serve/batcher.h"
#include "serve/inference_engine.h"
#include "serve/json.h"
#include "serve/metrics.h"
#include "serve/server.h"
#include "store/embedding_store.h"
#include "text/vocabulary.h"
#include "util/status.h"

namespace bootleg {
namespace {

namespace fs = std::filesystem;

std::string TestDir(const std::string& name) {
  const std::string dir =
      (fs::temp_directory_path() / ("bootleg_index_test_" + name)).string();
  fs::remove_all(dir);
  fs::create_directories(dir);
  return dir;
}

// --- Shared world -------------------------------------------------------------

/// One tiny world + saved dataset + saved model + exported float store
/// (mirrors store_test's fixture; rebuilt here so the binaries stay
/// independent). Mutating tests copy gen_000001 into a fresh root.
struct IndexWorld {
  std::string data_dir;
  std::string model_path;
  std::string store_root;  // holds gen_000001 (float, 3 shards)
  data::SynthWorld world;
  data::Corpus corpus;
};

core::BootlegConfig ServingConfig() {
  core::BootlegConfig config;
  config.encoder.max_len = 32;
  return config;
}

const IndexWorld& GetIndexWorld() {
  static const IndexWorld* shared = [] {
    auto* iw = new IndexWorld();
    data::SynthConfig config = data::SynthConfig::MicroScale();
    config.num_pages = 40;
    iw->world = data::BuildWorld(config);
    data::CorpusGenerator generator(&iw->world);
    iw->corpus = generator.Generate();
    iw->data_dir = TestDir("index_world");
    BOOTLEG_CHECK(iw->world.kb.Save(iw->data_dir + "/kb.bin").ok());
    BOOTLEG_CHECK(
        iw->world.candidates.Save(iw->data_dir + "/candidates.bin").ok());
    BOOTLEG_CHECK(iw->world.vocab.Save(iw->data_dir + "/vocab.bin").ok());
    core::BootlegModel model(&iw->world.kb, iw->world.vocab.size(),
                             ServingConfig(), /*seed=*/123);
    iw->model_path = iw->data_dir + "/model.bin";
    BOOTLEG_CHECK(model.store().Save(iw->model_path).ok());

    model.PrepareFrozenInference();
    const tensor::Tensor& frozen = model.frozen_static();
    iw->store_root = TestDir("index_store");
    store::WriteOptions wo;
    wo.shards = 3;
    wo.dtype = store::Dtype::kFloat32;
    BOOTLEG_CHECK(store::WriteStore(iw->store_root + "/gen_000001",
                                    {{"static", frozen.data(), frozen.size(0),
                                      frozen.size(1)}},
                                    wo)
                      .ok());
    return iw;
  }();
  return *shared;
}

/// Fresh store root holding a copy of the pristine gen_000001 — every
/// mutating test publishes into its own root.
std::string FreshRoot(const std::string& name) {
  const std::string root = TestDir(name);
  fs::copy(GetIndexWorld().store_root + "/gen_000001", root + "/gen_000001",
           fs::copy_options::recursive);
  return root;
}

std::unique_ptr<serve::InferenceEngine> MakeEngine(
    const std::string& store_dir) {
  const IndexWorld& iw = GetIndexWorld();
  serve::EngineOptions options;
  options.data_dir = iw.data_dir;
  options.model_path = iw.model_path;
  options.store_dir = store_dir;
  auto engine = serve::InferenceEngine::Create(options);
  BOOTLEG_CHECK_MSG(engine.ok(), engine.status().ToString());
  return std::move(engine.value());
}

std::vector<data::SentenceExample> DevExamples() {
  const IndexWorld& iw = GetIndexWorld();
  data::ExampleBuilder builder(&iw.world.candidates, &iw.world.vocab);
  data::ExampleOptions options;
  options.include_weak_labels = false;
  return builder.BuildAll(iw.corpus.dev, options);
}

/// A valid unseen-entity spec borrowing an existing entity's structural
/// signals (the paper's premise: new tail entities carry known types and
/// relations). The title doubles as the sole alias — Tokenize() lowercases,
/// so a lowercase title is its own surface form, and a brand-new alias makes
/// the new entity the only candidate (deterministic argmax).
index::DeltaEntity MakeSpec(const kb::KnowledgeBase& kb,
                            const std::string& title) {
  index::DeltaEntity spec;
  spec.title = title;
  const kb::Entity* sibling = &kb.entity(0);
  for (int64_t i = 0; i < kb.num_entities(); ++i) {
    if (!kb.entity(i).types.empty() && !kb.entity(i).relations.empty()) {
      sibling = &kb.entity(i);
      break;
    }
  }
  spec.coarse = sibling->coarse_type;
  spec.gender = sibling->gender;
  spec.types = sibling->types;
  for (const kb::RelationId r : sibling->relations) {
    spec.triples.push_back({r, sibling->id});
  }
  spec.aliases.push_back({title, 0.5f});
  return spec;
}

// --- Delta file round trip + corruption ---------------------------------------

std::string ReadAll(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  return std::string(std::istreambuf_iterator<char>(in),
                     std::istreambuf_iterator<char>());
}

void WriteAll(const std::string& path, const std::string& bytes) {
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  out.write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
}

TEST(IndexDeltaTest, DeltaFileRoundTripsAndRejectsEveryCorruptByte) {
  const std::string dir = TestDir("delta_roundtrip");
  const std::string path = dir + "/index_delta_000000.bin";

  index::IndexDelta delta;
  delta.base_entities = 7;
  index::DeltaEntity e;
  e.title = "zyqroundtrip";
  e.coarse = kb::CoarseType::kPerson;
  e.gender = 'f';
  e.types = {1, 3};
  e.triples = {{0, 2}, {1, 5}};
  e.aliases = {{"zyqroundtrip", 0.5f}, {"zyq", 0.25f}};
  e.title_token_id = 42;
  delta.entities.push_back(e);

  ASSERT_TRUE(index::WriteIndexDelta(path, delta).ok());
  auto back = index::ReadIndexDelta(path);
  ASSERT_TRUE(back.ok()) << back.status().ToString();
  ASSERT_EQ(back.value().base_entities, 7);
  ASSERT_EQ(back.value().entities.size(), 1u);
  const index::DeltaEntity& b = back.value().entities[0];
  EXPECT_EQ(b.title, e.title);
  EXPECT_EQ(b.coarse, e.coarse);
  EXPECT_EQ(b.gender, e.gender);
  EXPECT_EQ(b.types, e.types);
  ASSERT_EQ(b.triples.size(), 2u);
  EXPECT_EQ(b.triples[1].relation, 1);
  EXPECT_EQ(b.triples[1].object, 5);
  ASSERT_EQ(b.aliases.size(), 2u);
  EXPECT_EQ(b.aliases[1].alias, "zyq");
  EXPECT_FLOAT_EQ(b.aliases[1].prior, 0.25f);
  EXPECT_EQ(b.title_token_id, 42);

  // Every truncation and every single-byte flip must fail cleanly.
  const std::string good = ReadAll(path);
  ASSERT_FALSE(good.empty());
  for (size_t cut = 0; cut < good.size(); ++cut) {
    WriteAll(path, good.substr(0, cut));
    EXPECT_FALSE(index::ReadIndexDelta(path).ok())
        << "truncated at " << cut << " loaded";
  }
  for (size_t at = 0; at < good.size(); ++at) {
    std::string flipped = good;
    flipped[at] = static_cast<char>(flipped[at] ^ 0x40);
    WriteAll(path, flipped);
    EXPECT_FALSE(index::ReadIndexDelta(path).ok())
        << "flip at " << at << " loaded";
  }
  WriteAll(path, good + std::string(8, '\x5a'));
  EXPECT_FALSE(index::ReadIndexDelta(path).ok());
  WriteAll(path, good);
  EXPECT_TRUE(index::ReadIndexDelta(path).ok());
}

TEST(IndexDeltaTest, ValidateRejectsBadSpecsAndAcceptsGoodOnes) {
  const IndexWorld& iw = GetIndexWorld();
  const kb::KnowledgeBase& kb = iw.world.kb;
  const kb::CandidateMap& cands = iw.world.candidates;
  const int64_t n = kb.num_entities();

  const index::DeltaEntity good = MakeSpec(kb, "zyqvalidate");
  EXPECT_TRUE(index::ValidateDeltaEntity(kb, cands, n, good).ok());

  const auto expect_invalid = [&](index::DeltaEntity spec) {
    const util::Status st = index::ValidateDeltaEntity(kb, cands, n, spec);
    ASSERT_FALSE(st.ok());
    EXPECT_EQ(st.code(), util::StatusCode::kInvalidArgument);
  };

  index::DeltaEntity empty_title = good;
  empty_title.title = "";
  expect_invalid(empty_title);

  index::DeltaEntity duplicate = good;
  duplicate.title = kb.entity(0).title;
  duplicate.aliases = {{kb.entity(0).title, 0.5f}};
  expect_invalid(duplicate);

  index::DeltaEntity bad_type = good;
  bad_type.types.push_back(kb.num_types());
  expect_invalid(bad_type);

  index::DeltaEntity bad_relation = good;
  bad_relation.triples.push_back({kb.num_relations(), 0});
  expect_invalid(bad_relation);

  index::DeltaEntity bad_object = good;
  bad_object.triples.push_back({0, n});  // beyond the chain tip
  expect_invalid(bad_object);

  index::DeltaEntity no_aliases = good;
  no_aliases.aliases.clear();
  expect_invalid(no_aliases);

  index::DeltaEntity no_title_alias = good;
  no_title_alias.aliases = {{"zyqother", 0.5f}};
  expect_invalid(no_title_alias);

  index::DeltaEntity bad_prior = good;
  bad_prior.aliases[0].prior = 1.5f;
  expect_invalid(bad_prior);

  index::DeltaEntity bad_gender = good;
  bad_gender.gender = 'x';
  expect_invalid(bad_gender);
}

TEST(IndexDeltaTest, AddCandidateLiveRescalesAndRejectsTruncationVictims) {
  kb::CandidateMap cands;
  cands.AddAlias("shared", 0, 3.0f);
  cands.AddAlias("shared", 1, 1.0f);
  cands.AddAlias("lonely", 2, 1.0f);
  cands.Finalize(/*max_candidates=*/2);

  // New alias: single candidate with prior 1 regardless of the argument.
  ASSERT_TRUE(cands.AddCandidateLive("fresh", 5, 0.3f).ok());
  const auto* fresh = cands.Lookup("fresh");
  ASSERT_NE(fresh, nullptr);
  ASSERT_EQ(fresh->size(), 1u);
  EXPECT_EQ((*fresh)[0].entity, 5);
  EXPECT_FLOAT_EQ((*fresh)[0].prior, 1.0f);

  // Existing alias: survivors rescale by (1 - prior), list stays normalized.
  ASSERT_TRUE(cands.AddCandidateLive("lonely", 5, 0.4f).ok());
  const auto* lonely = cands.Lookup("lonely");
  ASSERT_EQ(lonely->size(), 2u);
  float sum = 0.0f;
  for (const kb::Candidate& c : *lonely) sum += c.prior;
  EXPECT_NEAR(sum, 1.0f, 1e-5f);
  EXPECT_EQ((*lonely)[0].entity, 2);  // 0.6 still outranks 0.4

  // A prior too small to survive truncation fails and leaves the list alone.
  const std::vector<kb::Candidate> before = *cands.Lookup("shared");
  const util::Status st = cands.AddCandidateLive("shared", 6, 0.01f);
  ASSERT_FALSE(st.ok());
  EXPECT_EQ(st.code(), util::StatusCode::kInvalidArgument);
  const std::vector<kb::Candidate>& after = *cands.Lookup("shared");
  ASSERT_EQ(after.size(), before.size());
  for (size_t i = 0; i < after.size(); ++i) {
    EXPECT_EQ(after[i].entity, before[i].entity);
    EXPECT_EQ(std::memcmp(&after[i].prior, &before[i].prior, sizeof(float)),
              0);  // untouched lists stay bit-identical
  }
}

// --- Live add through the engine ----------------------------------------------

TEST(LiveIndexTest, AddEntityLiveServesUnseenEntityKeepsOldRepliesBitIdentical) {
  const std::string root = FreshRoot("live_add");
  auto engine = MakeEngine(root);
  ASSERT_EQ(engine->store_generation(), 1);
  const int64_t base = engine->kb().num_entities();

  const std::vector<data::SentenceExample> examples = DevExamples();
  ASSERT_GT(examples.size(), 8u);
  std::vector<const data::SentenceExample*> batch;
  for (const data::SentenceExample& ex : examples) batch.push_back(&ex);
  core::BootlegModel::InferenceScratch scratch;
  const auto before = engine->PredictExamples(batch, &scratch);

  // The entity was never trained: it exists in no corpus, no checkpoint, no
  // exported table. One call makes it servable.
  const util::Status st =
      engine->AddEntityLive(MakeSpec(engine->kb(), "zyqlive"));
  ASSERT_TRUE(st.ok()) << st.ToString();
  EXPECT_EQ(engine->store_generation(), 2);
  EXPECT_EQ(engine->induced_entities(), 1);
  ASSERT_EQ(engine->kb().num_entities(), base + 1);
  const kb::EntityId id = engine->kb().FindByTitle("zyqlive");
  ASSERT_NE(id, kb::kInvalidId);

  // The new alias is a single-token mention with exactly one candidate, so
  // the served prediction must be the induced entity.
  std::vector<serve::SentenceResult> served =
      engine->Disambiguate({"they wrote about zyqlive yesterday"}, &scratch);
  ASSERT_EQ(served.size(), 1u);
  bool found = false;
  for (const serve::ServedMention& m : served[0].mentions) {
    if (m.alias != "zyqlive") continue;
    found = true;
    EXPECT_EQ(m.entity, id);
    EXPECT_EQ(m.title, "zyqlive");
    EXPECT_EQ(m.num_candidates, 1);
  }
  EXPECT_TRUE(found) << "new alias not extracted as a mention";

  // The store view grew by exactly one row and the KB agrees with it.
  auto store = engine->entity_store();
  ASSERT_NE(store, nullptr);
  auto view = store->View("static");
  ASSERT_TRUE(view.ok());
  EXPECT_EQ(view.value()->rows(), base + 1);

  // Acceptance bar: pre-existing entities reply bit-identically across the
  // generation swap (the chained manifest references the parent's shards by
  // content, so their gathers are the same mapped bytes).
  const auto after = engine->PredictExamples(batch, &scratch);
  EXPECT_EQ(after, before);
}

TEST(LiveIndexTest, FreshEngineReplaysChainFromDiskAndReplayIsIdempotent) {
  const std::string root = FreshRoot("replay");
  const int64_t base = GetIndexWorld().world.kb.num_entities();
  {
    auto engine = MakeEngine(root);
    ASSERT_TRUE(
        engine->AddEntityLive(MakeSpec(engine->kb(), "zyqreplay")).ok());
  }  // engine gone; the chain on disk is the only record

  // A cold process adopting the chain serves the entity.
  auto engine = MakeEngine(root);
  EXPECT_EQ(engine->store_generation(), 2);
  EXPECT_EQ(engine->induced_entities(), 1);
  ASSERT_EQ(engine->kb().num_entities(), base + 1);
  core::BootlegModel::InferenceScratch scratch;
  std::vector<serve::SentenceResult> served =
      engine->Disambiguate({"zyqreplay returned"}, &scratch);
  ASSERT_EQ(served.size(), 1u);
  bool found = false;
  for (const serve::ServedMention& m : served[0].mentions) {
    if (m.alias == "zyqreplay") {
      found = true;
      EXPECT_EQ(m.title, "zyqreplay");
    }
  }
  EXPECT_TRUE(found);

  // Raw replay: applying the same chain twice applies nothing the second
  // time (base_entities bookkeeping), and the first pass grows Γ.
  int64_t generation = 0;
  auto opened = store::OpenNewestGeneration(root, &generation);
  ASSERT_TRUE(opened.ok()) << opened.status().ToString();
  ASSERT_EQ(generation, 2);
  kb::KnowledgeBase kb = GetIndexWorld().world.kb;
  kb::CandidateMap cands = GetIndexWorld().world.candidates;
  index::ApplyStats first, second;
  ASSERT_TRUE(
      index::ApplyDeltas(*opened.value(), &kb, &cands, nullptr, &first).ok());
  EXPECT_EQ(first.entities_applied, 1);
  EXPECT_EQ(first.deltas_seen, 1);
  const std::vector<kb::Candidate>* replayed = cands.Lookup("zyqreplay");
  ASSERT_NE(replayed, nullptr);
  ASSERT_EQ(replayed->size(), 1u);
  EXPECT_EQ((*replayed)[0].entity, base);
  ASSERT_TRUE(
      index::ApplyDeltas(*opened.value(), &kb, &cands, nullptr, &second).ok());
  EXPECT_EQ(second.entities_applied, 0);
  EXPECT_EQ(second.deltas_seen, 1);
  EXPECT_EQ(kb.num_entities(), base + 1);
}

TEST(LiveIndexTest, ServedCandidatesFollowALiveAddToAWarmAlias) {
  auto engine = MakeEngine(FreshRoot("warm_alias"));
  const kb::CandidateMap& cands = engine->candidates();

  // A one-token alias with room for one more candidate (so the add rescales
  // the list without truncating it), served once to warm it.
  std::string alias;
  for (const auto& [name, list] : cands.map()) {
    if (text::Tokenize(name) == std::vector<std::string>{name} &&
        list.size() >= 2 &&
        static_cast<int>(list.size()) < cands.max_candidates() &&
        (alias.empty() || name < alias)) {
      alias = name;
    }
  }
  ASSERT_FALSE(alias.empty());
  core::BootlegModel::InferenceScratch scratch;
  std::vector<serve::SentenceResult> served =
      engine->Disambiguate({alias}, &scratch);
  ASSERT_EQ(served.size(), 1u);
  ASSERT_EQ(served[0].mentions.size(), 1u);
  const serve::ServedMention before = served[0].mentions[0];
  ASSERT_EQ(before.alias, alias);
  ASSERT_EQ(before.num_candidates,
            static_cast<int64_t>(cands.Lookup(alias)->size()));

  // The new entity joins the warm alias with prior 0.5.
  constexpr float kPrior = 0.5f;
  index::DeltaEntity spec = MakeSpec(engine->kb(), "zyqwarm");
  spec.aliases.push_back({alias, kPrior});
  ASSERT_TRUE(engine->AddEntityLive(std::move(spec)).ok());
  const std::vector<kb::Candidate>& now = *cands.Lookup(alias);
  ASSERT_EQ(now.size(), static_cast<size_t>(before.num_candidates) + 1);

  // The reply reads the grown list: its count, and its prior for whichever
  // candidate wins now.
  served = engine->Disambiguate({alias}, &scratch);
  ASSERT_EQ(served.size(), 1u);
  ASSERT_EQ(served[0].mentions.size(), 1u);
  const serve::ServedMention after = served[0].mentions[0];
  EXPECT_EQ(after.num_candidates, static_cast<int64_t>(now.size()));
  const auto prior_of = [&](kb::EntityId e) {
    for (const kb::Candidate& c : now) {
      if (c.entity == e) return c.prior;
    }
    return -1.0f;
  };
  EXPECT_EQ(after.prior, prior_of(after.entity));
  EXPECT_EQ(prior_of(before.entity), before.prior * (1.0f - kPrior));
}

// --- Corruption: every delta artifact, every byte -----------------------------

util::Status OpenAndVerify(const std::string& dir) {
  auto opened = store::EmbeddingStore::Open(dir);
  if (!opened.ok()) return opened.status();
  return opened.value()->Verify();
}

/// Every truncation offset, every single-byte flip, and trailing garbage of
/// `target` must make the chained generation fail Open+Verify with
/// kCorruption — never a crash or a silent success.
void FuzzChainFile(const std::string& gen_dir, const std::string& target) {
  const std::string good = ReadAll(target);
  ASSERT_FALSE(good.empty()) << target;
  ASSERT_TRUE(OpenAndVerify(gen_dir).ok());

  for (size_t cut = 0; cut < good.size(); ++cut) {
    WriteAll(target, good.substr(0, cut));
    const util::Status st = OpenAndVerify(gen_dir);
    ASSERT_FALSE(st.ok()) << target << " truncated at " << cut << " loaded";
    ASSERT_EQ(st.code(), util::StatusCode::kCorruption)
        << target << " truncated at " << cut << ": " << st.ToString();
  }
  for (size_t at = 0; at < good.size(); ++at) {
    std::string flipped = good;
    flipped[at] = static_cast<char>(flipped[at] ^ 0x40);
    WriteAll(target, flipped);
    const util::Status st = OpenAndVerify(gen_dir);
    ASSERT_FALSE(st.ok()) << target << " flip at " << at << " loaded";
    ASSERT_EQ(st.code(), util::StatusCode::kCorruption)
        << target << " flip at " << at << ": " << st.ToString();
  }
  WriteAll(target, good + std::string(16, '\x5a'));
  const util::Status st = OpenAndVerify(gen_dir);
  ASSERT_FALSE(st.ok());
  ASSERT_EQ(st.code(), util::StatusCode::kCorruption);

  WriteAll(target, good);  // restore for the next sweep
  ASSERT_TRUE(OpenAndVerify(gen_dir).ok());
}

TEST(LiveIndexFuzzTest, CorruptDeltaChainFailsAsCorruptionAndFallsBack) {
  const std::string root = FreshRoot("fuzz");
  {
    auto engine = MakeEngine(root);
    ASSERT_TRUE(engine->AddEntityLive(MakeSpec(engine->kb(), "zyqfuzz")).ok());
  }
  const std::string gen2 = root + "/gen_000002";

  // Sweep every file the delta generation owns: the chained manifest, the
  // delta shard, and the INDEX_DELTA aux file.
  std::vector<std::string> targets;
  for (const auto& entry : fs::directory_iterator(gen2)) {
    targets.push_back(entry.path().string());
  }
  ASSERT_GE(targets.size(), 3u);
  bool saw_manifest = false, saw_shard = false, saw_delta = false;
  for (const std::string& target : targets) {
    const std::string name = fs::path(target).filename().string();
    saw_manifest |= name == "MANIFEST";
    saw_shard |= name.rfind("static.delta_", 0) == 0;
    saw_delta |= name.rfind(index::kIndexDeltaFilePrefix, 0) == 0;
    FuzzChainFile(gen2, target);
  }
  EXPECT_TRUE(saw_manifest);
  EXPECT_TRUE(saw_shard);
  EXPECT_TRUE(saw_delta);

  // Fallback: with the delta manifest corrupt, the generation scan and a
  // cold engine both serve the parent — never a crash, never the torn chain.
  const std::string manifest = gen2 + "/MANIFEST";
  const std::string pristine = ReadAll(manifest);
  std::string flipped = pristine;
  flipped[pristine.size() / 2] ^= 0x40;
  WriteAll(manifest, flipped);
  int64_t generation = -7;
  auto fallback = store::OpenNewestGeneration(root, &generation);
  ASSERT_TRUE(fallback.ok()) << fallback.status().ToString();
  EXPECT_EQ(generation, 1);
  auto engine = MakeEngine(root);
  EXPECT_EQ(engine->store_generation(), 1);
  EXPECT_EQ(engine->induced_entities(), 0);
  EXPECT_EQ(engine->kb().num_entities(),
            GetIndexWorld().world.kb.num_entities());

  // Restoring the manifest restores the chain.
  WriteAll(manifest, pristine);
  ASSERT_TRUE(engine->Reload().ok());
  EXPECT_EQ(engine->store_generation(), 2);
  EXPECT_EQ(engine->induced_entities(), 1);
}

// --- Compaction ---------------------------------------------------------------

TEST(LiveIndexTest, CompactFoldsChainIntoFlatBitIdenticalGeneration) {
  const std::string root = FreshRoot("compact");
  auto engine = MakeEngine(root);
  ASSERT_TRUE(engine->AddEntityLive(MakeSpec(engine->kb(), "zyqone")).ok());
  ASSERT_TRUE(engine->AddEntityLive(MakeSpec(engine->kb(), "zyqtwo")).ok());
  ASSERT_EQ(engine->store_generation(), 3);

  const std::vector<data::SentenceExample> examples = DevExamples();
  std::vector<const data::SentenceExample*> batch;
  for (const data::SentenceExample& ex : examples) batch.push_back(&ex);
  core::BootlegModel::InferenceScratch scratch;
  const auto before = engine->PredictExamples(batch, &scratch);

  index::CompactResult result;
  const util::Status st = index::Compact(root, &result);
  ASSERT_TRUE(st.ok()) << st.ToString();
  EXPECT_FALSE(result.already_flat);
  EXPECT_EQ(result.source_generation, 3);
  EXPECT_EQ(result.generation, 4);
  EXPECT_GT(result.files_copied, 0);

  // Byte-level equivalence: every row of the flat generation matches the
  // chain tip exactly (payload CRCs carry over on the copied shards).
  auto chain = store::EmbeddingStore::Open(root + "/gen_000003");
  auto flat = store::EmbeddingStore::Open(result.dir);
  ASSERT_TRUE(chain.ok());
  ASSERT_TRUE(flat.ok());
  ASSERT_TRUE(flat.value()->Verify().ok());
  auto chain_view = chain.value()->View("static");
  auto flat_view = flat.value()->View("static");
  ASSERT_TRUE(chain_view.ok());
  ASSERT_TRUE(flat_view.ok());
  ASSERT_EQ(flat_view.value()->rows(), chain_view.value()->rows());
  ASSERT_EQ(flat_view.value()->cols(), chain_view.value()->cols());
  const int64_t cols = chain_view.value()->cols();
  std::vector<float> want(static_cast<size_t>(cols));
  std::vector<float> got(static_cast<size_t>(cols));
  for (int64_t r = 0; r < chain_view.value()->rows(); ++r) {
    chain_view.value()->GatherRows(&r, 1, want.data());
    flat_view.value()->GatherRows(&r, 1, got.data());
    ASSERT_EQ(std::memcmp(want.data(), got.data(),
                          static_cast<size_t>(cols) * sizeof(float)),
              0)
        << "row " << r;
  }

  // The serving engine adopts the flat generation and nothing moves: same
  // predictions, both live-added entities still resolve.
  ASSERT_TRUE(engine->Reload().ok());
  EXPECT_EQ(engine->store_generation(), 4);
  EXPECT_EQ(engine->induced_entities(), 2);
  const auto after = engine->PredictExamples(batch, &scratch);
  EXPECT_EQ(after, before);
  std::vector<serve::SentenceResult> served =
      engine->Disambiguate({"zyqone met zyqtwo"}, &scratch);
  int resolved = 0;
  for (const serve::ServedMention& m : served[0].mentions) {
    if (m.alias == "zyqone" || m.alias == "zyqtwo") {
      EXPECT_EQ(m.title, m.alias);
      ++resolved;
    }
  }
  EXPECT_EQ(resolved, 2);

  // A cold engine on the compacted root replays the merged aux files to the
  // same KB state.
  auto cold = MakeEngine(root);
  EXPECT_EQ(cold->store_generation(), 4);
  EXPECT_EQ(cold->induced_entities(), 2);
  EXPECT_EQ(cold->kb().num_entities(), engine->kb().num_entities());

  // Compacting a flat tip is a no-op.
  index::CompactResult again;
  ASSERT_TRUE(index::Compact(root, &again).ok());
  EXPECT_TRUE(again.already_flat);
  EXPECT_EQ(again.generation, 4);
}

// The --compact_chain_depth watermark folds the delta chain flat in-process:
// once the adopted generation carries that many aux files, the engine runs
// index::Compact and adopts the flat result before returning from the
// mutation. Serving never pauses and predictions never move.
TEST(LiveIndexTest, AutoCompactionFiresAtWatermarkAndKeepsServing) {
  const std::string root = FreshRoot("autocompact");
  const IndexWorld& iw = GetIndexWorld();
  serve::EngineOptions options;
  options.data_dir = iw.data_dir;
  options.model_path = iw.model_path;
  options.store_dir = root;
  options.compact_chain_depth = 2;
  auto created = serve::InferenceEngine::Create(options);
  ASSERT_TRUE(created.ok()) << created.status().ToString();
  auto engine = std::move(created.value());
  EXPECT_EQ(engine->auto_compactions(), 0);

  const std::vector<data::SentenceExample> examples = DevExamples();
  std::vector<const data::SentenceExample*> batch;
  for (const data::SentenceExample& ex : examples) batch.push_back(&ex);
  core::BootlegModel::InferenceScratch scratch;
  const auto before = engine->PredictExamples(batch, &scratch);

  // Depth 1 stays below the watermark: plain chained generation.
  ASSERT_TRUE(engine->AddEntityLive(MakeSpec(engine->kb(), "zyqautoa")).ok());
  EXPECT_EQ(engine->auto_compactions(), 0);
  EXPECT_EQ(engine->store_generation(), 2);

  // Depth 2 hits the watermark: the mutation returns with the chain already
  // folded into a new flat generation (3 -> compacted 4).
  ASSERT_TRUE(engine->AddEntityLive(MakeSpec(engine->kb(), "zyqautob")).ok());
  EXPECT_EQ(engine->auto_compactions(), 1);
  EXPECT_EQ(engine->store_generation(), 4);

  // The adopted tip is flat: a manual compaction finds nothing to fold.
  index::CompactResult manual;
  ASSERT_TRUE(index::Compact(root, &manual).ok());
  EXPECT_TRUE(manual.already_flat);

  // Both induced entities serve and pre-existing replies are bit-identical.
  EXPECT_EQ(engine->induced_entities(), 2);
  std::vector<serve::SentenceResult> served =
      engine->Disambiguate({"zyqautoa met zyqautob"}, &scratch);
  int resolved = 0;
  for (const serve::ServedMention& m : served[0].mentions) {
    if (m.alias == "zyqautoa" || m.alias == "zyqautob") {
      EXPECT_EQ(m.title, m.alias);
      ++resolved;
    }
  }
  EXPECT_EQ(resolved, 2);
  EXPECT_EQ(engine->PredictExamples(batch, &scratch), before);

  // Past the watermark every further delta folds right after adoption (the
  // aux-file count survives compaction, so each new delta re-crosses it).
  ASSERT_TRUE(engine->AddEntityLive(MakeSpec(engine->kb(), "zyqautoc")).ok());
  EXPECT_EQ(engine->auto_compactions(), 2);
  EXPECT_EQ(engine->induced_entities(), 3);

  // A cold engine on the compacted root replays to the same state.
  auto cold = MakeEngine(root);
  EXPECT_EQ(cold->induced_entities(), 3);
  EXPECT_EQ(cold->kb().num_entities(), engine->kb().num_entities());
}

// --- The add_entity protocol op -----------------------------------------------

struct IndexServerUnderTest {
  std::unique_ptr<serve::InferenceEngine> engine;
  serve::ServerCounters counters;
  obs::LatencyHistogram latency;
  core::BootlegModel::InferenceScratch scratch;
  std::unique_ptr<serve::MicroBatcher> batcher;
  std::unique_ptr<serve::Server> server;

  explicit IndexServerUnderTest(const std::string& store_dir) {
    engine = MakeEngine(store_dir);
    batcher = std::make_unique<serve::MicroBatcher>(
        serve::BatcherOptions{},
        [this](const std::vector<serve::BatchItem>& items, int) {
          return engine->DisambiguateBatch(items, &scratch);
        },
        [this] { return engine->Reload(); }, &counters);
    server = std::make_unique<serve::Server>(engine.get(), batcher.get(),
                                             &counters, &latency);
  }
  ~IndexServerUnderTest() {
    server->Stop();
    batcher->Shutdown();
  }
};

serve::Json ParseReply(const std::string& reply) {
  util::StatusOr<serve::Json> parsed = serve::Json::Parse(reply);
  BOOTLEG_CHECK_MSG(parsed.ok(), "reply not JSON: " + reply);
  return std::move(parsed.value());
}

TEST(LiveIndexServerTest, AddEntityOpServesNewEntityEndToEnd) {
  IndexServerUnderTest sut(FreshRoot("server_add"));
  const kb::KnowledgeBase& kb = sut.engine->kb();
  const index::DeltaEntity spec = MakeSpec(kb, "zyqserver");

  serve::Json request = serve::Json::Object();
  request.Set("op", serve::Json::Str("add_entity"));
  request.Set("title", serve::Json::Str(spec.title));
  request.Set("coarse", serve::Json::Str(kb::CoarseTypeName(spec.coarse)));
  serve::Json types = serve::Json::Array();
  for (const kb::TypeId t : spec.types) {
    types.Append(serve::Json::Str(kb.type(t).name));
  }
  request.Set("types", std::move(types));
  serve::Json relations = serve::Json::Array();
  for (const index::DeltaTriple& t : spec.triples) {
    serve::Json edge = serve::Json::Object();
    edge.Set("relation", serve::Json::Str(kb.relation(t.relation).name));
    edge.Set("object", serve::Json::Str(kb.entity(t.object).title));
    relations.Append(std::move(edge));
  }
  request.Set("relations", std::move(relations));

  const serve::Json reply = ParseReply(sut.server->HandleLine(request.Dump()));
  ASSERT_NE(reply.Find("ok"), nullptr);
  ASSERT_TRUE(reply.Find("ok")->bool_value()) << reply.Dump();
  EXPECT_EQ(reply.GetNumber("generation"), 2.0);
  EXPECT_EQ(reply.GetNumber("induced_entities"), 1.0);

  // The entity is immediately servable through the normal protocol path.
  const serve::Json served = ParseReply(sut.server->HandleLine(
      R"({"op":"disambiguate","text":"we saw zyqserver again"})"));
  ASSERT_TRUE(served.Find("ok")->bool_value()) << served.Dump();
  bool found = false;
  for (const serve::Json& m : served.Find("mentions")->array_items()) {
    if (m.GetString("alias") == "zyqserver") {
      found = true;
      EXPECT_EQ(m.GetString("title"), "zyqserver");
    }
  }
  EXPECT_TRUE(found);

  // Stats surface the induction counters.
  const serve::Json stats =
      ParseReply(sut.server->HandleLine(R"({"op":"stats"})"));
  const serve::Json* store = stats.Find("store");
  ASSERT_NE(store, nullptr);
  EXPECT_EQ(store->GetNumber("generation"), 2.0);
  EXPECT_EQ(store->GetNumber("induced_entities"), 1.0);

  // Re-adding the same title is a structured client error, not a crash.
  const serve::Json dup = ParseReply(sut.server->HandleLine(request.Dump()));
  EXPECT_FALSE(dup.Find("ok")->bool_value());
  EXPECT_EQ(dup.GetString("code"), "bad_request");
}

TEST(LiveIndexServerTest, AddEntityOpRejectsBadSpecsAndNonLoopbackPeers) {
  IndexServerUnderTest sut(FreshRoot("server_reject"));

  // Malformed specs: structured bad_request replies.
  for (const std::string line : {
           R"({"op":"add_entity"})",                          // no title
           R"({"op":"add_entity","title":7})",                // wrong type
           R"({"op":"add_entity","title":"x","coarse":"q"})", // unknown coarse
           R"({"op":"add_entity","title":"x","types":["zz_no_such_type"]})",
           R"({"op":"add_entity","title":"x","relations":[{"relation":"zz","object":"y"}]})",
           R"({"op":"add_entity","title":"x","gender":"banana"})",
       }) {
    const serve::Json reply = ParseReply(sut.server->HandleLine(line));
    ASSERT_NE(reply.Find("ok"), nullptr) << line;
    EXPECT_FALSE(reply.Find("ok")->bool_value()) << line;
    EXPECT_EQ(reply.GetString("code"), "bad_request") << line;
  }
  EXPECT_EQ(sut.engine->store_generation(), 1);  // nothing published

  // A non-loopback peer cannot mutate the index, however valid the spec.
  net::PeerInfo remote;
  remote.loopback = false;
  remote.address = "203.0.113.9";
  std::promise<std::string> promise;
  std::future<std::string> future = promise.get_future();
  sut.server->HandleLineFrom(
      R"({"op":"add_entity","title":"zyqremote"})", remote,
      [&promise](std::string reply) { promise.set_value(std::move(reply)); });
  const serve::Json denied = ParseReply(future.get());
  EXPECT_FALSE(denied.Find("ok")->bool_value());
  EXPECT_EQ(denied.GetString("code"), "forbidden");
  EXPECT_EQ(sut.engine->store_generation(), 1);

  // The same peer may still read.
  std::promise<std::string> read_promise;
  std::future<std::string> read_future = read_promise.get_future();
  sut.server->HandleLineFrom(
      R"({"op":"health"})", remote,
      [&read_promise](std::string reply) {
        read_promise.set_value(std::move(reply));
      });
  EXPECT_TRUE(ParseReply(read_future.get()).Find("ok")->bool_value());
}

TEST(LiveIndexServerTest, AddEntityOpRejectsWronglyTypedOptionalFields) {
  IndexServerUnderTest sut(FreshRoot("server_strict"));

  // A present field of the wrong JSON type is a bad_request naming the
  // field, never a silent default (prior 0.5, "miscellaneous", "n").
  const std::vector<std::pair<std::string, std::string>> cases = {
      {R"({"op":"add_entity","title":"zyqstrict","aliases":[{"alias":"zyqstrict","prior":"0.3"}]})",
       "\"prior\" of alias \"zyqstrict\" must be a number"},
      {R"({"op":"add_entity","title":"zyqstrict","aliases":[{"alias":"zyqstrict","prior":null}]})",
       "\"prior\" of alias \"zyqstrict\" must be a number"},
      {R"({"op":"add_entity","title":"zyqstrict","coarse":7})",
       "\"coarse\" must be a coarse type name"},
      {R"({"op":"add_entity","title":"zyqstrict","gender":true})",
       "\"gender\" must be \"m\", \"f\" or \"n\""},
  };
  for (const auto& [line, error] : cases) {
    const serve::Json reply = ParseReply(sut.server->HandleLine(line));
    ASSERT_NE(reply.Find("ok"), nullptr) << line;
    EXPECT_FALSE(reply.Find("ok")->bool_value()) << line;
    EXPECT_EQ(reply.GetString("code"), "bad_request") << line;
    EXPECT_EQ(reply.GetString("error"), error) << line;
  }
  EXPECT_EQ(sut.engine->store_generation(), 1);  // nothing published
  EXPECT_EQ(sut.counters.errors.load(), static_cast<int64_t>(cases.size()));

  // The well-typed spec goes through.
  const serve::Json added = ParseReply(sut.server->HandleLine(
      R"({"op":"add_entity","title":"zyqstrict","coarse":"person","gender":"f","aliases":[{"alias":"zyqstrict","prior":0.3}]})"));
  EXPECT_TRUE(added.Find("ok")->bool_value()) << added.Dump();
  EXPECT_EQ(sut.engine->store_generation(), 2);
}

// Two connections adding entities at once: each spec's type, relation and
// object names resolve against the KB that the other's add rewrites, so the
// resolution must run in the exclusive lane too (TSan reports it otherwise).
TEST(LiveIndexServerTest, ConcurrentAddsResolveNamesWhileTheKbIsRewritten) {
  IndexServerUnderTest sut(FreshRoot("server_concurrent_adds"));
  const int64_t base = sut.engine->kb().num_entities();
  const index::DeltaEntity shape = MakeSpec(sut.engine->kb(), "unused");
  ASSERT_FALSE(shape.types.empty());
  ASSERT_FALSE(shape.triples.empty());
  serve::Json types = serve::Json::Array();
  for (const kb::TypeId t : shape.types) {
    types.Append(serve::Json::Str(sut.engine->kb().type(t).name));
  }
  serve::Json relations = serve::Json::Array();
  for (const index::DeltaTriple& t : shape.triples) {
    serve::Json edge = serve::Json::Object();
    edge.Set("relation",
             serve::Json::Str(sut.engine->kb().relation(t.relation).name));
    edge.Set("object", serve::Json::Str(sut.engine->kb().entity(t.object).title));
    relations.Append(std::move(edge));
  }

  constexpr int kThreads = 2;
  constexpr int kAddsPerThread = 20;
  net::PeerInfo loopback;
  loopback.loopback = true;
  loopback.address = "127.0.0.1";
  std::atomic<int> added{0};
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      for (int i = 0; i < kAddsPerThread; ++i) {
        serve::Json request = serve::Json::Object();
        request.Set("op", serve::Json::Str("add_entity"));
        request.Set("title", serve::Json::Str("zyqrace" + std::to_string(t) +
                                              "x" + std::to_string(i)));
        request.Set("types", types);
        request.Set("relations", relations);
        std::promise<std::string> promise;
        std::future<std::string> future = promise.get_future();
        sut.server->HandleLineFrom(
            request.Dump(), loopback,
            [&promise](std::string reply) { promise.set_value(std::move(reply)); });
        const serve::Json reply = ParseReply(future.get());
        if (reply.Find("ok") != nullptr && reply.Find("ok")->bool_value()) {
          added.fetch_add(1);
        }
      }
    });
  }
  for (std::thread& t : threads) t.join();

  EXPECT_EQ(added.load(), kThreads * kAddsPerThread);
  EXPECT_EQ(sut.engine->induced_entities(), kThreads * kAddsPerThread);
  EXPECT_EQ(sut.engine->store_generation(), 1 + kThreads * kAddsPerThread);
  ASSERT_EQ(sut.engine->kb().num_entities(), base + kThreads * kAddsPerThread);
  for (int t = 0; t < kThreads; ++t) {
    const kb::EntityId e = sut.engine->kb().FindByTitle(
        "zyqrace" + std::to_string(t) + "x" + std::to_string(kAddsPerThread - 1));
    ASSERT_NE(e, kb::kInvalidId);
    EXPECT_EQ(sut.engine->kb().entity(e).types, shape.types);
  }
}

}  // namespace
}  // namespace bootleg
