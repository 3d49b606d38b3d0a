// Crash-safe checkpointing: mid-run snapshot + resume must be bit-identical
// to the uninterrupted run at the same thread count (whether or not the
// resumed run writes checkpoints itself), recovery must skip torn and
// corrupt checkpoint files, retain-K pruning must keep the newest snapshots,
// and the fault-injection layer must leave exactly the artifacts a real
// crash would.

#include <cstdint>
#include <filesystem>
#include <fstream>
#include <memory>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "core/checkpoint.h"
#include "core/model.h"
#include "core/model_loader.h"
#include "core/trainer.h"
#include "data/generator.h"
#include "data/weak_label.h"
#include "data/world.h"
#include "nn/optimizer.h"
#include "nn/param_store.h"
#include "tensor/autograd.h"
#include "util/io.h"
#include "util/rng.h"
#include "util/thread_pool.h"

namespace bootleg {
namespace {

namespace fs = std::filesystem;

/// A tensor's floats as a vector, for whole-tensor equality checks.
std::vector<float> Values(const tensor::Tensor& t) {
  return {t.data(), t.data() + t.numel()};
}
using tensor::Tensor;
using tensor::Var;
using util::ThreadPool;

std::string TestDir(const std::string& name) {
  const std::string dir =
      (fs::temp_directory_path() / ("bootleg_ckpt_test_" + name)).string();
  fs::remove_all(dir);
  fs::create_directories(dir);
  return dir;
}

// --- RNG state serialization -------------------------------------------------

TEST(RngStateTest, SerializeDeserializeReplaysExactStream) {
  util::Rng a(1234);
  // Advance past the seed so the state is mid-stream.
  for (int i = 0; i < 100; ++i) a.UniformInt(0, 1 << 20);
  const std::string state = a.SerializeState();

  util::Rng b(999);
  ASSERT_TRUE(b.DeserializeState(state));
  for (int i = 0; i < 100; ++i) {
    EXPECT_EQ(a.UniformInt(0, 1 << 30), b.UniformInt(0, 1 << 30));
  }
}

TEST(RngStateTest, DeserializeRejectsMalformedState) {
  util::Rng r(1);
  EXPECT_FALSE(r.DeserializeState("not a generator state"));
}

// --- Adam state roundtrip ----------------------------------------------------

// Two stores with identical layout+init; drives both with the same gradient,
// checkpoints one optimizer into the other, and verifies the next step lands
// both on bit-identical parameters.
TEST(AdamStateTest, SaveLoadRoundtripContinuesBitIdentically) {
  const std::string dir = TestDir("adam");
  auto make_store = [](nn::ParameterStore* store) {
    util::Rng rng(77);
    store->CreateParam("w", Tensor::Randn({4, 3}, &rng));
    store->CreateParam("b", Tensor::Randn({3}, &rng));
    store->CreateEmbedding("emb", 6, 3, &rng);
  };
  nn::ParameterStore s1, s2;
  make_store(&s1);
  make_store(&s2);
  nn::Adam a1(&s1, {});

  const auto drive = [](nn::ParameterStore* store, nn::Adam* adam, int seed) {
    util::Rng rng(static_cast<uint64_t>(seed));
    const Tensor x = Tensor::Randn({2, 4}, &rng);
    Var h = tensor::MatMul(Var::Constant(x), store->GetParam("w"));
    Var e = store->GetEmbedding("emb")->Lookup({1, 4});
    tensor::Backward(tensor::Add(tensor::Sum(h), tensor::Sum(e)));
    tensor::Backward(tensor::Sum(store->GetParam("b")));
    adam->Step();
  };
  drive(&s1, &a1, 5);
  drive(&s1, &a1, 6);

  const std::string path = dir + "/adam.bin";
  {
    util::AtomicFileWriter atomic(path);
    util::BinaryWriter w(atomic.temp_path());
    a1.SaveState(&w);
    ASSERT_TRUE(w.Finish().ok());
    ASSERT_TRUE(atomic.Commit().ok());
  }

  // Catch s2's parameters up to s1 (two identical driven steps), then load
  // the optimizer state and take one more identical step on each side.
  nn::Adam a2(&s2, {});
  drive(&s2, &a2, 5);
  drive(&s2, &a2, 6);
  nn::Adam a2_fresh(&s2, {});  // moments zeroed: must be fully restored
  {
    util::BinaryReader r(path);
    ASSERT_TRUE(a2_fresh.LoadState(&r).ok());
  }
  EXPECT_EQ(a2_fresh.step_count(), a1.step_count());
  drive(&s1, &a1, 7);
  drive(&s2, &a2_fresh, 7);
  for (const std::string& name : {"w", "b"}) {
    EXPECT_EQ(Values(s1.GetParam(name).value()),
              Values(s2.GetParam(name).value()))
        << name;
  }
  EXPECT_EQ(Values(s1.GetEmbedding("emb")->table()),
            Values(s2.GetEmbedding("emb")->table()));
}

TEST(AdamStateTest, LoadRejectsMismatchedLayout) {
  util::Rng rng(3);
  nn::ParameterStore s1;
  s1.CreateParam("w", Tensor::Randn({2, 2}, &rng));
  nn::Adam a1(&s1, {});
  const std::string path = TestDir("adam_mismatch") + "/adam.bin";
  {
    util::AtomicFileWriter atomic(path);
    util::BinaryWriter w(atomic.temp_path());
    a1.SaveState(&w);
    ASSERT_TRUE(w.Finish().ok());
    ASSERT_TRUE(atomic.Commit().ok());
  }
  nn::ParameterStore s2;
  s2.CreateParam("other", Tensor::Randn({2, 2}, &rng));
  nn::Adam a2(&s2, {});
  util::BinaryReader r(path);
  const util::Status st = a2.LoadState(&r);
  EXPECT_FALSE(st.ok());
  EXPECT_EQ(st.code(), util::StatusCode::kCorruption);
}

// --- Checkpoint files --------------------------------------------------------

TEST(CheckpointFileTest, ListCheckpointsIgnoresTempAndForeignFiles) {
  const std::string dir = TestDir("list");
  for (const char* name :
       {"ckpt_5.bin", "ckpt_12.bin", "ckpt_7.bin.tmp", "ckpt_x.bin",
        "MANIFEST", "other.bin"}) {
    std::ofstream(dir + "/" + name) << "x";
  }
  const auto found = core::ListCheckpoints(dir);
  ASSERT_EQ(found.size(), 2u);
  EXPECT_EQ(found[0].first, 12);  // newest first
  EXPECT_EQ(found[1].first, 5);
}

TEST(CheckpointFileTest, WriteReadRoundtripAndRetainPruning) {
  const std::string dir = TestDir("roundtrip");
  util::Rng rng(11);
  nn::ParameterStore store;
  store.CreateParam("w", Tensor::Randn({3, 3}, &rng));
  store.CreateEmbedding("emb", 4, 2, &rng);
  nn::Adam adam(&store, {});

  core::TrainerState state;
  state.epoch = 1;
  state.cursor = 16;
  state.steps = 0;
  state.sentences_seen = 48;
  state.window_loss = 2.5;
  state.window_count = 9;
  state.nthreads = 2;
  state.master_rng = util::Rng(1).SerializeState();
  state.worker_rngs = {util::Rng(2).SerializeState(),
                       util::Rng(3).SerializeState()};
  state.order = {3, 1, 0, 2};

  for (int64_t step : {4, 8, 12, 16}) {
    state.steps = step;
    ASSERT_TRUE(
        core::WriteCheckpoint(dir, state, store, adam, /*retain=*/2).ok());
  }
  const auto kept = core::ListCheckpoints(dir);
  ASSERT_EQ(kept.size(), 2u);
  EXPECT_EQ(kept[0].first, 16);
  EXPECT_EQ(kept[1].first, 12);
  const auto manifest = util::ReadTextFile(dir + "/MANIFEST");
  ASSERT_TRUE(manifest.ok());
  EXPECT_EQ(manifest.value(), "ckpt_16.bin\nckpt_12.bin\n");

  nn::ParameterStore loaded_store;
  loaded_store.CreateParam("w", Tensor::Zeros({3, 3}));
  util::Rng zrng(99);
  loaded_store.CreateEmbedding("emb", 4, 2, &zrng);
  nn::Adam loaded_adam(&loaded_store, {});
  core::TrainerState loaded;
  ASSERT_TRUE(core::ReadCheckpoint(core::CheckpointPath(dir, 16), &loaded,
                                   &loaded_store, &loaded_adam)
                  .ok());
  EXPECT_EQ(loaded.epoch, 1);
  EXPECT_EQ(loaded.cursor, 16);
  EXPECT_EQ(loaded.steps, 16);
  EXPECT_EQ(loaded.sentences_seen, 48);
  EXPECT_EQ(loaded.window_loss, 2.5);
  EXPECT_EQ(loaded.window_count, 9);
  EXPECT_EQ(loaded.nthreads, 2);
  EXPECT_EQ(loaded.master_rng, state.master_rng);
  EXPECT_EQ(loaded.worker_rngs, state.worker_rngs);
  EXPECT_EQ(loaded.order, state.order);
  EXPECT_EQ(Values(loaded_store.GetParam("w").value()),
            Values(store.GetParam("w").value()));
}

TEST(CheckpointFileTest, RecoverySkipsCorruptNewestCheckpoint) {
  const std::string dir = TestDir("recover");
  util::Rng rng(21);
  nn::ParameterStore store;
  store.CreateParam("w", Tensor::Randn({2, 2}, &rng));
  nn::Adam adam(&store, {});
  core::TrainerState state;
  state.nthreads = 1;
  state.master_rng = util::Rng(1).SerializeState();
  state.worker_rngs = {util::Rng(2).SerializeState()};
  state.order = {0, 1};
  state.steps = 3;
  ASSERT_TRUE(core::WriteCheckpoint(dir, state, store, adam, 3).ok());

  // A newer checkpoint torn mid-write, plus a stray temp file.
  std::ofstream(core::CheckpointPath(dir, 9), std::ios::binary)
      << "\xcc\x1e\x07\xb0partial";
  std::ofstream(dir + "/ckpt_11.bin.tmp", std::ios::binary) << "torn";

  core::TrainerState recovered;
  const auto rec =
      core::RecoverLatestCheckpoint(dir, &recovered, &store, &adam, nullptr);
  EXPECT_TRUE(rec.resumed);
  EXPECT_EQ(rec.step, 3);
  EXPECT_EQ(recovered.order, state.order);
}

// --- Fault injection and atomic replace --------------------------------------

TEST(FaultInjectionTest, TruncatedWriteLeavesTornTempAndNoCanonicalFile) {
  const std::string dir = TestDir("fault_truncate");
  const std::string path = dir + "/store.bin";
  util::Rng rng(31);
  nn::ParameterStore store;
  store.CreateParam("w", Tensor::Randn({16, 16}, &rng));

  util::FaultInjector::Plan plan;
  plan.fail_after_bytes = 100;
  util::FaultInjector::Arm(plan);
  const util::Status st = store.Save(path);
  EXPECT_FALSE(st.ok());
  EXPECT_TRUE(util::FaultInjector::crash_simulated());
  util::FaultInjector::Disarm();

  EXPECT_FALSE(fs::exists(path));             // never became canonical
  ASSERT_TRUE(fs::exists(path + ".tmp"));     // torn artifact, as a kill leaves
  EXPECT_EQ(fs::file_size(path + ".tmp"), 100u);

  nn::ParameterStore loaded;
  loaded.CreateParam("w", Tensor::Zeros({16, 16}));
  const util::Status load = loaded.Load(path + ".tmp");
  EXPECT_FALSE(load.ok());
  EXPECT_EQ(load.code(), util::StatusCode::kCorruption);
}

TEST(FaultInjectionTest, CommitFailureLeavesOldFileIntact) {
  const std::string dir = TestDir("fault_commit");
  const std::string path = dir + "/store.bin";
  util::Rng rng(41);
  nn::ParameterStore old_store;
  old_store.CreateParam("w", Tensor::Randn({4, 4}, &rng));
  ASSERT_TRUE(old_store.Save(path).ok());

  nn::ParameterStore new_store;
  new_store.CreateParam("w", Tensor::Randn({4, 4}, &rng));
  util::FaultInjector::Plan plan;
  plan.fail_commit = true;
  util::FaultInjector::Arm(plan);
  EXPECT_FALSE(new_store.Save(path).ok());
  util::FaultInjector::Disarm();

  // The canonical path still loads the old contents.
  nn::ParameterStore loaded;
  loaded.CreateParam("w", Tensor::Zeros({4, 4}));
  ASSERT_TRUE(loaded.Load(path).ok());
  EXPECT_EQ(Values(loaded.GetParam("w").value()),
            Values(old_store.GetParam("w").value()));
}

TEST(FaultInjectionTest, ByteFlipIsCaughtBySectionChecksum) {
  const std::string dir = TestDir("fault_flip");
  const std::string path = dir + "/store.bin";
  util::Rng rng(51);
  nn::ParameterStore store;
  store.CreateParam("w", Tensor::Randn({8, 8}, &rng));

  util::FaultInjector::Plan plan;
  plan.flip_byte_at = 64;  // inside the first section's payload
  plan.flip_mask = 0x20;
  util::FaultInjector::Arm(plan);
  ASSERT_TRUE(store.Save(path).ok());  // flip is silent, like bad media
  util::FaultInjector::Disarm();

  nn::ParameterStore loaded;
  loaded.CreateParam("w", Tensor::Zeros({8, 8}));
  const util::Status st = loaded.Load(path);
  EXPECT_FALSE(st.ok());
  EXPECT_EQ(st.code(), util::StatusCode::kCorruption);
}

// --- User model files ----------------------------------------------------------

std::string FileBytes(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  return std::string(std::istreambuf_iterator<char>(in),
                     std::istreambuf_iterator<char>());
}

TEST(ModelFileTest, MismatchedMetaFailsAndKeepsTheModelFile) {
  data::SynthConfig config = data::SynthConfig::MicroScale();
  config.num_entities = 60;
  config.num_pages = 10;
  const data::SynthWorld world = data::BuildWorld(config);
  const std::string dir = TestDir("model_file");
  const std::string path = dir + "/m.bin";
  core::BootlegModel full(&world.kb, world.vocab.size(),
                          *core::AblationPreset("full"), /*seed=*/3);
  ASSERT_TRUE(full.store().Save(path).ok());
  const std::string saved = FileBytes(path);

  // A sidecar naming another preset than the snapshot was trained with.
  ASSERT_TRUE(util::WriteTextFile(path + ".meta", "ent\n").ok());
  const auto mismatched =
      core::LoadModelFile(&world.kb, world.vocab.size(), path);
  EXPECT_FALSE(mismatched.ok());
  ASSERT_TRUE(fs::exists(path));
  EXPECT_EQ(FileBytes(path), saved);

  ASSERT_TRUE(util::WriteTextFile(path + ".meta", "full\n").ok());
  const auto loaded = core::LoadModelFile(&world.kb, world.vocab.size(), path);
  ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();
  const std::string name = full.store().param_names().front();
  EXPECT_EQ(Values(loaded.value()->store().GetParam(name).value()),
            Values(full.store().GetParam(name).value()));

  // A missing file is not corruption: nothing to invalidate.
  nn::ParameterStore& store = loaded.value()->store();
  EXPECT_NE(core::LoadSnapshotOrInvalidate(dir + "/missing.bin", &store).code(),
            util::StatusCode::kCorruption);
  // A truncated snapshot is: the rebuildable cache file is deleted.
  const std::string torn = dir + "/torn.bin";
  {
    std::ofstream out(torn, std::ios::binary);
    out << saved.substr(0, saved.size() / 2);
  }
  EXPECT_EQ(core::LoadSnapshotOrInvalidate(torn, &store).code(),
            util::StatusCode::kCorruption);
  EXPECT_FALSE(fs::exists(torn));
}

// --- Resume equivalence ------------------------------------------------------

class CheckpointTrainTest : public ::testing::Test {
 protected:
  CheckpointTrainTest() {
    ::unsetenv("BOOTLEG_THREADS");
    data::SynthConfig config = data::SynthConfig::MicroScale();
    config.num_entities = 200;
    config.num_pages = 50;
    world_ = data::BuildWorld(config);
    data::CorpusGenerator generator(&world_);
    corpus_ = generator.Generate();
    data::ApplyWeakLabeling(world_.kb, &corpus_.train);
    counts_ = data::EntityCounts::FromTraining(corpus_.train);
    data::ExampleBuilder builder(&world_.candidates, &world_.vocab);
    examples_ = builder.BuildAll(corpus_.train, data::ExampleOptions());
    examples_.resize(std::min<size_t>(examples_.size(), 40));
    model_config_.hidden = 24;
    model_config_.entity_dim = 24;
    model_config_.type_dim = 12;
    model_config_.coarse_dim = 8;
    model_config_.rel_dim = 12;
    model_config_.ff_inner = 48;
    model_config_.encoder.hidden = 24;
    model_config_.encoder.ff_inner = 48;
    model_config_.encoder.max_len = 24;
  }

  ~CheckpointTrainTest() override { ThreadPool::ResetGlobal(1); }

  std::unique_ptr<core::BootlegModel> MakeModel() {
    auto model = std::make_unique<core::BootlegModel>(
        &world_.kb, world_.vocab.size(), model_config_, 5);
    model->SetEntityCounts(&counts_);
    return model;
  }

  static std::vector<float> StoreDigest(nn::ParameterStore& store) {
    std::vector<float> out;
    for (const std::string& name : store.param_names()) {
      const tensor::Tensor& v = store.GetParam(name).value();
      out.insert(out.end(), v.data(), v.data() + v.numel());
    }
    for (const std::string& name : store.embedding_names()) {
      const tensor::Tensor& v = store.GetEmbedding(name)->table();
      out.insert(out.end(), v.data(), v.data() + v.numel());
    }
    return out;
  }

  core::TrainOptions CheckpointedOptions(const std::string& dir, int threads) {
    core::TrainOptions options;
    options.epochs = 2;
    options.num_threads = threads;
    options.checkpoint_dir = dir;
    options.checkpoint_every_steps = 2;
    return options;
  }

  // Kill-at-step-K → resume → compare against the uninterrupted run.
  void RunResumeEquivalence(int threads, int64_t kill_at_step,
                            bool corrupt_newest) {
    if (threads > 1) ThreadPool::ResetGlobal(threads);

    const std::string suffix =
        std::to_string(threads) + "_" + std::to_string(kill_at_step) +
        (corrupt_newest ? "_corrupt" : "");
    const std::string ref_dir = TestDir("ref_" + suffix);
    const std::string kill_dir = TestDir("kill_" + suffix);

    auto reference = MakeModel();
    core::Trainable<core::BootlegModel> ref_t(reference.get());
    const core::TrainStats ref_stats =
        core::Train(&ref_t, examples_, CheckpointedOptions(ref_dir, threads));
    ASSERT_GT(ref_stats.steps, kill_at_step);

    auto killed = MakeModel();
    core::Trainable<core::BootlegModel> killed_t(killed.get());
    core::TrainOptions kill_options = CheckpointedOptions(kill_dir, threads);
    kill_options.max_steps = kill_at_step;
    core::Train(&killed_t, examples_, kill_options);
    ASSERT_FALSE(core::ListCheckpoints(kill_dir).empty());

    if (corrupt_newest) {
      // Recovery must fall back to the previous snapshot and still converge
      // on the identical trajectory, just replaying more of it.
      const auto newest = core::ListCheckpoints(kill_dir).front();
      std::fstream f(newest.second,
                     std::ios::binary | std::ios::in | std::ios::out);
      f.seekp(40);
      f.put('\x7f');
    }
    // Torn temp file from a simulated crash mid-checkpoint-write: ignored.
    std::ofstream(kill_dir + "/ckpt_999.bin.tmp", std::ios::binary)
        << "partial checkpoint bytes";

    auto resumed = MakeModel();
    core::Trainable<core::BootlegModel> resumed_t(resumed.get());
    core::TrainOptions resume_options = CheckpointedOptions(kill_dir, threads);
    resume_options.resume = true;
    const core::TrainStats resumed_stats =
        core::Train(&resumed_t, examples_, resume_options);

    EXPECT_GE(resumed_stats.resumed_from_step, 0);
    EXPECT_LE(resumed_stats.resumed_from_step, kill_at_step);
    EXPECT_EQ(resumed_stats.steps, ref_stats.steps);
    EXPECT_EQ(resumed_stats.sentences_seen, ref_stats.sentences_seen);
    EXPECT_EQ(StoreDigest(resumed->store()), StoreDigest(reference->store()))
        << "resumed run diverged from uninterrupted run (threads=" << threads
        << ", killed at step " << kill_at_step << ")";
  }

  data::SynthWorld world_;
  data::Corpus corpus_;
  data::EntityCounts counts_;
  std::vector<data::SentenceExample> examples_;
  core::BootlegConfig model_config_;
};

TEST_F(CheckpointTrainTest, ResumeBitIdenticalSingleThread) {
  RunResumeEquivalence(/*threads=*/1, /*kill_at_step=*/3,
                       /*corrupt_newest=*/false);
}

TEST_F(CheckpointTrainTest, ResumeBitIdenticalFourThreads) {
  RunResumeEquivalence(/*threads=*/4, /*kill_at_step=*/3,
                       /*corrupt_newest=*/false);
}

TEST_F(CheckpointTrainTest, ResumeFallsBackPastCorruptNewestCheckpoint) {
  RunResumeEquivalence(/*threads=*/1, /*kill_at_step=*/4,
                       /*corrupt_newest=*/true);
}

TEST_F(CheckpointTrainTest, ResumeAcrossEpochBoundaryIsBitIdentical) {
  // Kill late enough that the newest checkpoint lands in the second epoch,
  // exercising the restored-epoch shuffle-skip path.
  core::TrainOptions probe = CheckpointedOptions(TestDir("probe"), 1);
  auto model = MakeModel();
  core::Trainable<core::BootlegModel> t(model.get());
  const core::TrainStats full = core::Train(&t, examples_, probe);
  ASSERT_GT(full.steps, 3);
  RunResumeEquivalence(/*threads=*/1, /*kill_at_step=*/full.steps - 1,
                       /*corrupt_newest=*/false);
}

TEST_F(CheckpointTrainTest, ResumeWithoutCheckpointEveryStillResumes) {
  // --resume must not depend on the resumed run writing checkpoints itself.
  const std::string dir = TestDir("resume_only");
  auto reference = MakeModel();
  core::Trainable<core::BootlegModel> ref_t(reference.get());
  core::TrainOptions plain = CheckpointedOptions("", 1);
  plain.checkpoint_every_steps = 0;
  const core::TrainStats ref_stats = core::Train(&ref_t, examples_, plain);

  auto killed = MakeModel();
  core::Trainable<core::BootlegModel> killed_t(killed.get());
  core::TrainOptions kill_options = CheckpointedOptions(dir, 1);
  kill_options.max_steps = 3;
  core::Train(&killed_t, examples_, kill_options);
  ASSERT_FALSE(core::ListCheckpoints(dir).empty());

  auto resumed = MakeModel();
  core::Trainable<core::BootlegModel> resumed_t(resumed.get());
  core::TrainOptions resume_options = CheckpointedOptions(dir, 1);
  resume_options.checkpoint_every_steps = 0;
  resume_options.resume = true;
  const core::TrainStats stats =
      core::Train(&resumed_t, examples_, resume_options);
  EXPECT_GE(stats.resumed_from_step, 0);
  EXPECT_EQ(stats.steps, ref_stats.steps);
  EXPECT_EQ(StoreDigest(resumed->store()), StoreDigest(reference->store()));
}

TEST_F(CheckpointTrainTest, ResumeWithEmptyDirStartsFresh) {
  const std::string dir = TestDir("fresh");
  auto a = MakeModel();
  core::Trainable<core::BootlegModel> a_t(a.get());
  core::TrainOptions options = CheckpointedOptions(dir, 1);
  options.resume = true;  // nothing to resume from
  const core::TrainStats stats = core::Train(&a_t, examples_, options);
  EXPECT_EQ(stats.resumed_from_step, -1);
  EXPECT_GT(stats.steps, 0);
}

TEST_F(CheckpointTrainTest, MismatchedThreadCountCheckpointIsSkipped) {
  const std::string dir = TestDir("mismatch");
  auto a = MakeModel();
  core::Trainable<core::BootlegModel> a_t(a.get());
  core::TrainOptions options = CheckpointedOptions(dir, 1);
  options.max_steps = 2;
  core::Train(&a_t, examples_, options);
  ASSERT_FALSE(core::ListCheckpoints(dir).empty());

  ThreadPool::ResetGlobal(2);
  auto b = MakeModel();
  core::Trainable<core::BootlegModel> b_t(b.get());
  core::TrainOptions resume_options = CheckpointedOptions(dir, 2);
  resume_options.resume = true;
  resume_options.max_steps = 1;
  const core::TrainStats stats = core::Train(&b_t, examples_, resume_options);
  // The only checkpoint was written at 1 thread: incompatible, so fresh.
  EXPECT_EQ(stats.resumed_from_step, -1);
}

TEST_F(CheckpointTrainTest, SkippedCheckpointLeavesTheStartFresh) {
  // Checkpoints written at 1 worker are incompatible with a 2-worker resume.
  // Skipping them must load none of their weights or Adam moments: the run
  // then equals a plain 2-worker run.
  const std::string dir = TestDir("skipped");
  auto a = MakeModel();
  core::Trainable<core::BootlegModel> a_t(a.get());
  core::TrainOptions options = CheckpointedOptions(dir, 1);
  options.max_steps = 4;
  core::Train(&a_t, examples_, options);
  ASSERT_FALSE(core::ListCheckpoints(dir).empty());

  ThreadPool::ResetGlobal(2);
  auto plain = MakeModel();
  core::Trainable<core::BootlegModel> plain_t(plain.get());
  core::TrainOptions plain_options = CheckpointedOptions("", 2);
  plain_options.checkpoint_every_steps = 0;
  plain_options.max_steps = 3;
  core::Train(&plain_t, examples_, plain_options);

  auto b = MakeModel();
  core::Trainable<core::BootlegModel> b_t(b.get());
  core::TrainOptions resume_options = CheckpointedOptions(dir, 2);
  resume_options.checkpoint_every_steps = 0;
  resume_options.resume = true;
  resume_options.max_steps = 3;
  const core::TrainStats stats = core::Train(&b_t, examples_, resume_options);
  EXPECT_EQ(stats.resumed_from_step, -1);
  EXPECT_EQ(StoreDigest(b->store()), StoreDigest(plain->store()));
}

}  // namespace
}  // namespace bootleg
