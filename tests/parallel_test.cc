// Serial-vs-parallel equivalence for the execution layer: thread-pool
// primitives, blocked kernels against their reference implementations and
// across thread counts, gradient-scope reduction, data-parallel training
// (deterministic per worker count, unchanged by checkpointing), and parallel
// evaluation.

#include <atomic>
#include <chrono>
#include <cstdlib>
#include <cstring>
#include <ctime>
#include <filesystem>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "core/checkpoint.h"
#include "core/model.h"
#include "core/trainer.h"
#include "data/generator.h"
#include "data/weak_label.h"
#include "data/world.h"
#include "eval/evaluator.h"
#include "nn/embedding.h"
#include "nn/param_store.h"
#include "tensor/autograd.h"
#include "tensor/tensor.h"
#include "util/rng.h"
#include "util/thread_pool.h"

namespace bootleg {
namespace {

using tensor::Tensor;
using tensor::Var;
using util::ThreadPool;

// --- ThreadPool primitives ---------------------------------------------------

TEST(ThreadPoolTest, ParallelForCoversEveryIndexExactlyOnce) {
  ThreadPool pool(4);
  std::vector<std::atomic<int>> hits(1000);
  for (auto& h : hits) h.store(0);
  pool.ParallelFor(0, 1000, /*grain=*/8, [&](int64_t lo, int64_t hi) {
    for (int64_t i = lo; i < hi; ++i) hits[static_cast<size_t>(i)]++;
  });
  for (const auto& h : hits) EXPECT_EQ(h.load(), 1);
}

TEST(ThreadPoolTest, ParallelForWorksWithSingleThreadPool) {
  ThreadPool pool(1);
  int64_t sum = 0;
  pool.ParallelFor(0, 100, 1, [&](int64_t lo, int64_t hi) {
    for (int64_t i = lo; i < hi; ++i) sum += i;
  });
  EXPECT_EQ(sum, 99 * 100 / 2);
}

TEST(ThreadPoolTest, NestedParallelForRunsInlineWithoutDeadlock) {
  ThreadPool pool(4);
  std::atomic<int> inner_total{0};
  pool.ParallelFor(0, 8, 1, [&](int64_t lo, int64_t hi) {
    for (int64_t i = lo; i < hi; ++i) {
      EXPECT_TRUE(ThreadPool::InWorker());
      // Nested dispatch must run inline on this thread, never re-enqueue.
      pool.ParallelFor(0, 10, 1,
                       [&](int64_t l, int64_t h) {
                         inner_total += static_cast<int>(h - l);
                       });
    }
  });
  EXPECT_EQ(inner_total.load(), 8 * 10);
}

TEST(ThreadPoolTest, RunWorkersRunsEveryWorkerIndex) {
  ThreadPool pool(3);
  std::vector<std::atomic<int>> ran(8);
  for (auto& r : ran) r.store(0);
  // More workers than pool threads: the caller drains the queue.
  pool.RunWorkers(8, [&](int w) { ran[static_cast<size_t>(w)]++; });
  for (const auto& r : ran) EXPECT_EQ(r.load(), 1);
}

double ThreadCpuMs() {
  timespec ts{};
  clock_gettime(CLOCK_THREAD_CPUTIME_ID, &ts);
  return static_cast<double>(ts.tv_sec) * 1e3 +
         static_cast<double>(ts.tv_nsec) / 1e6;
}

TEST(ThreadPoolTest, CallerSleepsWhileAWorkerFinishes) {
  ThreadPool pool(2);
  std::atomic<bool> taken{false};
  const double cpu_before = ThreadCpuMs();
  pool.RunWorkers(2, [&](int w) {
    if (w == 1) {
      taken.store(true);
      std::this_thread::sleep_for(std::chrono::milliseconds(50));
      return;
    }
    // Worker 0 runs on the caller: finish only once the pool thread holds
    // worker 1, so the rest of the call is the caller waiting for it.
    while (!taken.load()) {
      std::this_thread::sleep_for(std::chrono::microseconds(100));
    }
  });
  // A caller that spun until worker 1 returned would burn ~50 ms here.
  EXPECT_LT(ThreadCpuMs() - cpu_before, 10.0);
}

TEST(ThreadPoolTest, ConcurrentCallersShareOnePool) {
  // Serving batch workers are not pool threads: each dispatches its large
  // kernels onto the one global pool, possibly at the same time.
  ThreadPool pool(4);
  constexpr int64_t kN = 4096;
  constexpr int kRounds = 50;
  std::vector<std::vector<int>> hits(2, std::vector<int>(kN, 0));
  const auto dispatch = [&](size_t caller) {
    std::vector<int>& mine = hits[caller];
    for (int r = 0; r < kRounds; ++r) {
      pool.ParallelFor(0, kN, /*grain=*/64, [&mine](int64_t lo, int64_t hi) {
        for (int64_t i = lo; i < hi; ++i) ++mine[static_cast<size_t>(i)];
      });
    }
  };
  std::thread a(dispatch, 0);
  std::thread b(dispatch, 1);
  a.join();
  b.join();
  for (const std::vector<int>& mine : hits) {
    for (int h : mine) ASSERT_EQ(h, kRounds);
  }
}

TEST(ThreadPoolTest, EnvThreadsParsesEnvironment) {
  ::setenv("BOOTLEG_THREADS", "3", 1);
  EXPECT_EQ(ThreadPool::EnvThreads(), 3);
  ::setenv("BOOTLEG_THREADS", "garbage", 1);
  EXPECT_EQ(ThreadPool::EnvThreads(), 0);
  ::unsetenv("BOOTLEG_THREADS");
  EXPECT_EQ(ThreadPool::EnvThreads(), 0);
}

// --- Kernel equivalence ------------------------------------------------------

struct MatMulShape {
  int64_t m, k, n;
};

const MatMulShape kShapes[] = {
    {1, 1, 1}, {3, 5, 7}, {17, 64, 33}, {64, 128, 64}, {130, 70, 90}};

TEST(KernelEquivalenceTest, MatMulMatchesReferenceExactly) {
  util::Rng rng(7);
  for (const MatMulShape& s : kShapes) {
    const Tensor a = Tensor::Randn({s.m, s.k}, &rng);
    const Tensor b = Tensor::Randn({s.k, s.n}, &rng);
    const Tensor got = tensor::MatMul(a, b);
    const Tensor ref = tensor::MatMulReference(a, b);
    ASSERT_TRUE(got.SameShape(ref));
    // Same per-element accumulation order (ascending k) in both kernels →
    // bitwise equality, not just closeness.
    for (int64_t i = 0; i < got.numel(); ++i) {
      ASSERT_EQ(got.at(i), ref.at(i)) << "shape " << s.m << "x" << s.k << "x"
                                      << s.n << " elem " << i;
    }
  }
}

TEST(KernelEquivalenceTest, MatMulTransposedAMatchesReferenceExactly) {
  util::Rng rng(8);
  for (const MatMulShape& s : kShapes) {
    const Tensor a = Tensor::Randn({s.k, s.m}, &rng);  // Aᵀ·B: A is [k,m]
    const Tensor b = Tensor::Randn({s.k, s.n}, &rng);
    const Tensor got = tensor::MatMulTransposedA(a, b);
    const Tensor ref = tensor::MatMulTransposedAReference(a, b);
    ASSERT_TRUE(got.SameShape(ref));
    for (int64_t i = 0; i < got.numel(); ++i) {
      ASSERT_EQ(got.at(i), ref.at(i)) << "elem " << i;
    }
  }
}

TEST(KernelEquivalenceTest, MatMulTransposedBMatchesReferenceClosely) {
  util::Rng rng(9);
  for (const MatMulShape& s : kShapes) {
    const Tensor a = Tensor::Randn({s.m, s.k}, &rng);
    const Tensor b = Tensor::Randn({s.n, s.k}, &rng);  // A·Bᵀ: B is [n,k]
    const Tensor got = tensor::MatMulTransposedB(a, b);
    const Tensor ref = tensor::MatMulTransposedBReference(a, b);
    ASSERT_TRUE(got.SameShape(ref));
    // The production kernel uses multiple dot-product accumulators, so sums
    // are reassociated relative to the reference: compare with tolerance.
    for (int64_t i = 0; i < got.numel(); ++i) {
      const float tol = 1e-4f * std::max(1.0f, std::abs(ref.at(i)));
      ASSERT_NEAR(got.at(i), ref.at(i), tol) << "elem " << i;
    }
  }
}

// Bit-identical results at every thread count: the contract that lets tests
// and checkpoints ignore BOOTLEG_THREADS entirely.
TEST(KernelEquivalenceTest, KernelsBitIdenticalAcrossThreadCounts) {
  util::Rng rng(10);
  const Tensor a = Tensor::Randn({130, 96}, &rng);
  const Tensor b = Tensor::Randn({96, 140}, &rng);
  const Tensor big = Tensor::Randn({220, 200}, &rng);  // > parallel threshold
  const Tensor big2 = Tensor::Randn({220, 200}, &rng);

  ThreadPool::ResetGlobal(1);
  const Tensor mm1 = tensor::MatMul(a, b);
  const Tensor sm1 = tensor::SoftmaxRows(big);
  const Tensor add1 = tensor::Add(big, big2);
  const Tensor gelu1 = tensor::Gelu(big);

  for (int threads : {2, 3, 7}) {
    ThreadPool::ResetGlobal(threads);
    const Tensor mm = tensor::MatMul(a, b);
    const Tensor sm = tensor::SoftmaxRows(big);
    const Tensor add = tensor::Add(big, big2);
    const Tensor gelu = tensor::Gelu(big);
    EXPECT_EQ(std::memcmp(mm.data(), mm1.data(),
                          sizeof(float) * static_cast<size_t>(mm.numel())),
              0)
        << "MatMul differs at " << threads << " threads";
    EXPECT_EQ(std::memcmp(sm.data(), sm1.data(),
                          sizeof(float) * static_cast<size_t>(sm.numel())),
              0)
        << "SoftmaxRows differs at " << threads << " threads";
    EXPECT_EQ(std::memcmp(add.data(), add1.data(),
                          sizeof(float) * static_cast<size_t>(add.numel())),
              0)
        << "Add differs at " << threads << " threads";
    EXPECT_EQ(std::memcmp(gelu.data(), gelu1.data(),
                          sizeof(float) * static_cast<size_t>(gelu.numel())),
              0)
        << "Gelu differs at " << threads << " threads";
  }
  ThreadPool::ResetGlobal(1);
}

// --- GradScope reduction -----------------------------------------------------

TEST(GradScopeTest, DenseReductionMatchesDirectBackward) {
  util::Rng rng(11);
  const Tensor init = Tensor::Randn({6, 6}, &rng);
  const Tensor x = Tensor::Randn({4, 6}, &rng);

  // Direct: Backward accumulates straight into the leaf's grad.
  Var w_direct = Var::Leaf(init, /*requires_grad=*/true);
  tensor::Backward(tensor::Sum(tensor::MatMul(Var::Constant(x), w_direct)));
  ASSERT_FALSE(w_direct.grad().empty());

  // Scoped: the leaf's grad stays untouched until ReduceInto.
  Var w_scoped = Var::Leaf(init, /*requires_grad=*/true);
  tensor::GradScope scope;
  {
    tensor::GradScope::Activation act(&scope);
    tensor::Backward(tensor::Sum(tensor::MatMul(Var::Constant(x), w_scoped)));
  }
  EXPECT_TRUE(w_scoped.grad().empty());
  EXPECT_FALSE(scope.empty());
  scope.ReduceInto();
  ASSERT_FALSE(w_scoped.grad().empty());
  for (int64_t i = 0; i < w_direct.grad().numel(); ++i) {
    EXPECT_EQ(w_scoped.grad().at(i), w_direct.grad().at(i));
  }
  // Buffers are retained but zeroed: a second reduction must be a no-op.
  scope.ReduceInto();
  for (int64_t i = 0; i < w_direct.grad().numel(); ++i) {
    EXPECT_EQ(w_scoped.grad().at(i), w_direct.grad().at(i));
  }
}

TEST(GradScopeTest, SparseEmbeddingReductionMatchesDirect) {
  util::Rng rng(12);
  nn::Embedding direct("direct", 10, 4, &rng);
  nn::Embedding scoped("scoped", 10, 4, &rng);
  const std::vector<int64_t> ids = {1, 3, 1, 7};

  tensor::Backward(tensor::Sum(direct.Lookup(ids)));
  ASSERT_FALSE(direct.sparse_grads().empty());

  tensor::GradScope scope;
  {
    tensor::GradScope::Activation act(&scope);
    tensor::Backward(tensor::Sum(scoped.Lookup(ids)));
  }
  EXPECT_TRUE(scoped.sparse_grads().empty());
  scope.ReduceInto();
  ASSERT_EQ(scoped.sparse_grads().size(), direct.sparse_grads().size());
  for (const auto& [row, grad] : direct.sparse_grads()) {
    auto it = scoped.sparse_grads().find(row);
    ASSERT_NE(it, scoped.sparse_grads().end());
    EXPECT_EQ(it->second, grad);
  }
}

TEST(GradScopeTest, WorkerOrderReductionIsDeterministic) {
  util::Rng rng(13);
  const Tensor init = Tensor::Randn({4, 4}, &rng);
  Var w = Var::Leaf(init, /*requires_grad=*/true);
  std::vector<Tensor> inputs;
  for (int i = 0; i < 3; ++i) inputs.push_back(Tensor::Randn({2, 4}, &rng));

  auto run = [&]() {
    w.ZeroGrad();
    std::vector<tensor::GradScope> scopes(3);
    for (int worker = 0; worker < 3; ++worker) {
      tensor::GradScope::Activation act(&scopes[static_cast<size_t>(worker)]);
      tensor::Backward(tensor::Sum(tensor::MatMul(
          Var::Constant(inputs[static_cast<size_t>(worker)]), w)));
    }
    nn::ParameterStore::ReduceGradScopes(&scopes);
    return w.grad();
  };
  const Tensor first = run();
  const Tensor second = run();
  for (int64_t i = 0; i < first.numel(); ++i) {
    EXPECT_EQ(first.at(i), second.at(i));
  }
}

// --- Data-parallel training and evaluation ----------------------------------

class ParallelTrainTest : public ::testing::Test {
 protected:
  ParallelTrainTest() {
    ::unsetenv("BOOTLEG_THREADS");  // defaults under test must mean 1 worker
    data::SynthConfig config = data::SynthConfig::MicroScale();
    config.num_entities = 200;
    config.num_pages = 50;
    world_ = data::BuildWorld(config);
    data::CorpusGenerator generator(&world_);
    corpus_ = generator.Generate();
    data::ApplyWeakLabeling(world_.kb, &corpus_.train);
    counts_ = data::EntityCounts::FromTraining(corpus_.train);
    builder_ = std::make_unique<data::ExampleBuilder>(&world_.candidates,
                                                      &world_.vocab);
    examples_ = builder_->BuildAll(corpus_.train, data::ExampleOptions());
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

  ~ParallelTrainTest() override { ThreadPool::ResetGlobal(1); }

  std::unique_ptr<core::BootlegModel> MakeModel() {
    auto model = std::make_unique<core::BootlegModel>(
        &world_.kb, world_.vocab.size(), model_config_, 5);
    model->SetEntityCounts(&counts_);
    return model;
  }

  // Every dense parameter and embedding table, flattened: equal digests mean
  // the models ended in bit-identical states.
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

  double EvalLoss(core::BootlegModel* model) {
    double total = 0.0;
    int64_t n = 0;
    for (const auto& ex : examples_) {
      Var l = model->Loss(ex, /*train=*/false);
      if (l.defined()) {
        total += l.value().at(0);
        ++n;
      }
    }
    return n > 0 ? total / n : 0.0;
  }

  data::SynthWorld world_;
  data::Corpus corpus_;
  data::EntityCounts counts_;
  std::unique_ptr<data::ExampleBuilder> builder_;
  std::vector<data::SentenceExample> examples_;
  core::BootlegConfig model_config_;
};

TEST_F(ParallelTrainTest, SingleThreadMatchesDefaultSerialBitExactly) {
  core::TrainOptions options;
  options.epochs = 1;

  auto serial = MakeModel();
  core::Trainable<core::BootlegModel> serial_t(serial.get());
  const core::TrainStats serial_stats = core::Train(&serial_t, examples_, options);
  EXPECT_EQ(serial_stats.threads, 1);

  options.num_threads = 1;  // explicit 1 must train exactly the default
  auto one = MakeModel();
  core::Trainable<core::BootlegModel> one_t(one.get());
  const core::TrainStats one_stats = core::Train(&one_t, examples_, options);
  EXPECT_EQ(one_stats.threads, 1);
  EXPECT_EQ(one_stats.steps, serial_stats.steps);
  EXPECT_EQ(StoreDigest(one->store()), StoreDigest(serial->store()));
}

TEST_F(ParallelTrainTest, ParallelTrainingIsDeterministicForFixedThreadCount) {
  ThreadPool::ResetGlobal(3);
  core::TrainOptions options;
  options.epochs = 1;
  options.num_threads = 3;

  auto first = MakeModel();
  core::Trainable<core::BootlegModel> first_t(first.get());
  const core::TrainStats stats = core::Train(&first_t, examples_, options);
  EXPECT_EQ(stats.threads, 3);
  EXPECT_GT(stats.steps, 0);

  auto second = MakeModel();
  core::Trainable<core::BootlegModel> second_t(second.get());
  core::Train(&second_t, examples_, options);
  EXPECT_EQ(StoreDigest(first->store()), StoreDigest(second->store()));
}

TEST_F(ParallelTrainTest, CheckpointingDoesNotChangeTheTrajectory) {
  // One loop at every worker count: snapshots are taken between steps and
  // never touch the RNG streams, so a checkpointed run trains exactly the
  // model a plain run does.
  for (int threads : {1, 3}) {
    ThreadPool::ResetGlobal(threads);
    core::TrainOptions options;
    options.epochs = 2;
    options.num_threads = threads;

    auto plain = MakeModel();
    core::Trainable<core::BootlegModel> plain_t(plain.get());
    const core::TrainStats plain_stats =
        core::Train(&plain_t, examples_, options);

    const std::string dir =
        (std::filesystem::temp_directory_path() /
         ("bootleg_parallel_test_ckpt_" + std::to_string(threads)))
            .string();
    std::filesystem::remove_all(dir);
    options.checkpoint_dir = dir;
    options.checkpoint_every_steps = 2;
    auto checkpointed = MakeModel();
    core::Trainable<core::BootlegModel> checkpointed_t(checkpointed.get());
    const core::TrainStats stats =
        core::Train(&checkpointed_t, examples_, options);

    EXPECT_FALSE(core::ListCheckpoints(dir).empty());
    EXPECT_EQ(stats.steps, plain_stats.steps);
    EXPECT_EQ(StoreDigest(checkpointed->store()), StoreDigest(plain->store()))
        << "checkpointing changed the trajectory at " << threads << " workers";
    std::filesystem::remove_all(dir);
  }
}

TEST_F(ParallelTrainTest, ParallelTrainingReducesLoss) {
  ThreadPool::ResetGlobal(4);
  auto model = MakeModel();
  const double before = EvalLoss(model.get());

  core::TrainOptions options;
  options.epochs = 2;
  options.num_threads = 4;
  core::Trainable<core::BootlegModel> trainable(model.get());
  const core::TrainStats stats = core::Train(&trainable, examples_, options);
  EXPECT_EQ(stats.threads, 4);

  const double after = EvalLoss(model.get());
  EXPECT_TRUE(std::isfinite(after));
  EXPECT_LT(after, before);
}

TEST_F(ParallelTrainTest, ParallelEvaluationMatchesSerial) {
  ThreadPool::ResetGlobal(4);
  auto model = MakeModel();
  const data::ExampleOptions ex_options;

  const eval::ResultSet serial = eval::RunEvaluation(
      model.get(), corpus_.test, *builder_, ex_options, counts_,
      /*num_threads=*/1);
  const eval::ResultSet parallel = eval::RunEvaluation(
      model.get(), corpus_.test, *builder_, ex_options, counts_,
      /*num_threads=*/4);

  ASSERT_EQ(parallel.records().size(), serial.records().size());
  for (size_t i = 0; i < serial.records().size(); ++i) {
    const eval::PredictionRecord& s = serial.records()[i];
    const eval::PredictionRecord& p = parallel.records()[i];
    EXPECT_EQ(p.sentence, s.sentence);
    EXPECT_EQ(p.mention_idx, s.mention_idx);
    EXPECT_EQ(p.gold, s.gold);
    EXPECT_EQ(p.predicted, s.predicted);
    EXPECT_EQ(p.bucket, s.bucket);
  }
  EXPECT_EQ(parallel.Overall().correct, serial.Overall().correct);
}

}  // namespace
}  // namespace bootleg
