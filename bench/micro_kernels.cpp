// Micro-kernel throughput benchmarks (google-benchmark): the tensor and
// model kernels that dominate training and inference time — matmul (square
// and short-row), Gelu, softmax, multi-head attention, the KG2Ent adjacency
// step, candidate generation, and end-to-end Bootleg sentence inference.
#include <benchmark/benchmark.h>

#include "core/model.h"
#include "core/trainer.h"
#include "data/generator.h"
#include "data/weak_label.h"
#include "data/world.h"
#include "eval/evaluator.h"
#include "nn/attention.h"
#include "tensor/tensor.h"
#include "util/thread_pool.h"

using namespace bootleg;  // NOLINT

namespace {

void BM_MatMul(benchmark::State& state) {
  const int64_t n = state.range(0);
  util::Rng rng(1);
  tensor::Tensor a = tensor::Tensor::Randn({n, n}, &rng);
  tensor::Tensor b = tensor::Tensor::Randn({n, n}, &rng);
  for (auto _ : state) {
    benchmark::DoNotOptimize(tensor::MatMul(a, b));
  }
  state.SetItemsProcessed(state.iterations() * n * n * n);
}
BENCHMARK(BM_MatMul)->Arg(32)->Arg(64)->Arg(128);

// Short-row products: m rows of a batch-1 sentence against a 64×128 weight,
// the shapes the zmm short-row tiles serve. Reported as BM_MatMul/m/k/n.
void BM_MatMulShape(benchmark::State& state) {
  const int64_t m = state.range(0), k = state.range(1), n = state.range(2);
  util::Rng rng(1);
  tensor::Tensor a = tensor::Tensor::Randn({m, k}, &rng);
  tensor::Tensor b = tensor::Tensor::Randn({k, n}, &rng);
  for (auto _ : state) {
    benchmark::DoNotOptimize(tensor::MatMul(a, b));
  }
  state.SetItemsProcessed(state.iterations() * m * k * n);
}
BENCHMARK(BM_MatMulShape)
    ->Name("BM_MatMul")
    ->Args({1, 64, 128})
    ->Args({3, 64, 128})
    ->Args({7, 64, 128});

// The feed-forward activation at one batch-1 sentence ([7,128]) and at a
// batch-8 encoder call ([57,128]).
void BM_Gelu(benchmark::State& state) {
  const int64_t rows = state.range(0), cols = state.range(1);
  util::Rng rng(1);
  tensor::Tensor a = tensor::Tensor::Randn({rows, cols}, &rng);
  for (auto _ : state) {
    benchmark::DoNotOptimize(tensor::Gelu(a));
  }
  state.SetItemsProcessed(state.iterations() * rows * cols);
}
BENCHMARK(BM_Gelu)->Args({7, 128})->Args({57, 128});

// Pre-rewrite naive kernel, kept as the speedup baseline for the production
// MatMul above (the SIMD tiles wherever the probe selects them).
void BM_MatMulReference(benchmark::State& state) {
  const int64_t n = state.range(0);
  util::Rng rng(1);
  tensor::Tensor a = tensor::Tensor::Randn({n, n}, &rng);
  tensor::Tensor b = tensor::Tensor::Randn({n, n}, &rng);
  for (auto _ : state) {
    benchmark::DoNotOptimize(tensor::MatMulReference(a, b));
  }
  state.SetItemsProcessed(state.iterations() * n * n * n);
}
BENCHMARK(BM_MatMulReference)->Arg(32)->Arg(64)->Arg(128);

void BM_SoftmaxRows(benchmark::State& state) {
  const int64_t n = state.range(0);
  util::Rng rng(1);
  tensor::Tensor a = tensor::Tensor::Randn({n, n}, &rng);
  for (auto _ : state) {
    benchmark::DoNotOptimize(tensor::SoftmaxRows(a));
  }
}
BENCHMARK(BM_SoftmaxRows)->Arg(64)->Arg(256);

void BM_MultiHeadAttention(benchmark::State& state) {
  const int64_t rows = state.range(0);
  util::Rng rng(1);
  nn::ParameterStore store;
  nn::MultiHeadAttention mha(&store, "mha", 64, 4, &rng);
  tensor::Var q = tensor::Var::Constant(tensor::Tensor::Randn({rows, 64}, &rng));
  tensor::Var k = tensor::Var::Constant(tensor::Tensor::Randn({16, 64}, &rng));
  for (auto _ : state) {
    benchmark::DoNotOptimize(mha.Attend(q, k, {{0, rows, 0, 16}}));
  }
}
BENCHMARK(BM_MultiHeadAttention)->Arg(8)->Arg(32);

void BM_CandidateGeneration(benchmark::State& state) {
  data::SynthConfig config = data::SynthConfig::MicroScale();
  const data::SynthWorld world = data::BuildWorld(config);
  util::Rng rng(3);
  std::vector<std::string> aliases;
  for (int i = 0; i < 256; ++i) {
    const kb::EntityId e = world.SampleEntity(&rng, true);
    aliases.push_back(world.kb.entity(e).aliases.front());
  }
  size_t i = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(world.candidates.Lookup(aliases[i++ % aliases.size()]));
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_CandidateGeneration);

void BM_BootlegInference(benchmark::State& state) {
  data::SynthConfig config = data::SynthConfig::MicroScale();
  const data::SynthWorld world = data::BuildWorld(config);
  data::CorpusGenerator generator(&world);
  data::Corpus corpus = generator.Generate();
  data::ExampleBuilder builder(&world.candidates, &world.vocab);
  const std::vector<data::SentenceExample> examples =
      builder.BuildAll(corpus.dev, data::ExampleOptions());
  core::BootlegConfig model_config;
  model_config.encoder.max_len = 32;
  core::BootlegModel model(&world.kb, world.vocab.size(), model_config, 7);
  size_t i = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(model.Predict(examples[i++ % examples.size()]));
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_BootlegInference);

void BM_KgAdjacencySoftmax(benchmark::State& state) {
  const int64_t rows = state.range(0);
  util::Rng rng(1);
  tensor::Tensor k({rows, rows});
  for (int64_t i = 0; i < rows * rows; ++i) {
    k.at(i) = rng.Bernoulli(0.1) ? 1.0f : 0.0f;
  }
  tensor::Var w = tensor::Var::Leaf(tensor::Tensor::Ones({1}), true);
  tensor::Var e = tensor::Var::Constant(tensor::Tensor::Randn({rows, 64}, &rng));
  for (auto _ : state) {
    tensor::Var attn = tensor::SoftmaxRows(tensor::AddScaledIdentity(k, w));
    benchmark::DoNotOptimize(tensor::Add(tensor::MatMul(attn, e), e));
  }
}
BENCHMARK(BM_KgAdjacencySoftmax)->Arg(8)->Arg(32);

// One full training epoch over a micro-scale corpus at 1, 2 and 4 workers
// (arg = worker count; every count runs the same loop). The EXPERIMENTS
// speedup table reads these numbers.
void BM_TrainEpoch(benchmark::State& state) {
  const int threads = static_cast<int>(state.range(0));
  data::SynthConfig config = data::SynthConfig::MicroScale();
  config.num_entities = 300;
  config.num_pages = 60;
  const data::SynthWorld world = data::BuildWorld(config);
  data::CorpusGenerator generator(&world);
  data::Corpus corpus = generator.Generate();
  data::ApplyWeakLabeling(world.kb, &corpus.train);
  const data::EntityCounts counts = data::EntityCounts::FromTraining(corpus.train);
  data::ExampleBuilder builder(&world.candidates, &world.vocab);
  std::vector<data::SentenceExample> examples =
      builder.BuildAll(corpus.train, data::ExampleOptions());
  examples.resize(std::min<size_t>(examples.size(), 200));

  util::ThreadPool::ResetGlobal(threads);
  for (auto _ : state) {
    state.PauseTiming();
    core::BootlegConfig model_config;
    model_config.encoder.max_len = 32;
    core::BootlegModel model(&world.kb, world.vocab.size(), model_config, 7);
    model.SetEntityCounts(&counts);
    core::Trainable<core::BootlegModel> trainable(&model);
    core::TrainOptions options;
    options.epochs = 1;
    options.num_threads = threads;
    state.ResumeTiming();
    benchmark::DoNotOptimize(core::Train(&trainable, examples, options));
  }
  state.SetItemsProcessed(state.iterations() *
                          static_cast<int64_t>(examples.size()));
  util::ThreadPool::ResetGlobal(1);
}
BENCHMARK(BM_TrainEpoch)->Arg(1)->Arg(2)->Arg(4)->Unit(benchmark::kMillisecond);

// Parallel inference over a sentence set (arg = worker count).
void BM_ParallelEval(benchmark::State& state) {
  const int threads = static_cast<int>(state.range(0));
  data::SynthConfig config = data::SynthConfig::MicroScale();
  const data::SynthWorld world = data::BuildWorld(config);
  data::CorpusGenerator generator(&world);
  data::Corpus corpus = generator.Generate();
  data::ApplyWeakLabeling(world.kb, &corpus.train);
  const data::EntityCounts counts = data::EntityCounts::FromTraining(corpus.train);
  data::ExampleBuilder builder(&world.candidates, &world.vocab);
  corpus.dev.resize(std::min<size_t>(corpus.dev.size(), 100));
  core::BootlegConfig model_config;
  model_config.encoder.max_len = 32;
  core::BootlegModel model(&world.kb, world.vocab.size(), model_config, 7);
  model.SetEntityCounts(&counts);

  util::ThreadPool::ResetGlobal(threads);
  for (auto _ : state) {
    benchmark::DoNotOptimize(eval::RunEvaluation(
        &model, corpus.dev, builder, data::ExampleOptions(), counts, threads));
  }
  state.SetItemsProcessed(state.iterations() *
                          static_cast<int64_t>(corpus.dev.size()));
  util::ThreadPool::ResetGlobal(1);
}
BENCHMARK(BM_ParallelEval)->Arg(1)->Arg(4)->Unit(benchmark::kMillisecond);

}  // namespace

BENCHMARK_MAIN();
