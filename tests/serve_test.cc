// Serving subsystem: batched engine inference must match the serial
// evaluator path bit-for-bit at any batch size and thread count, the
// micro-batcher must dispatch without waiting / coalesce what queued /
// backpressure / drain exactly as specified, malformed client bytes must
// never crash the server, and hot reload must pick the newest checkpoint
// while skipping corrupt ones, with health and stats readable throughout.

#include <arpa/inet.h>
#include <netinet/in.h>
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstring>
#include <filesystem>
#include <future>
#include <mutex>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "core/checkpoint.h"
#include "core/model.h"
#include "data/example.h"
#include "data/generator.h"
#include "data/mention_extractor.h"
#include "data/world.h"
#include "eval/evaluator.h"
#include "kb/candidate_map.h"
#include "nn/optimizer.h"
#include "obs/metrics.h"
#include "serve/batcher.h"
#include "serve/inference_engine.h"
#include "serve/json.h"
#include "serve/metrics.h"
#include "serve/server.h"
#include "text/vocabulary.h"
#include "util/io.h"
#include "util/rng.h"
#include "util/status.h"
#include "util/thread_pool.h"

namespace bootleg {
namespace {

namespace fs = std::filesystem;

std::string TestDir(const std::string& name) {
  const std::string dir =
      (fs::temp_directory_path() / ("bootleg_serve_test_" + name)).string();
  fs::remove_all(dir);
  fs::create_directories(dir);
  return dir;
}

/// The config every serving deployment uses (bootleg_cli's training default).
core::BootlegConfig ServingConfig() {
  core::BootlegConfig config;
  config.encoder.max_len = 32;
  return config;
}

/// One tiny world + saved dataset + saved model snapshot, built once and
/// shared by every test (the expensive part is BuildWorld + corpus).
struct ServeWorld {
  std::string data_dir;
  std::string model_path;
  data::SynthWorld world;
  data::Corpus corpus;
};

const ServeWorld& GetServeWorld() {
  static const ServeWorld* shared = [] {
    auto* sw = new ServeWorld();
    data::SynthConfig config = data::SynthConfig::MicroScale();
    config.num_pages = 40;
    sw->world = data::BuildWorld(config);
    data::CorpusGenerator generator(&sw->world);
    sw->corpus = generator.Generate();
    sw->data_dir = TestDir("world");
    BOOTLEG_CHECK(sw->world.kb.Save(sw->data_dir + "/kb.bin").ok());
    BOOTLEG_CHECK(
        sw->world.candidates.Save(sw->data_dir + "/candidates.bin").ok());
    BOOTLEG_CHECK(sw->world.vocab.Save(sw->data_dir + "/vocab.bin").ok());
    core::BootlegModel model(&sw->world.kb, sw->world.vocab.size(),
                             ServingConfig(), /*seed=*/123);
    sw->model_path = sw->data_dir + "/model.bin";
    BOOTLEG_CHECK(model.store().Save(sw->model_path).ok());
    return sw;
  }();
  return *shared;
}

std::unique_ptr<serve::InferenceEngine> MakeSnapshotEngine() {
  const ServeWorld& sw = GetServeWorld();
  serve::EngineOptions options;
  options.data_dir = sw.data_dir;
  options.model_path = sw.model_path;
  auto engine = serve::InferenceEngine::Create(options);
  BOOTLEG_CHECK_MSG(engine.ok(), engine.status().ToString());
  return std::move(engine.value());
}

std::string JoinTokens(const std::vector<std::string>& tokens) {
  std::string out;
  for (const std::string& t : tokens) {
    if (!out.empty()) out += ' ';
    out += t;
  }
  return out;
}

/// A dev-split sentence that actually carries mentions, as raw text.
std::string SampleServableText() {
  for (const data::Sentence& s : GetServeWorld().corpus.dev) {
    if (!s.mentions.empty()) return JoinTokens(s.tokens);
  }
  BOOTLEG_CHECK_MSG(false, "no dev sentence with mentions");
  return "";
}

// --- Batched inference vs the serial evaluator path --------------------------

TEST(ServeEquivalenceTest, PredictBatchMatchesSerialPredictAtAnyBatchSize) {
  const ServeWorld& sw = GetServeWorld();
  data::ExampleBuilder builder(&sw.world.candidates, &sw.world.vocab);
  data::ExampleOptions options;
  options.include_weak_labels = false;  // evaluation is over true anchors
  const std::vector<data::SentenceExample> examples =
      builder.BuildAll(sw.corpus.dev, options);
  ASSERT_GT(examples.size(), 8u);

  // Serial reference: the exact per-sentence path eval::Evaluator drives,
  // Predict — the same value forward as the engine, but over feature rows
  // computed from the live tables instead of a prepared table. Its tape
  // column: on every example it must name the candidate the autograd
  // forward (ContextualEmbeddings) picks.
  core::BootlegModel ref(&sw.world.kb, sw.world.vocab.size(), ServingConfig(),
                         /*seed=*/123);
  ASSERT_TRUE(ref.store().Load(sw.model_path).ok());
  util::ThreadPool::ResetGlobal(1);
  std::vector<std::vector<int64_t>> serial;
  serial.reserve(examples.size());
  for (size_t i = 0; i < examples.size(); ++i) {
    const data::SentenceExample& ex = examples[i];
    serial.push_back(ref.Predict(ex));
    const auto tape = ref.ContextualEmbeddings(ex);
    ASSERT_EQ(tape.size(), ex.mentions.size());
    for (size_t m = 0; m < ex.mentions.size(); ++m) {
      const int64_t k = serial.back()[m];
      EXPECT_EQ(k < 0 ? kb::kInvalidId
                      : ex.mentions[m].candidates[static_cast<size_t>(k)],
                tape[m].entity)
          << "example=" << i << " mention=" << m;
    }
  }

  auto engine = MakeSnapshotEngine();
  core::BootlegModel::InferenceScratch scratch;
  for (const int threads : {1, 4}) {
    util::ThreadPool::ResetGlobal(threads);
    for (const size_t batch_size :
         {size_t{1}, size_t{3}, size_t{8}, examples.size()}) {
      for (size_t begin = 0; begin < examples.size(); begin += batch_size) {
        const size_t end = std::min(examples.size(), begin + batch_size);
        std::vector<const data::SentenceExample*> batch;
        batch.reserve(end - begin);
        for (size_t i = begin; i < end; ++i) batch.push_back(&examples[i]);
        const std::vector<std::vector<int64_t>> preds =
            engine->PredictExamples(batch, &scratch);
        ASSERT_EQ(preds.size(), batch.size());
        for (size_t i = begin; i < end; ++i) {
          EXPECT_EQ(preds[i - begin], serial[i])
              << "batch_size=" << batch_size << " threads=" << threads
              << " example=" << i;
        }
      }
    }
  }
  util::ThreadPool::ResetGlobal(1);
}

/// Adapter running the engine one sentence at a time under the evaluator
/// harness, so the two paths can be compared record by record.
class EngineScorer : public eval::NedScorer {
 public:
  explicit EngineScorer(serve::InferenceEngine* engine) : engine_(engine) {}
  std::vector<int64_t> Predict(const data::SentenceExample& example) override {
    thread_local core::BootlegModel::InferenceScratch scratch;
    return engine_->PredictExamples({&example}, &scratch)[0];
  }

 private:
  serve::InferenceEngine* engine_;
};

TEST(ServeEquivalenceTest, EvaluatorResultsIdenticalThroughEngine) {
  const ServeWorld& sw = GetServeWorld();
  core::BootlegModel ref(&sw.world.kb, sw.world.vocab.size(), ServingConfig(),
                         /*seed=*/123);
  ASSERT_TRUE(ref.store().Load(sw.model_path).ok());
  auto engine = MakeSnapshotEngine();
  EngineScorer scorer(engine.get());

  data::ExampleBuilder builder(&sw.world.candidates, &sw.world.vocab);
  data::ExampleOptions options;
  options.include_weak_labels = false;
  const data::EntityCounts counts =
      data::EntityCounts::FromTraining(sw.corpus.train);

  for (const int threads : {1, 4}) {
    util::ThreadPool::ResetGlobal(1);
    const eval::ResultSet want = eval::RunEvaluation(
        &ref, sw.corpus.dev, builder, options, counts, /*num_threads=*/1);
    util::ThreadPool::ResetGlobal(threads);
    const eval::ResultSet got = eval::RunEvaluation(
        &scorer, sw.corpus.dev, builder, options, counts, threads);
    ASSERT_EQ(got.records().size(), want.records().size());
    for (size_t i = 0; i < want.records().size(); ++i) {
      EXPECT_EQ(got.records()[i].predicted, want.records()[i].predicted)
          << "threads=" << threads << " record=" << i;
      EXPECT_EQ(got.records()[i].gold, want.records()[i].gold);
    }
  }
  util::ThreadPool::ResetGlobal(1);
}

TEST(ServeEquivalenceTest, DisambiguateMatchesMentionExtractorPath) {
  const ServeWorld& sw = GetServeWorld();
  auto engine = MakeSnapshotEngine();
  core::BootlegModel ref(&sw.world.kb, sw.world.vocab.size(), ServingConfig(),
                         /*seed=*/123);
  ASSERT_TRUE(ref.store().Load(sw.model_path).ok());
  data::MentionExtractor extractor(&sw.world.candidates);

  std::vector<std::string> texts;
  for (const data::Sentence& s : sw.corpus.dev) {
    texts.push_back(JoinTokens(s.tokens));
    if (texts.size() == 16) break;
  }
  core::BootlegModel::InferenceScratch scratch;
  const std::vector<serve::SentenceResult> results =
      engine->Disambiguate(texts, &scratch);
  ASSERT_EQ(results.size(), texts.size());

  for (size_t i = 0; i < texts.size(); ++i) {
    const data::SentenceExample ex =
        extractor.BuildExample(sw.world.vocab, texts[i]);
    const std::vector<int64_t> preds = ref.Predict(ex);
    ASSERT_EQ(results[i].mentions.size(), ex.mentions.size()) << "text=" << i;
    for (size_t m = 0; m < ex.mentions.size(); ++m) {
      const serve::ServedMention& served = results[i].mentions[m];
      EXPECT_EQ(served.span_start, ex.mentions[m].span_start);
      const int64_t k = preds[m];
      const kb::EntityId want =
          k < 0 ? kb::kInvalidId : ex.mentions[m].candidates[static_cast<size_t>(k)];
      EXPECT_EQ(served.entity, want) << "text=" << i << " mention=" << m;
    }
  }
}

// A raw-text item carrying a single sentence must be indistinguishable from
// the pre-segmented path: same mentions, same spans, same predictions. This is
// the serving contract that lets clients move to `disambiguate_text` without
// re-validating outputs.
TEST(ServeEquivalenceTest, RawTextSingleSentenceMatchesPreSegmented) {
  auto engine = MakeSnapshotEngine();
  core::BootlegModel::InferenceScratch scratch;
  std::vector<std::string> texts;
  for (const data::Sentence& s : GetServeWorld().corpus.dev) {
    if (!s.mentions.empty()) texts.push_back(JoinTokens(s.tokens));
    if (texts.size() == 8) break;
  }
  ASSERT_FALSE(texts.empty());

  std::vector<serve::BatchItem> pre(texts.size());
  std::vector<serve::BatchItem> raw(texts.size());
  for (size_t i = 0; i < texts.size(); ++i) {
    pre[i].text = texts[i];
    raw[i].text = texts[i];
    raw[i].raw_text = true;
  }
  const std::vector<serve::SentenceResult> want =
      engine->DisambiguateBatch(pre, &scratch);
  const std::vector<serve::SentenceResult> got =
      engine->DisambiguateBatch(raw, &scratch);
  ASSERT_EQ(got.size(), want.size());
  size_t total_mentions = 0;
  for (size_t i = 0; i < want.size(); ++i) {
    ASSERT_EQ(got[i].mentions.size(), want[i].mentions.size()) << "text=" << i;
    for (size_t m = 0; m < want[i].mentions.size(); ++m) {
      const serve::ServedMention& w = want[i].mentions[m];
      const serve::ServedMention& g = got[i].mentions[m];
      EXPECT_EQ(g.alias, w.alias);
      EXPECT_EQ(g.span_start, w.span_start);
      EXPECT_EQ(g.span_end, w.span_end);
      EXPECT_EQ(g.entity, w.entity);
      EXPECT_EQ(g.title, w.title);
      EXPECT_DOUBLE_EQ(g.prior, w.prior);
      EXPECT_EQ(g.num_candidates, w.num_candidates);
      EXPECT_EQ(g.sentence_index, 0);
      ++total_mentions;
    }
  }
  EXPECT_GT(total_mentions, 0u);
}

// A raw document splits after terminal punctuation; mentions in later
// sentences carry document-level spans (offset by the range start) and their
// sentence index. Predictions match the same sentences sent pre-segmented.
TEST(ServeEquivalenceTest, RawDocumentSplitsSentencesAndOffsetsSpans) {
  auto engine = MakeSnapshotEngine();
  core::BootlegModel::InferenceScratch scratch;
  std::vector<std::string> sents;
  for (const data::Sentence& s : GetServeWorld().corpus.dev) {
    if (!s.mentions.empty()) sents.push_back(JoinTokens(s.tokens));
    if (sents.size() == 2) break;
  }
  ASSERT_EQ(sents.size(), 2u);

  // Generated sentences carry their own terminal "." token, so joining with a
  // space forms a two-sentence document.
  serve::BatchItem doc;
  doc.text = sents[0] + " " + sents[1];
  doc.raw_text = true;
  const std::vector<serve::SentenceResult> got =
      engine->DisambiguateBatch({doc}, &scratch);
  ASSERT_EQ(got.size(), 1u);

  // Reference: the same split sent pre-segmented. The raw splitter keeps the
  // terminal "." inside each range, matching the sentences as generated.
  std::vector<serve::BatchItem> pre(2);
  pre[0].text = sents[0];
  pre[1].text = sents[1];
  const std::vector<serve::SentenceResult> want =
      engine->DisambiguateBatch(pre, &scratch);
  const int64_t offset =
      static_cast<int64_t>(text::Tokenize(pre[0].text).size());

  size_t cursor = 0;
  for (int64_t si = 0; si < 2; ++si) {
    for (const serve::ServedMention& w : want[static_cast<size_t>(si)].mentions) {
      ASSERT_LT(cursor, got[0].mentions.size());
      const serve::ServedMention& g = got[0].mentions[cursor++];
      EXPECT_EQ(g.alias, w.alias);
      EXPECT_EQ(g.entity, w.entity);
      EXPECT_EQ(g.sentence_index, si);
      EXPECT_EQ(g.span_start, w.span_start + (si == 1 ? offset : 0));
      EXPECT_EQ(g.span_end, w.span_end + (si == 1 ? offset : 0));
    }
  }
  EXPECT_EQ(cursor, got[0].mentions.size());
  EXPECT_GT(cursor, 0u);
}

// --- Micro-batcher -----------------------------------------------------------

// Built additively (not operator+) to sidestep a GCC 12 -Wrestrict false
// positive on temporary string concatenation.
std::string RequestName(int i) {
  std::string name = "r";
  name += std::to_string(i);
  return name;
}

serve::SentenceResult EchoResult(const std::string& text) {
  serve::SentenceResult r;
  serve::ServedMention m;
  m.alias = text;
  r.mentions.push_back(std::move(m));
  return r;
}

std::vector<serve::SentenceResult> EchoBatch(
    const std::vector<serve::BatchItem>& items) {
  std::vector<serve::SentenceResult> out;
  out.reserve(items.size());
  for (const serve::BatchItem& item : items) out.push_back(EchoResult(item.text));
  return out;
}

/// Batch backend whose first "plug" batch blocks until released, letting a
/// test deterministically pile requests into the queue behind it.
struct PluggableBackend {
  std::mutex mu;
  std::condition_variable cv;
  bool plug_seen = false;
  bool released = false;
  std::vector<size_t> batch_sizes;

  serve::MicroBatcher::BatchFn Fn() {
    return [this](const std::vector<serve::BatchItem>& items, int) {
      {
        std::unique_lock<std::mutex> lock(mu);
        batch_sizes.push_back(items.size());
        if (items.size() == 1 && items[0].text == "plug") {
          plug_seen = true;
          cv.notify_all();
          cv.wait(lock, [this] { return released; });
        }
      }
      return EchoBatch(items);
    };
  }
  void AwaitPlugTaken() {
    std::unique_lock<std::mutex> lock(mu);
    cv.wait(lock, [this] { return plug_seen; });
  }
  void Release() {
    {
      std::lock_guard<std::mutex> lock(mu);
      released = true;
    }
    cv.notify_all();
  }
};

TEST(MicroBatcherTest, CoalescesQueuedRequestsIntoOneBatch) {
  serve::ServerCounters counters;
  PluggableBackend backend;
  serve::BatcherOptions options;
  options.max_batch = 4;
  options.workers = 1;
  serve::MicroBatcher batcher(options, backend.Fn(), nullptr, &counters);

  auto plug = batcher.Submit("plug");
  backend.AwaitPlugTaken();
  std::vector<std::future<util::StatusOr<serve::SentenceResult>>> futures;
  for (int i = 0; i < 4; ++i) {
    futures.push_back(batcher.Submit(RequestName(i)));
  }
  backend.Release();

  ASSERT_TRUE(plug.get().ok());
  for (size_t i = 0; i < futures.size(); ++i) {
    util::StatusOr<serve::SentenceResult> result = futures[i].get();
    ASSERT_TRUE(result.ok());
    // Results map back to the submitting request, not just the batch.
    EXPECT_EQ(result.value().mentions[0].alias, RequestName(static_cast<int>(i)));
  }
  batcher.Shutdown();

  EXPECT_EQ(batcher.max_batch_observed(), 4);
  ASSERT_EQ(backend.batch_sizes.size(), 2u);  // the plug, then one batch of 4
  EXPECT_EQ(backend.batch_sizes[1], 4u);
  EXPECT_EQ(counters.requests.load(), 5);
  EXPECT_EQ(counters.batches.load(), 2);
  EXPECT_EQ(counters.batched_sentences.load(), 5);
  EXPECT_DOUBLE_EQ(counters.MeanBatchSize(), 2.5);
}

// A batch cap below 1 means 1: at max_batch 0 a dispatch used to take
// nothing, so no request was ever answered and Shutdown's drain spun forever.
TEST(MicroBatcherTest, MaxBatchBelowOneStillServesAndDrains) {
  serve::ServerCounters counters;
  serve::BatcherOptions options;
  options.max_batch = 0;
  serve::MicroBatcher batcher(
      options,
      [](const std::vector<serve::BatchItem>& items, int) {
        return EchoBatch(items);
      },
      nullptr, &counters);
  auto future = batcher.Submit(RequestName(0));
  ASSERT_EQ(future.wait_for(std::chrono::seconds(2)),
            std::future_status::ready);
  ASSERT_TRUE(future.get().ok());
  batcher.Shutdown();
  EXPECT_EQ(batcher.max_batch_observed(), 1);
}

// Work-conserving dispatch: on an idle server a request runs the moment a
// worker is free, alone, without waiting for siblings that never come.
TEST(MicroBatcherTest, LoneRequestsDispatchImmediatelyOnDefaults) {
  using Clock = std::chrono::steady_clock;
  serve::ServerCounters counters;
  std::mutex mu;
  std::vector<size_t> batch_sizes;
  Clock::time_point entered;
  serve::MicroBatcher batcher(
      serve::BatcherOptions(),
      [&](const std::vector<serve::BatchItem>& items, int) {
        std::lock_guard<std::mutex> lock(mu);
        entered = Clock::now();
        batch_sizes.push_back(items.size());
        return EchoBatch(items);
      },
      nullptr, &counters);

  constexpr int kRequests = 50;
  Clock::duration fastest = Clock::duration::max();
  for (int i = 0; i < kRequests; ++i) {
    const Clock::time_point submitted = Clock::now();
    auto future = batcher.Submit(RequestName(i));
    ASSERT_EQ(future.wait_for(std::chrono::seconds(10)),
              std::future_status::ready);
    ASSERT_TRUE(future.get().ok());
    std::lock_guard<std::mutex> lock(mu);
    fastest = std::min(fastest, entered - submitted);
  }
  batcher.Shutdown();

  ASSERT_EQ(batch_sizes.size(), static_cast<size_t>(kRequests));
  for (size_t size : batch_sizes) EXPECT_EQ(size, 1u);
  // The best case is a thread wake-up, far below any coalescing window.
  EXPECT_LT(std::chrono::duration_cast<std::chrono::microseconds>(fastest),
            std::chrono::microseconds(400));
}

TEST(MicroBatcherTest, BackpressureRejectsWhenQueueFull) {
  serve::ServerCounters counters;
  PluggableBackend backend;
  serve::BatcherOptions options;
  options.max_batch = 1;
  options.max_queue = 2;
  options.workers = 1;
  serve::MicroBatcher batcher(options, backend.Fn(), nullptr, &counters);

  auto plug = batcher.Submit("plug");
  backend.AwaitPlugTaken();  // worker busy; queue is now empty
  auto a = batcher.Submit("a");
  auto b = batcher.Submit("b");   // queue at capacity
  auto c = batcher.Submit("c");   // must be rejected, already resolved
  ASSERT_EQ(c.wait_for(std::chrono::seconds(0)), std::future_status::ready);
  const util::StatusOr<serve::SentenceResult> rejected = c.get();
  ASSERT_FALSE(rejected.ok());
  EXPECT_EQ(rejected.status().code(), util::StatusCode::kUnavailable);
  EXPECT_EQ(counters.rejected.load(), 1);

  backend.Release();
  EXPECT_TRUE(plug.get().ok());
  EXPECT_TRUE(a.get().ok());  // accepted requests still complete
  EXPECT_TRUE(b.get().ok());
  batcher.Shutdown();
  // Every arrival counts, rejected or not, so requests covers rejected +
  // shed + served.
  EXPECT_EQ(counters.requests.load(), 4);
}

TEST(MicroBatcherTest, ShutdownDrainsAcceptedRequests) {
  serve::ServerCounters counters;
  std::atomic<int64_t> processed{0};
  serve::BatcherOptions options;
  options.max_batch = 2;
  options.workers = 1;
  serve::MicroBatcher batcher(
      options,
      [&](const std::vector<serve::BatchItem>& items, int) {
        std::this_thread::sleep_for(std::chrono::milliseconds(5));
        processed.fetch_add(static_cast<int64_t>(items.size()));
        return EchoBatch(items);
      },
      nullptr, &counters);

  std::vector<std::future<util::StatusOr<serve::SentenceResult>>> futures;
  for (int i = 0; i < 6; ++i) {
    futures.push_back(batcher.Submit(RequestName(i)));
  }
  batcher.Shutdown();  // must block until every accepted request finished
  EXPECT_EQ(processed.load(), 6);
  for (auto& f : futures) {
    ASSERT_EQ(f.wait_for(std::chrono::seconds(0)), std::future_status::ready);
    EXPECT_TRUE(f.get().ok());
  }

  auto late = batcher.Submit("late");
  ASSERT_EQ(late.wait_for(std::chrono::seconds(0)), std::future_status::ready);
  const util::StatusOr<serve::SentenceResult> result = late.get();
  ASSERT_FALSE(result.ok());
  EXPECT_EQ(result.status().code(), util::StatusCode::kFailedPrecondition);
}

TEST(MicroBatcherTest, ReloadRunsAtBatchBoundaryAndFailureIsNonFatal) {
  serve::ServerCounters counters;
  std::atomic<int> attempts{0};
  std::atomic<bool> fail_reload{true};
  serve::BatcherOptions options;
  options.workers = 1;
  serve::MicroBatcher batcher(
      options, [](const std::vector<serve::BatchItem>& items, int) {
        return EchoBatch(items);
      },
      [&] {
        attempts.fetch_add(1);
        return fail_reload.load() ? util::Status::IOError("injected")
                                  : util::Status::OK();
      },
      &counters);

  batcher.RequestReload();  // fails: logged, counted as attempt, not reload
  for (int i = 0; i < 200 && attempts.load() < 1; ++i) {
    std::this_thread::sleep_for(std::chrono::milliseconds(2));
  }
  ASSERT_EQ(attempts.load(), 1);
  EXPECT_EQ(counters.reloads.load(), 0);
  EXPECT_TRUE(batcher.Submit("still serving").get().ok());

  fail_reload.store(false);
  batcher.RequestReload();
  for (int i = 0; i < 200 && counters.reloads.load() < 1; ++i) {
    std::this_thread::sleep_for(std::chrono::milliseconds(2));
  }
  EXPECT_EQ(counters.reloads.load(), 1);
  EXPECT_EQ(attempts.load(), 2);
  batcher.Shutdown();
}

// Regression: door-shed and queue-full arrivals used to be invisible in
// `requests`, breaking the stats accounting. Every arrival must count, so
// requests == rejected + shed + served holds across all outcomes.
TEST(MicroBatcherTest, ArrivalAccountingInvariantHoldsAcrossOutcomes) {
  serve::ServerCounters counters;
  PluggableBackend backend;
  serve::BatcherOptions options;
  options.max_batch = 1;
  options.max_queue = 2;
  options.workers = 1;
  serve::MicroBatcher batcher(options, backend.Fn(), nullptr, &counters);

  auto plug = batcher.Submit("plug");
  backend.AwaitPlugTaken();  // worker busy; queue is empty

  // Door shed: arrives with its deadline already expired.
  util::Status door;
  batcher.SubmitAsync(
      "expired",
      std::chrono::steady_clock::now() - std::chrono::milliseconds(1),
      [&](util::StatusOr<serve::SentenceResult> r) { door = r.status(); });
  EXPECT_EQ(door.code(), util::StatusCode::kDeadlineExceeded);

  // One request that will be served, one that will expire while queued.
  auto a = batcher.Submit("a");
  util::Status queued_shed;
  batcher.SubmitAsync(
      "soon-dead",
      std::chrono::steady_clock::now() + std::chrono::milliseconds(50),
      [&](util::StatusOr<serve::SentenceResult> r) {
        queued_shed = r.status();
      });

  // Queue is now at capacity: the next arrival is rejected outright.
  auto c = batcher.Submit("c");
  const util::StatusOr<serve::SentenceResult> rejected = c.get();
  ASSERT_FALSE(rejected.ok());
  EXPECT_EQ(rejected.status().code(), util::StatusCode::kUnavailable);

  std::this_thread::sleep_for(std::chrono::milliseconds(100));  // expire it
  backend.Release();
  EXPECT_TRUE(plug.get().ok());
  EXPECT_TRUE(a.get().ok());
  batcher.Shutdown();
  EXPECT_EQ(queued_shed.code(), util::StatusCode::kDeadlineExceeded);

  // plug + expired + a + soon-dead + c — every arrival, whatever its fate.
  EXPECT_EQ(counters.requests.load(), 5);
  EXPECT_EQ(counters.rejected.load(), 1);
  EXPECT_EQ(counters.shed.load(), 2);  // one at the door, one at dequeue
  const int64_t served = counters.batched_sentences.load();
  EXPECT_EQ(served, 2);  // plug + a
  EXPECT_EQ(counters.requests.load(),
            counters.rejected.load() + counters.shed.load() + served);
}

// An all-deadline batch whose members expire mid-compute comes back empty
// from the engine; the batcher fails each member with DeadlineExceeded and
// counts them as both shed and reclaimed. Without a deadline on every member
// the same empty return is a backend bug, reported as Internal.
TEST(MicroBatcherTest, MidComputeAbandonmentShedsAndCountsReclaims) {
  serve::ServerCounters counters;
  serve::BatcherOptions options;
  options.max_batch = 4;
  options.workers = 1;
  serve::MicroBatcher batcher(
      options,
      [](const std::vector<serve::BatchItem>&, int) {
        return std::vector<serve::SentenceResult>();  // abandoned mid-compute
      },
      nullptr, &counters);

  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(60);
  std::mutex mu;
  std::condition_variable cv;
  std::vector<util::Status> statuses;
  for (int i = 0; i < 3; ++i) {
    batcher.SubmitAsync(RequestName(i), /*raw_text=*/false, deadline,
                        [&](util::StatusOr<serve::SentenceResult> r) {
                          std::lock_guard<std::mutex> lock(mu);
                          statuses.push_back(r.status());
                          cv.notify_all();
                        });
  }
  {
    std::unique_lock<std::mutex> lock(mu);
    cv.wait(lock, [&] { return statuses.size() == 3; });
  }
  for (const util::Status& s : statuses) {
    EXPECT_EQ(s.code(), util::StatusCode::kDeadlineExceeded);
  }
  EXPECT_EQ(counters.shed.load(), 3);
  EXPECT_EQ(counters.reclaimed.load(), 3);

  // A member without a deadline makes the empty return a contract violation.
  auto no_deadline = batcher.Submit("plain");
  const util::StatusOr<serve::SentenceResult> r = no_deadline.get();
  ASSERT_FALSE(r.ok());
  EXPECT_EQ(r.status().code(), util::StatusCode::kInternal);
  EXPECT_EQ(counters.reclaimed.load(), 3);  // unchanged
  batcher.Shutdown();
}

// --- Latency histogram -------------------------------------------------------

TEST(LatencyHistogramTest, PercentilesCountsAndBucketBounds) {
  obs::LatencyHistogram h;
  EXPECT_EQ(h.PercentileUs(0.5), 0);  // empty
  for (int i = 1; i <= 1000; ++i) h.Record(i);
  EXPECT_EQ(h.count(), 1000);
  EXPECT_EQ(h.sum_us(), 500500);
  EXPECT_NEAR(h.MeanUs(), 500.5, 1e-9);

  const int64_t p50 = h.PercentileUs(0.50);
  const int64_t p95 = h.PercentileUs(0.95);
  const int64_t p99 = h.PercentileUs(0.99);
  EXPECT_LE(p50, p95);
  EXPECT_LE(p95, p99);
  EXPECT_GE(p50, 500);    // the 500th value is 500µs
  EXPECT_LE(p99, 2000);   // within one 1-2-5 bucket of 1000µs
  // Strictly increasing bounds, except the overflow bucket, which reports
  // its lower edge.
  for (int i = 1; i + 1 < obs::LatencyHistogram::kNumBuckets; ++i) {
    EXPECT_GT(obs::LatencyHistogram::BucketBoundUs(i),
              obs::LatencyHistogram::BucketBoundUs(i - 1));
  }
}

// --- JSON wire format --------------------------------------------------------

TEST(JsonTest, RoundTripAndHostileInputs) {
  const std::string text =
      R"({"op":"disambiguate","text":"a \"quoted\" line","n":1.5,)"
      R"("flags":[true,false,null]})";
  util::StatusOr<serve::Json> parsed = serve::Json::Parse(text);
  ASSERT_TRUE(parsed.ok());
  EXPECT_EQ(parsed.value().GetString("op"), "disambiguate");
  EXPECT_EQ(parsed.value().GetString("text"), "a \"quoted\" line");
  EXPECT_DOUBLE_EQ(parsed.value().GetNumber("n"), 1.5);
  util::StatusOr<serve::Json> reparsed =
      serve::Json::Parse(parsed.value().Dump());
  ASSERT_TRUE(reparsed.ok());
  EXPECT_EQ(reparsed.value().Dump(), parsed.value().Dump());

  for (const std::string& bad :
       {std::string("{"), std::string("[1,"), std::string("tru"),
        std::string("\"unterminated"), std::string("1 2"),
        std::string("{\"a\":}"), std::string("{} trailing"), std::string(""),
        std::string(10000, '[')}) {
    EXPECT_FALSE(serve::Json::Parse(bad).ok()) << bad.substr(0, 40);
  }
}

TEST(JsonTest, NestingBoundIsExactlyKMaxDepth) {
  // A document with exactly kMaxDepth nested containers must parse — the
  // documented bound is inclusive — and one more level must be rejected,
  // whether the innermost value is a scalar or another container.
  auto nested_arrays = [](int levels, const std::string& core) {
    return std::string(static_cast<size_t>(levels), '[') + core +
           std::string(static_cast<size_t>(levels), ']');
  };
  EXPECT_TRUE(serve::Json::Parse(nested_arrays(serve::Json::kMaxDepth, "1")).ok());
  EXPECT_TRUE(serve::Json::Parse(nested_arrays(serve::Json::kMaxDepth, "")).ok());
  EXPECT_FALSE(
      serve::Json::Parse(nested_arrays(serve::Json::kMaxDepth + 1, "1")).ok());
  EXPECT_FALSE(
      serve::Json::Parse(nested_arrays(serve::Json::kMaxDepth + 1, "")).ok());

  // Same bound through object nesting: {"k":{"k":...{}...}}.
  std::string obj = "{}";
  for (int i = 1; i < serve::Json::kMaxDepth; ++i) obj = "{\"k\":" + obj + "}";
  EXPECT_TRUE(serve::Json::Parse(obj).ok());
  EXPECT_FALSE(serve::Json::Parse("{\"k\":" + obj + "}").ok());

  // Mixed alternation lands on the same counter.
  std::string mixed = "1";
  for (int i = 0; i < serve::Json::kMaxDepth; ++i) {
    mixed = (i % 2 == 0) ? "[" + mixed + "]" : "{\"k\":" + mixed + "}";
  }
  EXPECT_TRUE(serve::Json::Parse(mixed).ok());
  EXPECT_FALSE(serve::Json::Parse("[" + mixed + "]").ok());
}

TEST(JsonTest, OversizedStringsAreRejectedNotAllocated) {
  // Strings up to kMaxStringBytes decode; one byte over fails cleanly. The
  // bound applies to decoded output, so escape-heavy input cannot dodge it.
  const std::string ok_body(serve::Json::kMaxStringBytes, 'a');
  EXPECT_TRUE(serve::Json::Parse("\"" + ok_body + "\"").ok());
  const std::string big_body(serve::Json::kMaxStringBytes + 1, 'a');
  EXPECT_FALSE(serve::Json::Parse("\"" + big_body + "\"").ok());

  // The same bound guards object keys and nested strings.
  EXPECT_FALSE(serve::Json::Parse("{\"" + big_body + "\":1}").ok());
  EXPECT_FALSE(serve::Json::Parse("[\"" + big_body + "\"]").ok());

  // Escaped expansion: A is six input bytes but one decoded byte, so a
  // decoded-size bound must still accept reasonable escape runs.
  std::string escapes;
  for (int i = 0; i < 1000; ++i) escapes += "\\u0041";
  util::StatusOr<serve::Json> parsed = serve::Json::Parse("\"" + escapes + "\"");
  ASSERT_TRUE(parsed.ok());
  EXPECT_EQ(parsed.value().string_value(), std::string(1000, 'A'));
}

// --- Server front end --------------------------------------------------------

struct ServerUnderTest {
  std::unique_ptr<serve::InferenceEngine> engine;
  serve::ServerCounters counters;
  obs::LatencyHistogram latency;
  core::BootlegModel::InferenceScratch scratch;
  std::unique_ptr<serve::MicroBatcher> batcher;
  std::unique_ptr<serve::Server> server;

  explicit ServerUnderTest(serve::BatcherOptions options = {}) {
    engine = MakeSnapshotEngine();
    batcher = std::make_unique<serve::MicroBatcher>(
        options,
        [this](const std::vector<serve::BatchItem>& items, int) {
          return engine->DisambiguateBatch(items, &scratch);
        },
        [this] { return engine->Reload(); }, &counters);
    server = std::make_unique<serve::Server>(engine.get(), batcher.get(),
                                             &counters, &latency);
  }
  ~ServerUnderTest() {
    server->Stop();
    batcher->Shutdown();
  }
};

TEST(ServeServerTest, MalformedRequestsGetErrorRepliesNeverCrash) {
  ServerUnderTest sut;
  const std::vector<std::string> hostile = {
      "",
      "{",
      "]",
      "not json at all",
      "{\"op\":42}",
      "{\"op\":\"disambiguate\"}",
      "{\"op\":\"disambiguate\",\"text\":7}",
      "{\"op\":\"no_such_op\"}",
      "{\"op\":\"stats\"} trailing garbage",
      "[\"an\",\"array\",\"not\",\"an\",\"object\"]",
      std::string(5000, '['),
      std::string(1 << 16, 'x'),
  };
  for (const std::string& line : hostile) {
    const std::string reply = sut.server->HandleLine(line);
    util::StatusOr<serve::Json> parsed = serve::Json::Parse(reply);
    ASSERT_TRUE(parsed.ok()) << "reply not JSON for: " << line.substr(0, 40);
    const serve::Json* ok = parsed.value().Find("ok");
    ASSERT_NE(ok, nullptr);
    EXPECT_FALSE(ok->bool_value()) << line.substr(0, 40);
    EXPECT_FALSE(parsed.value().GetString("error").empty());
  }
  EXPECT_EQ(sut.counters.errors.load(),
            static_cast<int64_t>(hostile.size()));

  // The server still serves real traffic afterwards.
  serve::Json request = serve::Json::Object();
  request.Set("op", serve::Json::Str("disambiguate"));
  request.Set("text", serve::Json::Str(SampleServableText()));
  const std::string reply = sut.server->HandleLine(request.Dump());
  util::StatusOr<serve::Json> parsed = serve::Json::Parse(reply);
  ASSERT_TRUE(parsed.ok());
  EXPECT_TRUE(parsed.value().Find("ok")->bool_value());
  ASSERT_NE(parsed.value().Find("mentions"), nullptr);
  EXPECT_FALSE(parsed.value().Find("mentions")->array_items().empty());
}

TEST(ServeServerTest, StdioLoopServesHealthDisambiguateAndStats) {
  ServerUnderTest sut;
  const std::string text = SampleServableText();
  serve::Json disambiguate = serve::Json::Object();
  disambiguate.Set("op", serve::Json::Str("disambiguate"));
  disambiguate.Set("text", serve::Json::Str(text));

  std::ostringstream script;
  script << "{\"op\":\"health\"}\n";
  for (int i = 0; i < 5; ++i) script << disambiguate.Dump() << "\n";
  script << "{\"op\":\"stats\"}\n";
  std::istringstream in(script.str());
  std::ostringstream out;
  sut.server->RunStdio(in, out);

  std::vector<std::string> replies;
  std::istringstream lines(out.str());
  for (std::string line; std::getline(lines, line);) replies.push_back(line);
  ASSERT_EQ(replies.size(), 7u);

  util::StatusOr<serve::Json> health = serve::Json::Parse(replies[0]);
  ASSERT_TRUE(health.ok());
  EXPECT_EQ(health.value().GetString("status"), "serving");

  for (int i = 1; i <= 5; ++i) {
    util::StatusOr<serve::Json> reply = serve::Json::Parse(replies[i]);
    ASSERT_TRUE(reply.ok());
    EXPECT_TRUE(reply.value().Find("ok")->bool_value());
  }

  util::StatusOr<serve::Json> stats = serve::Json::Parse(replies[6]);
  ASSERT_TRUE(stats.ok());
  const serve::Json& s = stats.value();
  EXPECT_EQ(s.GetNumber("requests"), 5.0);
  EXPECT_GE(s.GetNumber("batches"), 1.0);
  ASSERT_NE(s.Find("reclaimed"), nullptr);
  EXPECT_EQ(s.GetNumber("reclaimed"), 0.0);
  const serve::Json* latency = s.Find("latency");
  ASSERT_NE(latency, nullptr);
  EXPECT_EQ(latency->GetNumber("count"), 5.0);
  EXPECT_GT(latency->GetNumber("p50_us"), 0.0);
  EXPECT_LE(latency->GetNumber("p50_us"), latency->GetNumber("p95_us"));
  EXPECT_LE(latency->GetNumber("p95_us"), latency->GetNumber("p99_us"));
}

// The acceptance contract for raw-text serving: a `disambiguate_text` request
// carrying a single sentence produces a byte-identical reply to the
// pre-segmented `disambiguate` op, and a multi-sentence document reports
// document-level spans plus each mention's sentence index in the JSON reply.
TEST(ServeServerTest, DisambiguateTextMatchesDisambiguateAndIndexesSentences) {
  ServerUnderTest sut;
  const std::string text = SampleServableText();

  serve::Json pre = serve::Json::Object();
  pre.Set("op", serve::Json::Str("disambiguate"));
  pre.Set("text", serve::Json::Str(text));
  serve::Json raw = serve::Json::Object();
  raw.Set("op", serve::Json::Str("disambiguate_text"));
  raw.Set("text", serve::Json::Str(text));

  const std::string want = sut.server->HandleLine(pre.Dump());
  const std::string got = sut.server->HandleLine(raw.Dump());
  EXPECT_EQ(got, want);
  util::StatusOr<serve::Json> parsed = serve::Json::Parse(got);
  ASSERT_TRUE(parsed.ok());
  ASSERT_TRUE(parsed.value().Find("ok")->bool_value());
  const serve::Json* mentions = parsed.value().Find("mentions");
  ASSERT_NE(mentions, nullptr);
  ASSERT_FALSE(mentions->array_items().empty());
  for (const serve::Json& m : mentions->array_items()) {
    ASSERT_NE(m.Find("sentence"), nullptr);
    EXPECT_EQ(m.GetNumber("sentence"), 0.0);
  }

  // Two copies of the sentence joined into one raw document (the sentence
  // carries its own terminal "."): the second copy's mentions report
  // sentence index 1 and offset spans.
  const std::string doc = text + " " + text;
  serve::Json raw_doc = serve::Json::Object();
  raw_doc.Set("op", serve::Json::Str("disambiguate_text"));
  raw_doc.Set("text", serve::Json::Str(doc));
  util::StatusOr<serve::Json> doc_reply =
      serve::Json::Parse(sut.server->HandleLine(raw_doc.Dump()));
  ASSERT_TRUE(doc_reply.ok());
  ASSERT_TRUE(doc_reply.value().Find("ok")->bool_value());
  const serve::Json* doc_mentions = doc_reply.value().Find("mentions");
  ASSERT_NE(doc_mentions, nullptr);
  const auto& items = doc_mentions->array_items();
  ASSERT_EQ(items.size(), 2 * mentions->array_items().size());
  const int64_t offset = static_cast<int64_t>(text::Tokenize(text).size());
  const size_t half = items.size() / 2;
  for (size_t i = 0; i < items.size(); ++i) {
    const serve::Json& m = items[i];
    const serve::Json& base = mentions->array_items()[i % half];
    const bool second = i >= half;
    EXPECT_EQ(m.GetNumber("sentence"), second ? 1.0 : 0.0) << "mention " << i;
    const serve::Json* span = m.Find("span");
    const serve::Json* base_span = base.Find("span");
    ASSERT_NE(span, nullptr);
    ASSERT_NE(base_span, nullptr);
    EXPECT_EQ(span->array_items()[0].number_value(),
              base_span->array_items()[0].number_value() +
                  (second ? static_cast<double>(offset) : 0.0));
    EXPECT_EQ(m.GetNumber("entity"), base.GetNumber("entity"));
  }
}

int ConnectLoopback(int port) {
  const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  BOOTLEG_CHECK(fd >= 0);
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  addr.sin_port = htons(static_cast<uint16_t>(port));
  BOOTLEG_CHECK(::connect(fd, reinterpret_cast<sockaddr*>(&addr),
                          sizeof(addr)) == 0);
  return fd;
}

std::string RequestOverSocket(int fd, const std::string& line) {
  const std::string msg = line + "\n";
  size_t sent = 0;
  while (sent < msg.size()) {
    const ssize_t w = ::send(fd, msg.data() + sent, msg.size() - sent, 0);
    BOOTLEG_CHECK(w > 0);
    sent += static_cast<size_t>(w);
  }
  std::string reply;
  char c;
  while (::recv(fd, &c, 1, 0) == 1) {
    if (c == '\n') break;
    reply.push_back(c);
  }
  return reply;
}

TEST(ServeServerTest, TcpServesConcurrentClients) {
  serve::BatcherOptions options;
  options.max_batch = 8;
  options.max_queue = 256;
  ServerUnderTest sut(options);
  ASSERT_TRUE(sut.server->Start(0).ok());
  const int port = sut.server->port();
  ASSERT_GT(port, 0);

  const std::string text = SampleServableText();
  serve::Json request = serve::Json::Object();
  request.Set("op", serve::Json::Str("disambiguate"));
  request.Set("text", serve::Json::Str(text));
  const std::string request_line = request.Dump();

  constexpr int kClients = 4;
  constexpr int kPerClient = 8;
  std::atomic<int> ok_replies{0};
  std::vector<std::thread> clients;
  clients.reserve(kClients);
  for (int c = 0; c < kClients; ++c) {
    clients.emplace_back([&, c] {
      const int fd = ConnectLoopback(port);
      for (int i = 0; i < kPerClient; ++i) {
        // One malformed request per client, mid-stream.
        const std::string& line = (i == 3) ? "{broken" : request_line;
        const std::string reply = RequestOverSocket(fd, line);
        util::StatusOr<serve::Json> parsed = serve::Json::Parse(reply);
        if (parsed.ok() && parsed.value().Find("ok") != nullptr &&
            parsed.value().Find("ok")->bool_value()) {
          ok_replies.fetch_add(1);
        }
      }
      ::close(fd);
    });
  }
  for (std::thread& t : clients) t.join();
  EXPECT_EQ(ok_replies.load(), kClients * (kPerClient - 1));

  const int fd = ConnectLoopback(port);
  util::StatusOr<serve::Json> stats =
      serve::Json::Parse(RequestOverSocket(fd, "{\"op\":\"stats\"}"));
  ::close(fd);
  ASSERT_TRUE(stats.ok());
  EXPECT_EQ(stats.value().GetNumber("requests"),
            static_cast<double>(kClients * (kPerClient - 1)));
  EXPECT_EQ(stats.value().GetNumber("errors"), static_cast<double>(kClients));
  sut.server->Stop();
}

// --- Hot reload --------------------------------------------------------------

/// A minimal trainer state that passes checkpoint validation (which requires
/// one worker RNG per thread); serving discards it all anyway.
core::TrainerState ServingTrainerState(int64_t step) {
  core::TrainerState state;
  state.steps = step;
  state.nthreads = 1;
  state.master_rng = util::Rng(1).SerializeState();
  state.worker_rngs = {util::Rng(2).SerializeState()};
  return state;
}

TEST(ServeHotReloadTest, PicksNewestCheckpointAndSkipsCorruptOne) {
  const ServeWorld& sw = GetServeWorld();
  const std::string dir = TestDir("hot_reload");

  const auto write_checkpoint = [&](uint64_t seed, int64_t step) {
    core::BootlegModel model(&sw.world.kb, sw.world.vocab.size(),
                             ServingConfig(), seed);
    nn::Adam optimizer(&model.store(), {});
    return core::WriteCheckpoint(dir, ServingTrainerState(step), model.store(),
                                 optimizer, /*retain=*/10);
  };
  ASSERT_TRUE(write_checkpoint(/*seed=*/123, /*step=*/2).ok());

  serve::EngineOptions options;
  options.data_dir = sw.data_dir;
  options.checkpoint_dir = dir;
  auto engine_or = serve::InferenceEngine::Create(options);
  ASSERT_TRUE(engine_or.ok()) << engine_or.status().ToString();
  serve::InferenceEngine& engine = *engine_or.value();
  EXPECT_EQ(engine.loaded_path(), core::CheckpointPath(dir, 2));

  // A newer checkpoint with different weights appears: Reload must pick it
  // up and serve the new parameters (frozen feature table refreshed too).
  ASSERT_TRUE(write_checkpoint(/*seed=*/999, /*step=*/4).ok());
  ASSERT_TRUE(engine.Reload().ok());
  EXPECT_EQ(engine.loaded_path(), core::CheckpointPath(dir, 4));
  {
    core::BootlegModel want(&sw.world.kb, sw.world.vocab.size(),
                            ServingConfig(), /*seed=*/999);
    const std::string name = engine.model().store().param_names().front();
    EXPECT_EQ(engine.model().store().GetParam(name).value().vec(),
              want.store().GetParam(name).value().vec());
  }
  core::BootlegModel::InferenceScratch scratch;
  const std::vector<serve::SentenceResult> after_swap =
      engine.Disambiguate({SampleServableText()}, &scratch);
  ASSERT_EQ(after_swap.size(), 1u);

  // The next checkpoint is corrupted in flight (simulated media fault):
  // recovery must skip it and keep serving step 4.
  util::FaultInjector::Plan plan;
  plan.flip_byte_at = 512;
  plan.flip_mask = 0x40;
  util::FaultInjector::Arm(plan);
  ASSERT_TRUE(write_checkpoint(/*seed=*/555, /*step=*/6).ok());
  util::FaultInjector::Disarm();
  ASSERT_TRUE(fs::exists(core::CheckpointPath(dir, 6)));

  ASSERT_TRUE(engine.Reload().ok());
  EXPECT_EQ(engine.loaded_path(), core::CheckpointPath(dir, 4));

  // Reload with nothing newer is a no-op.
  ASSERT_TRUE(engine.Reload().ok());
  EXPECT_EQ(engine.loaded_path(), core::CheckpointPath(dir, 4));
}

// Health and stats answer on connection threads while the batcher's
// exclusive lane reloads newer checkpoints: the model path they report is
// replaced by each reload, so it must be read as a copy under the engine's
// lock (TSan reports the unsynchronized read otherwise).
TEST(ServeHotReloadTest, HealthAndStatsReadTheModelPathWhileReloadSwapsIt) {
  const ServeWorld& sw = GetServeWorld();
  const std::string dir = TestDir("reload_race");
  const auto write_checkpoint = [&](int64_t step) {
    core::BootlegModel model(&sw.world.kb, sw.world.vocab.size(),
                             ServingConfig(), static_cast<uint64_t>(step));
    nn::Adam optimizer(&model.store(), {});
    return core::WriteCheckpoint(dir, ServingTrainerState(step), model.store(),
                                 optimizer, /*retain=*/10);
  };
  ASSERT_TRUE(write_checkpoint(2).ok());

  serve::EngineOptions engine_options;
  engine_options.data_dir = sw.data_dir;
  engine_options.checkpoint_dir = dir;
  auto engine_or = serve::InferenceEngine::Create(engine_options);
  ASSERT_TRUE(engine_or.ok()) << engine_or.status().ToString();
  serve::InferenceEngine& engine = *engine_or.value();
  serve::ServerCounters counters;
  core::BootlegModel::InferenceScratch scratch;
  serve::MicroBatcher batcher(
      serve::BatcherOptions{},
      [&](const std::vector<serve::BatchItem>& items, int) {
        return engine.DisambiguateBatch(items, &scratch);
      },
      [&] { return engine.Reload(); }, &counters);
  serve::Server server(&engine, &batcher, &counters, nullptr);

  std::atomic<bool> stop{false};
  std::atomic<int> bad_replies{0};
  std::thread reader([&] {
    while (!stop.load()) {
      for (const char* line : {R"({"op":"health"})", R"({"op":"stats"})"}) {
        util::StatusOr<serve::Json> reply =
            serve::Json::Parse(server.HandleLine(line));
        if (!reply.ok() ||
            reply.value().GetString("model").rfind(dir, 0) != 0) {
          bad_replies.fetch_add(1);
        }
      }
    }
  });
  constexpr int64_t kLastStep = 10;
  for (int64_t step = 4; step <= kLastStep; step += 2) {
    const std::string want = core::CheckpointPath(dir, step);
    EXPECT_TRUE(write_checkpoint(step).ok());
    server.HandleLine(R"({"op":"reload"})");
    for (int spin = 0; spin < 2000 && engine.loaded_path() != want; ++spin) {
      std::this_thread::sleep_for(std::chrono::milliseconds(5));
    }
    EXPECT_EQ(engine.loaded_path(), want);
  }
  stop.store(true);
  reader.join();
  batcher.Shutdown();

  EXPECT_EQ(bad_replies.load(), 0);
  EXPECT_EQ(counters.reloads.load(), 4);
  util::StatusOr<serve::Json> health =
      serve::Json::Parse(server.HandleLine(R"({"op":"health"})"));
  ASSERT_TRUE(health.ok());
  EXPECT_EQ(health.value().GetString("model"),
            core::CheckpointPath(dir, kLastStep));
}

// --- Concurrent load (the TSan target) ---------------------------------------

bool SameResult(const serve::SentenceResult& a, const serve::SentenceResult& b) {
  if (a.mentions.size() != b.mentions.size()) return false;
  for (size_t i = 0; i < a.mentions.size(); ++i) {
    if (a.mentions[i].alias != b.mentions[i].alias ||
        a.mentions[i].entity != b.mentions[i].entity ||
        a.mentions[i].span_start != b.mentions[i].span_start) {
      return false;
    }
  }
  return true;
}

TEST(ServeStressTest, ConcurrentClientsWithHotReloadStayConsistent) {
  const ServeWorld& sw = GetServeWorld();
  const std::string dir = TestDir("stress_ckpt");
  {
    core::BootlegModel model(&sw.world.kb, sw.world.vocab.size(),
                             ServingConfig(), /*seed=*/123);
    nn::Adam optimizer(&model.store(), {});
    ASSERT_TRUE(core::WriteCheckpoint(dir, ServingTrainerState(2),
                                      model.store(), optimizer, 10)
                    .ok());
  }
  serve::EngineOptions engine_options;
  engine_options.data_dir = sw.data_dir;
  engine_options.checkpoint_dir = dir;
  auto engine_or = serve::InferenceEngine::Create(engine_options);
  ASSERT_TRUE(engine_or.ok()) << engine_or.status().ToString();
  serve::InferenceEngine& engine = *engine_or.value();

  std::vector<std::string> texts;
  for (const data::Sentence& s : sw.corpus.dev) {
    if (!s.mentions.empty()) texts.push_back(JoinTokens(s.tokens));
    if (texts.size() == 6) break;
  }
  ASSERT_GE(texts.size(), 2u);

  // Expected results, computed serially before any concurrency starts.
  std::vector<serve::SentenceResult> expected;
  {
    core::BootlegModel::InferenceScratch scratch;
    for (const std::string& t : texts) {
      expected.push_back(engine.Disambiguate({t}, &scratch)[0]);
    }
  }

  serve::ServerCounters counters;
  serve::BatcherOptions options;
  options.max_batch = 8;
  options.max_queue = 256;
  options.workers = 2;
  std::vector<core::BootlegModel::InferenceScratch> scratch(2);
  serve::MicroBatcher batcher(
      options,
      [&](const std::vector<serve::BatchItem>& batch, int worker) {
        return engine.DisambiguateBatch(batch,
                                        &scratch[static_cast<size_t>(worker)]);
      },
      [&] { return engine.Reload(); }, &counters);

  constexpr int kThreads = 4;
  constexpr int kPerThread = 15;
  std::atomic<int> mismatches{0};
  std::vector<std::thread> clients;
  clients.reserve(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    clients.emplace_back([&, t] {
      for (int i = 0; i < kPerThread; ++i) {
        const size_t which = static_cast<size_t>(t + i) % texts.size();
        auto future = batcher.Submit(texts[which]);
        if (t == 0 && i == kPerThread / 2) batcher.RequestReload();
        util::StatusOr<serve::SentenceResult> result = future.get();
        if (!result.ok() || !SameResult(result.value(), expected[which])) {
          mismatches.fetch_add(1);
        }
      }
    });
  }
  for (std::thread& t : clients) t.join();
  batcher.Shutdown();

  EXPECT_EQ(mismatches.load(), 0);
  EXPECT_EQ(counters.requests.load(), kThreads * kPerThread);
  EXPECT_EQ(counters.batched_sentences.load(), kThreads * kPerThread);
  EXPECT_GE(counters.batches.load(), 1);
  // The reload resolved to the checkpoint already loaded — still a success.
  EXPECT_EQ(counters.reloads.load(), 1);
}

}  // namespace
}  // namespace bootleg
