#include "workloads.h"

#include <sys/resource.h>

#include <algorithm>
#include <array>
#include <atomic>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <filesystem>
#include <memory>
#include <mutex>

#include "accounting.h"
#include "backend/backend.h"
#include "baseline/prior_model.h"
#include "core/model.h"
#include "core/model_loader.h"
#include "core/trainer.h"
#include "data/corpus_io.h"
#include "data/example.h"
#include "data/mention_extractor.h"
#include "data/weak_label.h"
#include "eval/evaluator.h"
#include "index/live_index.h"
#include "loadgen.h"
#include "obs/trace.h"
#include "serve/inference_engine.h"
#include "serve/json.h"
#include "server_process.h"
#include "tensor/tensor.h"
#include "text/vocabulary.h"
#include "util/string_util.h"

namespace repobench {
namespace {

using namespace bootleg;  // NOLINT
namespace fs = std::filesystem;
using Clock = std::chrono::steady_clock;
using serve::Json;
using util::Status;

double Since(Clock::time_point t) {
  return std::chrono::duration<double>(Clock::now() - t).count();
}

std::string Fmt(const char* fmt, double a, double b = 0, double c = 0,
                double d = 0, double e = 0, double f = 0) {
  char buf[512];
  std::snprintf(buf, sizeof(buf), fmt, a, b, c, d, e, f);
  return buf;
}

// --- Fixed workload parameters ---------------------------------------------

constexpr int kReadConns = 3;        // plus the control connection: 4 = nproc
constexpr int kSetupReps = 15;       // set-ups per run; setup_s is the median
constexpr size_t kDocSentences = 8;
constexpr int kTrainThreads = 3;
constexpr int kEvalProcs = 9;         // dev evaluations of the trained model
                                      // in fresh processes (train)
constexpr double kAddRate = 2.0;     // add_entity per second (documents_live)
constexpr int kAddProbes = 5;
// Host contention guard: each serving slice records the share of CPU time
// the hypervisor stole while it ran (/proc/stat), and the latency and
// CPU-throughput metrics pool the calmest slices: steal at or below this
// quantile of the run's values. Replies of every slice still count toward
// correctness.
constexpr double kCalmQuantile = 1.0 / 3.0;
// Serving phases: a warm-up, then rounds of one slice per phase; a run has
// as many rounds as fit in --seconds.
constexpr double kWarmSeconds = 0.5;
constexpr double kLoSliceSeconds = 0.45, kHiSliceSeconds = 0.45,
                 kSatSliceSeconds = 0.35;
constexpr double kRoundSeconds =
    kLoSliceSeconds + kHiSliceSeconds + kSatSliceSeconds;

struct ServingParams {
  const char* op;
  double lo_rate;           // requests/s
  double hi_rate;           // requests/s
  int sat_outstanding;      // per read connection; the total stays below
                            // the server's 64-deep queue
  double latency_limit_ms;  // goodput limit in the saturation phase
  bool store;               // serve from an int8 store, with live adds
};

ServingParams ParamsFor(const std::string& workload) {
  if (workload == "documents_live") {
    return {"disambiguate_text", 50.0, 100.0, 4, 100.0, true};
  }
  return {"disambiguate", 500.0, 1000.0, 16, 50.0, false};
}

/// Optimizer steps of the serving model's training (untimed preparation).
constexpr int kServingModelSteps = 400;
/// Time limit of each bootleg_cli preparation step and child runner process.
constexpr double kPrepTimeoutS = 60.0;

// --- Dataset, training, export ---------------------------------------------

struct Dataset {
  kb::KnowledgeBase kb;
  kb::CandidateMap candidates;
  text::Vocabulary vocab;
  data::Corpus corpus;
};

Status LoadDataset(const std::string& dir, Dataset* ds) {
  BOOTLEG_RETURN_IF_ERROR(ds->kb.Load(dir + "/kb.bin"));
  BOOTLEG_RETURN_IF_ERROR(ds->candidates.Load(dir + "/candidates.bin"));
  BOOTLEG_RETURN_IF_ERROR(ds->vocab.Load(dir + "/vocab.bin"));
  return data::LoadCorpus(dir + "/corpus.bin", &ds->corpus);
}

/// Runs `bootleg_cli ARGS...` (untimed preparation).
Status RunCli(const Options& o, const std::vector<std::string>& args) {
  return RunToCompletion(o.bin_dir + "/bootleg_cli", args, kPrepTimeoutS).status();
}

/// `bootleg_cli gen --scale main`: the main-scale world of the run's seed.
Status GenerateData(const Options& o, const std::string& dir) {
  return RunCli(o, {"gen", "--out", dir, "--scale", "main", "--seed",
                    std::to_string(o.seed)});
}

/// CPU time (user + system, all threads) this process has used, in seconds.
double CpuSecondsSelf() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  auto seconds = [](const timeval& tv) {
    return static_cast<double>(tv.tv_sec) + 1e-6 * static_cast<double>(tv.tv_usec);
  };
  return seconds(usage.ru_utime) + seconds(usage.ru_stime);
}

/// Everything `bootleg_cli train` builds before calling core::Train, with
/// the time of each step. Heap-allocated: the model points into it.
struct Prepared {
  Dataset ds;
  data::EntityCounts counts;
  std::vector<data::SentenceExample> examples;
  std::unique_ptr<core::BootlegModel> model;
  double load_s = 0, weak_label_s = 0, build_s = 0, model_s = 0;
  double cpu_s = 0;  // CPU time of the whole set-up
  double total_s() const { return load_s + weak_label_s + build_s + model_s; }
};

Status Prepare(const std::string& data_dir, Prepared* p) {
  const double cpu = CpuSecondsSelf();
  auto t = Clock::now();
  BOOTLEG_RETURN_IF_ERROR(LoadDataset(data_dir, &p->ds));
  p->load_s = Since(t);
  t = Clock::now();
  data::ApplyWeakLabeling(p->ds.kb, &p->ds.corpus.train);
  p->weak_label_s = Since(t);
  t = Clock::now();
  p->counts = data::EntityCounts::FromTraining(p->ds.corpus.train);
  const data::ExampleBuilder builder(&p->ds.candidates, &p->ds.vocab);
  p->examples = builder.BuildAll(p->ds.corpus.train, {});
  p->build_s = Since(t);
  t = Clock::now();
  core::BootlegConfig config;  // bootleg_cli's "full" preset
  config.encoder.max_len = 32;
  p->model = std::make_unique<core::BootlegModel>(
      &p->ds.kb, p->ds.vocab.size(), config, /*seed=*/7);
  p->model->SetEntityCounts(&p->counts);
  p->model_s = Since(t);
  p->cpu_s = CpuSecondsSelf() - cpu;
  return Status::OK();
}

/// Cumulative CPU jiffies from /proc/stat: stolen by the hypervisor for
/// other guests, and all (zeros where the kernel does not report them).
struct CpuCounters {
  int64_t steal = 0;
  int64_t total = 0;
};

CpuCounters ReadCpuCounters() {
  CpuCounters out;
  FILE* f = std::fopen("/proc/stat", "r");
  if (f == nullptr) return out;
  long long v[8] = {0, 0, 0, 0, 0, 0, 0, 0};
  if (std::fscanf(f, "cpu %lld %lld %lld %lld %lld %lld %lld %lld", &v[0],
                  &v[1], &v[2], &v[3], &v[4], &v[5], &v[6], &v[7]) >= 4) {
    out.steal = v[7];
    for (long long x : v) out.total += x;
  }
  std::fclose(f);
  return out;
}

/// Stolen share of all CPU time between two readings, in percent.
double StealPercent(const CpuCounters& from, const CpuCounters& to) {
  const double total = static_cast<double>(to.total - from.total);
  return total > 0 ? 100.0 * static_cast<double>(to.steal - from.steal) / total
                   : 0.0;
}

class StealMeter {
 public:
  double Percent() const { return StealPercent(start_, ReadCpuCounters()); }

 private:
  const CpuCounters start_ = ReadCpuCounters();
};

/// Forwards to the trained model and records when each optimizer group
/// starts: core::Train makes one Loss call per sentence, group by group of
/// TrainOptions::batch_size, so every batch_size-th call opens a group (the
/// previous group's reduction and Adam step have finished by then).
class GroupTimedModel : public core::TrainableModel {
 public:
  GroupTimedModel(core::TrainableModel* inner, size_t sentences, int64_t group)
      : inner_(inner),
        group_(group),
        starts_(sentences / static_cast<size_t>(group) + 1) {}

  using core::TrainableModel::Loss;
  tensor::Var Loss(const data::SentenceExample& example, bool train,
                   util::Rng* rng) override {
    const int64_t n = calls_.fetch_add(1, std::memory_order_relaxed);
    if (n % group_ == 0 && static_cast<size_t>(n / group_) < starts_.size()) {
      starts_[static_cast<size_t>(n / group_)] = Clock::now();
    }
    return inner_->Loss(example, train, rng);
  }
  bool SupportsParallelLoss() const override {
    return inner_->SupportsParallelLoss();
  }
  nn::ParameterStore& store() override { return inner_->store(); }

  /// Wall time of every whole group, in ms (valid after core::Train).
  void Collect(std::vector<double>* group_ms) const {
    for (size_t k = 0; k + 1 < starts_.size(); ++k) {
      group_ms->push_back(
          std::chrono::duration<double, std::milli>(starts_[k + 1] - starts_[k])
              .count());
    }
  }

 private:
  core::TrainableModel* const inner_;
  const int64_t group_;
  std::atomic<int64_t> calls_{0};
  std::vector<Clock::time_point> starts_;  // slot k written once
};

/// One epoch with the data-parallel trainer; the fixed worker count makes
/// the trajectory deterministic.
core::TrainStats TrainEpoch(Prepared* p, std::vector<double>* group_ms) {
  core::TrainOptions options;
  options.epochs = 1;
  options.num_threads = kTrainThreads;
  core::Trainable<core::BootlegModel> trainable(p->model.get());
  GroupTimedModel timed(&trainable, p->examples.size(), options.batch_size);
  const core::TrainStats stats = core::Train(&timed, p->examples, options);
  timed.Collect(group_ms);
  return stats;
}

// --- Requests, gold and oracle ---------------------------------------------

/// The requests of a serving workload with their gold mentions (document-
/// level spans) and, per sentence, its token count.
struct Workset {
  std::vector<Request> requests;
  std::vector<std::string> texts;
  std::vector<std::vector<SpanEntity>> gold;
  std::vector<std::string> sentence_texts;  // every dev sentence, in order
  int64_t gold_skipped = 0;  // dev sentences whose text re-tokenizes
                             // differently: their gold is left out
};

Workset BuildWorkset(const data::Corpus& corpus, const ServingParams& params) {
  Workset w;
  std::vector<std::vector<SpanEntity>> sentence_gold;
  std::vector<int64_t> sentence_tokens;
  for (const data::Sentence& s : corpus.dev) {
    std::string text = util::Join(s.tokens, " ");
    std::vector<SpanEntity> gold;
    if (text::Tokenize(text) == s.tokens) {
      for (const data::Mention& m : s.mentions) {
        if (m.labeled && !m.weak_labeled && m.gold != kb::kInvalidId) {
          gold.push_back({m.span_start, m.span_end, m.gold});
        }
      }
    } else {
      ++w.gold_skipped;
    }
    sentence_tokens.push_back(static_cast<int64_t>(text::Tokenize(text).size()));
    sentence_gold.push_back(std::move(gold));
    w.sentence_texts.push_back(std::move(text));
  }
  const size_t group = params.store ? kDocSentences : 1;
  for (size_t first = 0; first + group <= w.sentence_texts.size();
       first += group) {
    std::string text;
    std::vector<SpanEntity> gold;
    int64_t offset = 0;
    for (size_t i = first; i < first + group; ++i) {
      if (i > first) text += " ";
      text += w.sentence_texts[i];
      for (SpanEntity g : sentence_gold[i]) {
        g.start += offset;
        g.end += offset;
        gold.push_back(g);
      }
      offset += sentence_tokens[i];
    }
    Json req = Json::Object();
    req.Set("op", Json::Str(params.op));
    req.Set("text", Json::Str(text));
    w.requests.push_back({req.Dump(), static_cast<int64_t>(group)});
    w.texts.push_back(std::move(text));
    w.gold.push_back(std::move(gold));
  }
  return w;
}

/// Compares one served reply with the oracle's result. On an ok reply that
/// matches, fills `served` with its (span, entity) pairs.
Outcome Judge(const serve::SentenceResult& want, const std::string& reply,
              std::vector<SpanEntity>* served) {
  auto parsed = Json::Parse(reply);
  if (!parsed.ok() || !parsed.value().is_object()) return Outcome::kOtherError;
  const Json& r = parsed.value();
  const Json* ok = r.Find("ok");
  if (ok == nullptr || !ok->bool_value()) {
    return OutcomeFromCode(r.GetString("code"));
  }
  const Json* mentions = r.Find("mentions");
  if (mentions == nullptr || !mentions->is_array() ||
      mentions->array_items().size() != want.mentions.size()) {
    return Outcome::kMismatch;
  }
  for (size_t i = 0; i < want.mentions.size(); ++i) {
    const Json& m = mentions->array_items()[i];
    const serve::ServedMention& w = want.mentions[i];
    const Json* span = m.Find("span");
    if (span == nullptr || !span->is_array() ||
        span->array_items().size() != 2 ||
        span->array_items()[0].number_value() != static_cast<double>(w.span_start) ||
        span->array_items()[1].number_value() != static_cast<double>(w.span_end) ||
        m.GetString("alias") != w.alias ||
        m.GetNumber("entity", -2) != static_cast<double>(w.entity) ||
        m.GetString("title") != w.title ||
        m.GetNumber("candidates", -1) != static_cast<double>(w.num_candidates) ||
        m.GetNumber("sentence", -1) != static_cast<double>(w.sentence_index) ||
        Json::Number(m.GetNumber("prior", -1)).Dump() !=
            Json::Number(static_cast<double>(w.prior)).Dump()) {
      return Outcome::kMismatch;
    }
    served->push_back({w.span_start, w.span_end, w.entity});
  }
  return Outcome::kOk;
}

// --- Live adds -------------------------------------------------------------

/// The k-th never-trained entity of a run: a fresh single-token title that is
/// also its only alias, with the types, coarse type, gender and up to three
/// relations of an existing entity picked from the seed.
struct AddPlan {
  std::string title;
  kb::EntityId like = 0;
};

AddPlan PlanAdd(const kb::KnowledgeBase& kb, uint64_t seed, int64_t k) {
  AddPlan plan;
  plan.title = "zqnew" + std::to_string(seed) + "x" + std::to_string(k);
  plan.like = static_cast<kb::EntityId>(
      (seed * 2654435761ULL + static_cast<uint64_t>(k) * 40503ULL) %
      static_cast<uint64_t>(kb.num_entities()));
  return plan;
}

std::vector<kb::Triple> SubjectTriples(const kb::KnowledgeBase& kb,
                                       kb::EntityId e) {
  std::vector<kb::Triple> out;
  for (const kb::Triple& t : kb.triples()) {
    if (t.subject == e && out.size() < 3) out.push_back(t);
  }
  return out;
}

std::string AddLine(const kb::KnowledgeBase& kb, const AddPlan& plan) {
  const kb::Entity& like = kb.entity(plan.like);
  Json req = Json::Object();
  req.Set("op", Json::Str("add_entity"));
  req.Set("title", Json::Str(plan.title));
  req.Set("coarse", Json::Str(kb::CoarseTypeName(like.coarse_type)));
  req.Set("gender", Json::Str(std::string(1, like.gender)));
  Json types = Json::Array();
  for (kb::TypeId t : like.types) types.Append(Json::Str(kb.type(t).name));
  req.Set("types", std::move(types));
  Json rels = Json::Array();
  for (const kb::Triple& t : SubjectTriples(kb, plan.like)) {
    Json r = Json::Object();
    r.Set("relation", Json::Str(kb.relation(t.relation).name));
    r.Set("object", Json::Str(kb.entity(t.object).title));
    rels.Append(std::move(r));
  }
  req.Set("relations", std::move(rels));
  Json aliases = Json::Array();
  Json a = Json::Object();
  a.Set("alias", Json::Str(plan.title));
  a.Set("prior", Json::Number(0.5));
  aliases.Append(std::move(a));
  req.Set("aliases", std::move(aliases));
  return req.Dump();
}

index::DeltaEntity AddSpec(const kb::KnowledgeBase& kb, const AddPlan& plan) {
  const kb::Entity& like = kb.entity(plan.like);
  index::DeltaEntity spec;
  spec.title = plan.title;
  spec.coarse = like.coarse_type;
  spec.gender = like.gender;
  spec.types = like.types;
  for (const kb::Triple& t : SubjectTriples(kb, plan.like)) {
    spec.triples.push_back({t.relation, t.object});
  }
  spec.aliases.push_back({plan.title, 0.5f});
  return spec;
}

std::string ReadBackLine(const std::string& alias) {
  Json req = Json::Object();
  req.Set("op", Json::Str("disambiguate"));
  req.Set("text", Json::Str("we met " + alias + " there ."));
  return req.Dump();
}

// --- FLOP model ------------------------------------------------------------

/// Analytic FLOPs (2 per multiply-add) of the dense products for one
/// sentence of `tokens` tokens and `rows` candidate rows, at the served
/// model's shapes (hidden 64, ff 128, one encoder block, one Bootleg layer).
struct Flops {
  double encode = 0;
  double attention = 0;
};

Flops SentenceFlops(int64_t tokens, int64_t rows) {
  const double h = 64, f = 128;
  const double l = static_cast<double>(std::min<int64_t>(tokens, 32));
  const double r = static_cast<double>(rows);
  Flops out;
  // Encoder block: Q/K/V/O projections, scores + context, feed-forward.
  out.encode = l * (8 * h * h + 4 * h * f) + 4 * l * l * h;
  // Phrase2Ent (rows attend to tokens), Ent2Ent (rows self-attend), each
  // with projections and feed-forward, plus one KG2Ent adjacency product.
  const double phrase2ent = 4 * r * h * h + 4 * l * h * h + 4 * r * l * h +
                            4 * r * h * f;
  const double ent2ent = 8 * r * h * h + 4 * r * r * h + 4 * r * h * f;
  const double kg2ent = 2 * r * r * h;
  out.attention = phrase2ent + ent2ent + kg2ent;
  return out;
}

/// Mean FLOPs per request, from the oracle's replies (candidate rows per
/// sentence) and the requests' sentence token counts.
Flops MeanRequestFlops(const Workset& w,
                       const std::vector<serve::SentenceResult>& expected,
                       size_t group) {
  Flops total;
  for (size_t i = 0; i < expected.size(); ++i) {
    std::vector<int64_t> rows(group, 0);
    for (const serve::ServedMention& m : expected[i].mentions) {
      const size_t s = static_cast<size_t>(m.sentence_index);
      if (s < group) rows[s] += m.num_candidates;
    }
    for (size_t s = 0; s < group; ++s) {
      const std::string& text = w.sentence_texts[i * group + s];
      const Flops f = SentenceFlops(
          static_cast<int64_t>(text::Tokenize(text).size()), rows[s]);
      total.encode += f.encode;
      total.attention += f.attention;
    }
  }
  const double n = static_cast<double>(std::max<size_t>(expected.size(), 1));
  return {total.encode / n, total.attention / n};
}

// --- Serving passes --------------------------------------------------------

const std::vector<std::string> kStatsCounters = {
    "overloaded",        "shed",            "errors",
    "batches",           "cache_hits",      "cache_misses",
    "store.gather_rows", "store.cold_faults", "store.evictions",
    "store.resident_bytes", "store.generation"};
const std::vector<std::string> kStatsHistograms = {"serve.queue_wait_us",
                                                   "store.gather_us"};
const std::vector<std::string> kInferSpans = {
    "infer.encode",       "infer.type_pred", "infer.features",
    "infer.kg_adjacency", "infer.attention", "infer.score"};
const std::vector<std::string> kServeSpans = {"serve.batch", "serve.assemble",
                                             "serve.predict"};

util::StatusOr<StatsValues> Snapshot(LoadClient* client) {
  auto reply = client->Call("{\"op\":\"stats\"}", 10.0);
  if (!reply.ok()) return reply.status();
  auto parsed = Json::Parse(reply.value());
  if (!parsed.ok()) return parsed.status();
  StatsValues v = ReadStats(parsed.value(), kStatsCounters, kStatsHistograms,
                            kServeSpans);
  Accumulate(&v, ReadStats(parsed.value(), {}, {}, kInferSpans));
  return v;
}

/// One load phase, run as one slice per round.
struct Phase {
  PhaseTally total;                // every slice pooled
  std::vector<PhaseTally> slices;  // one per round
  std::vector<double> steal_pct;   // host steal while each slice ran
  std::vector<double> server_cpu_s;  // server CPU time while each slice ran
  PhaseTally calm;                 // the calm slices pooled
  double calm_server_cpu_s = 0;
  int calm_slices = 0;
  StatsValues delta;               // server-side work over all slices

  void PoolCalm() {
    const double limit = Percentile(steal_pct, kCalmQuantile);
    for (size_t i = 0; i < slices.size(); ++i) {
      if (steal_pct[i] > limit) continue;
      calm.Merge(slices[i]);
      calm_server_cpu_s += server_cpu_s[i];
      ++calm_slices;
    }
  }
};

/// Everything one server lifetime produced.
struct Pass {
  std::vector<double> setup_s;       // server CPU time until the first health
  std::vector<double> setup_wall_s;  // ... and the wall time
  PhaseTally warm;
  Phase lo, hi, sat;
  Writer writer;
  StatsValues end;
  double peak_rss_mb = 0;
  SpanF1 f1;
  int64_t covered = 0;  // distinct requests with a matching served reply


  std::vector<const PhaseTally*> timed() const {
    return {&lo.total, &hi.total, &sat.total, &writer.tally};
  }
  int64_t sent() const {
    int64_t n = warm.sent;
    for (const PhaseTally* t : timed()) n += t->sent;
    return n;
  }
  int64_t failed() const {
    int64_t n = warm.failed();
    for (const PhaseTally* t : timed()) n += t->failed();
    return n;
  }
  double ok_frac() const {
    int64_t ok = 0, sent = 0;
    for (const PhaseTally* t : timed()) {
      ok += t->ok();
      sent += t->sent;
    }
    return sent == 0 ? 0.0 : static_cast<double>(ok) / static_cast<double>(sent);
  }
};

struct ServingContext {
  const Options* options;
  ServingParams params;
  std::string data_dir, model_path, export_root;
  const kb::KnowledgeBase* kb;  // base KB (the oracle engine's)
  Workset work;
  std::vector<serve::SentenceResult> expected;
  double store_mb = 0;  // mapped size of the exported store
};

Status RunPass(const ServingContext& ctx, bool traced, int pass_index,
               Pass* pass, Report* report) {
  const Options& o = *ctx.options;
  auto server_args = [&](const std::string& store_root) {
    std::vector<std::string> args = {"--data", ctx.data_dir, "--model",
                                     ctx.model_path};
    if (ctx.params.store) {
      args.insert(args.end(), {"--store_dir", store_root, "--resident_budget_mb",
                               Fmt("%.6f", ctx.store_mb / 2.0)});
    }
    if (!traced) args.push_back("--no_trace");
    return args;
  };
  // The load server gets a fresh copy of the exported generation per pass:
  // live adds publish new generations into it.
  const std::string root = o.work_dir + "/serve_store_" + std::to_string(pass_index);
  if (ctx.params.store) {
    std::error_code ec;
    fs::copy(ctx.export_root, root, fs::copy_options::recursive, ec);
    if (ec) return Status::IOError("copying the store: " + ec.message());
  }

  // Set-up samples: the load server's own start, then a start-and-stop of
  // a second server after every round of slices (and the rest at the end),
  // so the median spans the run rather than one moment of the host's speed.
  // Those servers open the exported store itself: they add nothing to it.
  auto start_server = [&](const std::vector<std::string>& a)
      -> util::StatusOr<std::unique_ptr<ServerProcess>> {
    const auto t0 = Clock::now();
    auto started = ServerProcess::Start(o.bin_dir + "/bootleg_serve", a, 60.0);
    if (!started.ok()) return started.status();
    auto probe = LoadClient::Connect(started.value()->port(), 0);
    if (!probe.ok()) return probe.status();
    auto health = probe.value()->Call("{\"op\":\"health\"}", 30.0);
    if (!health.ok()) return health.status();
    pass->setup_wall_s.push_back(Since(t0));
    pass->setup_s.push_back(started.value()->CpuSeconds());
    if (health.value().find("\"serving\"") == std::string::npos) {
      return Status::Internal("unexpected health reply: " + health.value());
    }
    return started;
  };
  auto setup_sample = [&]() -> Status {
    auto started = start_server(server_args(ctx.export_root));
    if (!started.ok()) return started.status();
    started.value()->Stop();
    return Status::OK();
  };
  auto started = start_server(server_args(root));
  if (!started.ok()) return started.status();
  const std::unique_ptr<ServerProcess> server = std::move(started).value();

  auto connected = LoadClient::Connect(server->port(), kReadConns);
  if (!connected.ok()) return connected.status();
  LoadClient& client = *connected.value();

  // The first matching reply to each request is judged field by field
  // against the oracle and kept; later replies must equal it byte for byte
  // (a differing one is judged in full), which keeps the client's share of
  // the host's CPU small.
  std::vector<std::string> verified(ctx.work.requests.size());
  const ReplyChecker check = [&](size_t key, const std::string& reply) {
    if (!verified[key].empty() && reply == verified[key]) return Outcome::kOk;
    std::vector<SpanEntity> served;
    const Outcome outcome = Judge(ctx.expected[key], reply, &served);
    if (outcome == Outcome::kOk && verified[key].empty()) {
      verified[key] = reply;
      ++pass->covered;
      AddSpanMatches(ctx.work.gold[key], served, &pass->f1);
    }
    return outcome;
  };

  Writer* writer = nullptr;
  const int64_t base_entities = ctx.kb->num_entities();
  if (ctx.params.store) {
    writer = &pass->writer;
    writer->rate = kAddRate;
    writer->tally.name = "add_entity";
    const kb::KnowledgeBase& kb = *ctx.kb;
    const uint64_t seed = o.seed;
    writer->add_line = [&kb, seed](int64_t k) {
      return AddLine(kb, PlanAdd(kb, seed, k));
    };
    writer->read_line = [&kb, seed](int64_t k) {
      return ReadBackLine(PlanAdd(kb, seed, k).title);
    };
    writer->check_add = [](int64_t k, const std::string& reply) {
      auto parsed = Json::Parse(reply);
      if (!parsed.ok()) return Outcome::kOtherError;
      const Json& r = parsed.value();
      const Json* ok = r.Find("ok");
      if (ok == nullptr || !ok->bool_value()) {
        return OutcomeFromCode(r.GetString("code"));
      }
      // gen_000001 is the export; the k-th add publishes generation k + 2.
      return r.GetNumber("generation") == static_cast<double>(k + 2)
                 ? Outcome::kOk
                 : Outcome::kMismatch;
    };
    writer->check_read = [&kb, seed, base_entities](int64_t k,
                                                   const std::string& reply) {
      auto parsed = Json::Parse(reply);
      if (!parsed.ok()) return Outcome::kOtherError;
      const Json& r = parsed.value();
      const Json* ok = r.Find("ok");
      if (ok == nullptr || !ok->bool_value()) {
        return OutcomeFromCode(r.GetString("code"));
      }
      const std::string title = PlanAdd(kb, seed, k).title;
      const Json* mentions = r.Find("mentions");
      if (mentions == nullptr || !mentions->is_array()) return Outcome::kMismatch;
      for (const Json& m : mentions->array_items()) {
        if (m.GetString("alias") == title && m.GetString("title") == title &&
            m.GetNumber("entity") == static_cast<double>(base_entities + k)) {
          return Outcome::kOk;
        }
      }
      return Outcome::kMismatch;
    };
  }

  // Rounds of [lo | hi | sat] slices after a warm-up: phases interleave, so
  // a slow spell on the host lands on every phase, and each metric pools a
  // phase's calmest slices. `stats` snapshots bracket every slice.
  const ServingParams& p = ctx.params;
  const int rounds = std::max(2, static_cast<int>(std::lround(o.seconds / kRoundSeconds)));
  const PhaseSpec warm{"warmup", kWarmSeconds, p.lo_rate, 0, p.latency_limit_ms};
  const PhaseSpec lo{"lo", kLoSliceSeconds, p.lo_rate, 0, p.latency_limit_ms};
  const PhaseSpec hi{"hi", kHiSliceSeconds, p.hi_rate, 0, p.latency_limit_ms};
  const PhaseSpec sat{"sat", kSatSliceSeconds, 0.0, p.sat_outstanding,
                      p.latency_limit_ms};
  BOOTLEG_RETURN_IF_ERROR(
      client.Run(warm, ctx.work.requests, check, nullptr, &pass->warm));
  auto before = Snapshot(&client);
  if (!before.ok()) return before.status();
  for (int r = 0; r < rounds; ++r) {
    for (auto [spec, phase] : {std::pair{&lo, &pass->lo}, std::pair{&hi, &pass->hi},
                               std::pair{&sat, &pass->sat}}) {
      PhaseTally slice;
      const StealMeter steal;
      const double cpu = server->CpuSeconds();
      BOOTLEG_RETURN_IF_ERROR(
          client.Run(*spec, ctx.work.requests, check, writer, &slice));
      phase->server_cpu_s.push_back(server->CpuSeconds() - cpu);
      phase->steal_pct.push_back(steal.Percent());
      auto after = Snapshot(&client);
      if (!after.ok()) return after.status();
      Accumulate(&phase->delta, Delta(after.value(), before.value()));
      before = std::move(after);
      phase->total.name = slice.name;
      phase->total.Merge(slice);
      phase->slices.push_back(std::move(slice));
    }
    if (static_cast<int>(pass->setup_s.size()) < kSetupReps) {
      BOOTLEG_RETURN_IF_ERROR(setup_sample());
    }
  }
  pass->end = before.value();
  while (static_cast<int>(pass->setup_s.size()) < kSetupReps) {
    BOOTLEG_RETURN_IF_ERROR(setup_sample());
  }
  for (Phase* phase : {&pass->lo, &pass->hi, &pass->sat}) phase->PoolCalm();

  pass->peak_rss_mb = server->PeakRssMb();
  if (!server->Stop()) {
    return Status::Internal("bootleg_serve did not exit cleanly on SIGTERM: " +
                            server->stderr_tail());
  }

  const std::string tag = traced ? "traced " : "";
  for (const Phase* phase : {&pass->lo, &pass->hi, &pass->sat}) {
    std::string steal = tag + phase->total.name + " host steal % per slice:";
    for (double pct : phase->steal_pct) steal += Fmt(" %.1f", pct);
    report->Note(steal + Fmt(" (metrics pool the %.0f calmest)", phase->calm_slices));
  }
  for (const PhaseTally* t : {&pass->warm, &pass->lo.total, &pass->hi.total,
                              &pass->sat.total, &pass->writer.tally}) {
    if (t->sent > 0) report->Note(tag + t->Summary());
  }
  return Status::OK();
}

/// Client mean latency of a phase in microseconds.
double MeanUs(const PhaseTally& t) {
  double sum = 0;
  for (double v : t.latency_ms) sum += v;
  return t.latency_ms.empty() ? 0.0 : 1000.0 * sum / static_cast<double>(t.latency_ms.size());
}

double PerCount(const StatsValues& d, const std::string& name) {
  const double n = Get(d, name + "#count");
  return n > 0 ? Get(d, name + "#sum_us") / n : 0.0;
}

/// Request waterfall of one phase: client mean = queue wait + batch time
/// (every member waits for its whole batch) + remainder (framing, parse,
/// serialize, network, client). Batch = assemble + predict + other.
double NetRemainderUs(const PhaseTally& t, const StatsValues& d) {
  return MeanUs(t) - PerCount(d, "serve.queue_wait_us") -
         PerCount(d, "serve.batch");
}

void AddServingLayers(const ServingContext& ctx, const Pass& untraced,
                      const Pass& traced, Report* report) {
  const StatsValues& hi = traced.hi.delta;
  const StatsValues& lo = traced.lo.delta;
  const double sentences =
      std::max<double>(1.0, static_cast<double>(traced.hi.total.sentences_ok));
  auto per_sentence = [&](const std::string& span) {
    return Get(hi, span + "#sum_us") / sentences;
  };
  double stages_us = 0;
  for (const std::string& span : kInferSpans) stages_us += Get(hi, span + "#sum_us");

  report->Set("net.client_mean_us", MeanUs(traced.hi.total));
  report->Set("net.remainder_us", NetRemainderUs(traced.lo.total, lo));
  report->Set("serve.queue_wait_us", PerCount(lo, "serve.queue_wait_us"));
  const double sat_batches = Get(traced.sat.delta, "batches");
  report->Set("serve.batch_size",
              sat_batches > 0 ? static_cast<double>(traced.sat.total.sentences_ok) / sat_batches : 0.0);
  double server_failed = 0;
  int64_t mismatches = 0;
  for (const StatsValues* d : {&traced.lo.delta, &traced.hi.delta, &traced.sat.delta}) {
    server_failed += Get(*d, "overloaded") + Get(*d, "shed") + Get(*d, "errors");
  }
  for (const PhaseTally* t : traced.timed()) {
    mismatches += t->outcomes[static_cast<size_t>(Outcome::kMismatch)];
  }
  report->Set("serve.failed", server_failed + static_cast<double>(mismatches));
  const double lookups = Get(hi, "cache_hits") + Get(hi, "cache_misses");
  report->Set("serve.cache_hit_rate", lookups > 0 ? Get(hi, "cache_hits") / lookups : 0.0);
  report->Set("serve.assemble_us", per_sentence("serve.assemble"));
  report->Set("serve.predict_us", per_sentence("serve.predict"));

  const size_t group = ctx.params.store ? kDocSentences : 1;
  const Flops flops = MeanRequestFlops(ctx.work, ctx.expected, group);
  const double requests = static_cast<double>(traced.hi.total.ok());
  auto gflops = [&](double per_request, const std::string& span) {
    const double us = Get(hi, span + "#sum_us");
    return us > 0 ? per_request * requests / (us * 1e3) : 0.0;
  };
  report->Set("text.encode_us", per_sentence("infer.encode"));
  report->Set("text.encode_gflops", gflops(flops.encode, "infer.encode"));
  report->Set("nn.attention_us", per_sentence("infer.attention"));
  report->Set("nn.attention_gflops", gflops(flops.attention, "infer.attention"));
  report->Set("core.features_us", per_sentence("infer.features"));
  report->Set("core.type_pred_us", per_sentence("infer.type_pred"));
  report->Set("core.kg_us", per_sentence("infer.kg_adjacency"));
  report->Set("core.score_us", per_sentence("infer.score"));
  report->Set("core.unattributed_us",
              (Get(hi, "serve.predict#sum_us") - stages_us) / sentences);

  report->Set("store.gather_rows", Get(hi, "store.gather_rows") / sentences);
  report->Set("store.gather_us", Get(hi, "store.gather_us#sum_us") / sentences);
  report->Set("store.cold_faults",
              Get(traced.lo.delta, "store.cold_faults") + Get(hi, "store.cold_faults") +
                  Get(traced.sat.delta, "store.cold_faults"));
  report->Set("store.evictions",
              Get(traced.lo.delta, "store.evictions") + Get(hi, "store.evictions") +
                  Get(traced.sat.delta, "store.evictions"));
  report->Set("store.resident_mb",
              Get(traced.end, "store.resident_bytes") / (1024.0 * 1024.0));
  report->Set("index.chain_depth",
              ctx.params.store ? Get(traced.end, "store.generation") - 1.0 : 0.0);
  report->Set("index.add_p50_ms", Percentile(untraced.writer.tally.latency_ms, 0.5));
  const double base = MeanUs(untraced.hi.total);
  report->Set("obs.trace_overhead_pct",
              base > 0 ? 100.0 * (MeanUs(traced.hi.total) - base) / base : 0.0);

  // The hi-phase waterfall per request; the parts sum to the client mean.
  const double batch_us = PerCount(hi, "serve.batch");
  const double batches = std::max(1.0, Get(hi, "serve.batch#count"));
  const double assemble_b = Get(hi, "serve.assemble#sum_us") / batches;
  const double predict_b = Get(hi, "serve.predict#sum_us") / batches;
  report->Note(Fmt("waterfall hi (us/request): client_mean %.1f = queue_wait %.1f"
                   " + batch %.1f + net_remainder %.1f",
                   MeanUs(traced.hi.total), PerCount(hi, "serve.queue_wait_us"), batch_us,
                   NetRemainderUs(traced.hi.total, hi)));
  report->Note(Fmt("waterfall hi (us/batch): batch %.1f = assemble %.1f + predict"
                   " %.1f + other %.1f; predict = stages %.1f + unattributed %.1f",
                   batch_us, assemble_b, predict_b, batch_us - assemble_b - predict_b,
                   stages_us / batches, predict_b - stages_us / batches));
}

/// In-process probes of public entry points on the workload's own inputs.
Status AddProbes(const ServingContext& ctx, serve::InferenceEngine* engine,
                 Report* report) {
  serve::EngineOptions eo;
  eo.data_dir = ctx.data_dir;
  eo.model_path = ctx.model_path;
  if (ctx.params.store) eo.store_dir = ctx.export_root;
  std::vector<double> create_ms;
  for (int i = 0; i < 3; ++i) {
    const auto t = Clock::now();
    auto e = serve::InferenceEngine::Create(eo);
    if (!e.ok()) return e.status();
    create_ms.push_back(1e3 * Since(t));
  }
  report->Set("serve.engine_create_ms", Median(create_ms));

  const data::MentionExtractor extractor(&engine->candidates());
  const size_t group = ctx.params.store ? kDocSentences : 1;
  auto t = Clock::now();
  for (const std::string& text : ctx.work.texts) {
    (void)extractor.BuildExample(engine->vocab(), text);
  }
  report->Set("data.extract_us",
              1e6 * Since(t) / static_cast<double>(ctx.work.texts.size() * group));

  std::vector<data::SentenceExample> examples;
  for (const std::string& text : ctx.work.sentence_texts) {
    examples.push_back(extractor.BuildExample(engine->vocab(), text));
  }
  core::BootlegModel::InferenceScratch scratch;
  for (size_t b : {size_t{1}, size_t{8}}) {
    t = Clock::now();
    for (size_t i = 0; i + b <= examples.size(); i += b) {
      std::vector<const data::SentenceExample*> batch;
      for (size_t j = i; j < i + b; ++j) batch.push_back(&examples[j]);
      (void)engine->PredictExamples(batch, &scratch);
    }
    report->Set(b == 1 ? "core.predict_us_b1" : "core.predict_us_b8",
                1e6 * Since(t) / static_cast<double>(examples.size() / b * b));
  }

  double add_ms = 0;
  if (ctx.params.store) {
    const std::string root = ctx.options->work_dir + "/probe_store";
    std::error_code ec;
    fs::copy(ctx.export_root, root, fs::copy_options::recursive, ec);
    if (ec) return Status::IOError("copying the store: " + ec.message());
    eo.store_dir = root;
    auto e = serve::InferenceEngine::Create(eo);
    if (!e.ok()) return e.status();
    std::vector<double> ms;
    for (int k = 0; k < kAddProbes; ++k) {
      const AddPlan plan = PlanAdd(*ctx.kb, ctx.options->seed + 1, k);
      const auto ta = Clock::now();
      BOOTLEG_RETURN_IF_ERROR(e.value()->AddEntityLive(AddSpec(*ctx.kb, plan)));
      ms.push_back(1e3 * Since(ta));
    }
    add_ms = Median(ms);
  }
  report->Set("index.add_ms", add_ms);
  return Status::OK();
}

}  // namespace

// --- Shared probes ---------------------------------------------------------

namespace {

/// Achieved GFLOP/s of a [32x64]·[64x128] product (the encoder's
/// feed-forward shape at max_len 32) through the tensor kernel and through
/// the reference inference backend.
void AddMatMulProbes(Report* report) {
  util::Rng rng(1);
  const tensor::Tensor a = tensor::Tensor::Randn({32, 64}, &rng);
  const tensor::Tensor b = tensor::Tensor::Randn({64, 128}, &rng);
  const double flops = 2.0 * 32 * 64 * 128;
  auto measure = [&](const std::function<tensor::Tensor()>& fn) {
    int64_t n = 0;
    float sink = 0;
    const auto t = Clock::now();
    while (Since(t) < 0.1) {
      sink += fn().data()[0];
      ++n;
    }
    const double s = Since(t);
    return sink == 12345.0f ? 0.0 : flops * static_cast<double>(n) / s / 1e9;
  };
  report->Set("tensor.matmul_gflops",
              measure([&] { return tensor::MatMul(a, b); }));
  auto be = backend::Backend::Create("ref");
  double backend_gflops = 0;
  if (be.ok()) {
    const backend::Backend& backend = *be.value();
    backend_gflops = measure([&] { return backend.MatMul(a, b); });
  }
  report->Set("backend.matmul_gflops", backend_gflops);
}


}  // namespace

const std::vector<MetricDef>& EndToEndMetrics() {
  static const std::vector<MetricDef> kMetrics = {
      {"setup_s", "s"},       {"p50_ms_lo", "ms"},
      {"p50_ms_hi", "ms"},    {"cpu_sps", "sentences/cpu-s"},
      {"peak_rss_mb", "MiB"}, {"f1", "F1"}};
  return kMetrics;
}

const std::vector<MetricDef>& LayerMetrics() {
  static const std::vector<MetricDef> kMetrics = {
      {"net.client_mean_us", "us"},     {"net.remainder_us", "us"},
      {"serve.queue_wait_us", "us"},    {"serve.batch_size", "sentences"},
      {"serve.failed", "count"},        {"serve.cache_hit_rate", "fraction"},
      {"serve.assemble_us", "us"},      {"serve.predict_us", "us"},
      {"serve.engine_create_ms", "ms"}, {"data.extract_us", "us"},
      {"text.encode_us", "us"},         {"text.encode_gflops", "GFLOP/s"},
      {"nn.attention_us", "us"},        {"nn.attention_gflops", "GFLOP/s"},
      {"core.features_us", "us"},       {"core.type_pred_us", "us"},
      {"core.kg_us", "us"},             {"core.score_us", "us"},
      {"core.unattributed_us", "us"},   {"core.predict_us_b1", "us"},
      {"core.predict_us_b8", "us"},     {"store.gather_rows", "rows"},
      {"store.gather_us", "us"},        {"store.cold_faults", "count"},
      {"store.evictions", "count"},     {"store.resident_mb", "MiB"},
      {"index.add_ms", "ms"},           {"index.add_p50_ms", "ms"},
      {"index.chain_depth", "count"},   {"data.load_ms", "ms"},
      {"data.weak_label_ms", "ms"},     {"data.build_examples_ms", "ms"},
      {"core.train_fb_ms", "ms"},       {"core.train_reduce_ms", "ms"},
      {"nn.adam_ms", "ms"},             {"core.train_steps", "count"},
      {"core.train_other_ms", "ms"},    {"tensor.matmul_gflops", "GFLOP/s"},
      {"backend.matmul_gflops", "GFLOP/s"}, {"eval.dev_ms", "ms"},
      {"obs.trace_overhead_pct", "%"}};
  return kMetrics;
}

Report RunServing(const Options& options) {
  Report report;
  ServingContext ctx;
  ctx.options = &options;
  ctx.params = ParamsFor(options.workload);
  ctx.data_dir = options.work_dir + "/data";
  ctx.model_path = options.work_dir + "/model.bin";
  ctx.export_root = options.work_dir + "/export";

  // Untimed preparation with the shipped CLI: world, serving model (a short
  // fixed schedule), store export; then the oracle.
  const auto prep = Clock::now();
  Status st = GenerateData(options, ctx.data_dir);
  if (st.ok()) {
    st = RunCli(options, {"train", "--data", ctx.data_dir, "--model", ctx.model_path,
                          "--epochs", "1", "--threads", std::to_string(kTrainThreads),
                          "--max_steps", std::to_string(kServingModelSteps)});
  }
  if (st.ok() && ctx.params.store) {
    st = RunCli(options, {"export-store", "--data", ctx.data_dir, "--model",
                          ctx.model_path, "--out", ctx.export_root + "/gen_000001",
                          "--quant", "int8", "--shards", "4"});
  }
  if (!st.ok()) {
    report.error = "preparation failed: " + st.ToString();
    return report;
  }

  serve::EngineOptions eo;
  eo.data_dir = ctx.data_dir;
  eo.model_path = ctx.model_path;
  if (ctx.params.store) eo.store_dir = ctx.export_root;
  auto oracle = serve::InferenceEngine::Create(eo);
  if (!oracle.ok()) {
    report.error = "oracle engine: " + oracle.status().ToString();
    return report;
  }
  serve::InferenceEngine& engine = *oracle.value();
  ctx.kb = &engine.kb();
  if (auto es = engine.entity_store(); es != nullptr) {
    ctx.store_mb = static_cast<double>(es->mapped_bytes()) / (1024.0 * 1024.0);
  }
  {
    Dataset ds;
    st = LoadDataset(ctx.data_dir, &ds);
    if (!st.ok()) {
      report.error = st.ToString();
      return report;
    }
    ctx.work = BuildWorkset(ds.corpus, ctx.params);
  }
  core::BootlegModel::InferenceScratch scratch;
  for (const std::string& text : ctx.work.texts) {
    serve::BatchItem item;
    item.text = text;
    item.raw_text = ctx.params.store;
    ctx.expected.push_back(engine.DisambiguateBatch({item}, &scratch).at(0));
  }
  report.Note(Fmt("params: seed %.0f seconds %.3f lo_rate %.0f/s hi_rate %.0f/s"
                  " sat_outstanding %.0f latency_limit_ms %.0f",
                  static_cast<double>(options.seed), options.seconds,
                  ctx.params.lo_rate, ctx.params.hi_rate,
                  kReadConns * ctx.params.sat_outstanding,
                  ctx.params.latency_limit_ms) +
              " workload " + options.workload + " requests " +
              std::to_string(ctx.work.requests.size()) + " read_conns " +
              std::to_string(kReadConns) + " control_conns 1" +
              (ctx.params.store ? Fmt(" store_mb %.3f resident_budget_mb %.3f add_rate %.1f/s",
                                      ctx.store_mb, ctx.store_mb / 2, kAddRate)
                                : std::string(" store none")) +
              Fmt(" | prep_s %.2f serving_model_steps %.0f", Since(prep),
                  kServingModelSteps));

  // A traced run makes an untraced pass too: the tracing-overhead baseline.
  Pass untraced, traced;
  st = RunPass(ctx, /*traced=*/false, 0, &untraced, &report);
  if (st.ok() && options.trace) st = RunPass(ctx, /*traced=*/true, 1, &traced, &report);
  for (const Pass* p : {&untraced, &traced}) {
    report.attempted += p->sent();
    report.failed += p->failed();
  }
  if (!st.ok()) {
    report.error = st.ToString();
    return report;
  }
  report.correct = report.failed == 0;
  std::string setups = "setup (server CPU s / wall s):";
  for (size_t i = 0; i < untraced.setup_s.size(); ++i) {
    setups += Fmt(" %.4f/%.4f", untraced.setup_s[i], untraced.setup_wall_s[i]);
  }
  report.Note(setups);
  report.Note(Fmt("ok_frac %.6f over the timed phases (add_entity and read-backs"
                  " included)", untraced.ok_frac()));
  report.Note(Fmt("served_f1 %.4f over %.0f gold mentions (%.0f on a gold span,"
                  " %.0f correct; gold of %.0f dev sentences skipped)",
                  untraced.f1.f1(), static_cast<double>(untraced.f1.gold),
                  static_cast<double>(untraced.f1.predicted),
                  static_cast<double>(untraced.f1.correct),
                  static_cast<double>(ctx.work.gold_skipped)) +
              Fmt("; %.0f of %.0f distinct requests served",
                  static_cast<double>(untraced.covered),
                  static_cast<double>(ctx.work.requests.size())));
  report.Note(Fmt("calm slices: p90_ms_lo %.4f p90_ms_hi %.4f goodput_sps %.1f"
                  " (sentences in ok replies within %.0f ms per second of sat)",
                  Percentile(untraced.lo.calm.latency_ms, 0.9),
                  Percentile(untraced.hi.calm.latency_ms, 0.9),
                  static_cast<double>(untraced.sat.calm.good_sentences) /
                      untraced.sat.calm.seconds,
                  ctx.params.latency_limit_ms));
  if (ctx.params.store) {
    report.Note(Fmt("add_p50_ms %.4f over %.0f adds",
                    Percentile(untraced.writer.tally.latency_ms, 0.5),
                    static_cast<double>(untraced.writer.tally.latency_ms.size())));
  }

  if (!options.trace) {
    report.Set("setup_s", Median(untraced.setup_s));
    report.Set("p50_ms_lo", Percentile(untraced.lo.calm.latency_ms, 0.5));
    report.Set("p50_ms_hi", Percentile(untraced.hi.calm.latency_ms, 0.5));
    report.Set("cpu_sps", static_cast<double>(untraced.sat.calm.sentences_ok) /
                              untraced.sat.calm_server_cpu_s);
    report.Set("peak_rss_mb", untraced.peak_rss_mb);
    report.Set("f1", 100.0 * untraced.f1.f1());
    return report;
  }

  AddServingLayers(ctx, untraced, traced, &report);
  st = AddProbes(ctx, &engine, &report);
  if (!st.ok()) {
    report.error = "probe failed: " + st.ToString();
    return report;
  }
  AddMatMulProbes(&report);
  return report;
}

// --- Train workload --------------------------------------------------------

namespace {

/// NedScorer wrapper timing every Predict call (safe under RunEvaluation's
/// concurrent calls).
class TimedScorer : public eval::NedScorer {
 public:
  explicit TimedScorer(eval::NedScorer* inner) : inner_(inner) {}
  std::vector<int64_t> Predict(const data::SentenceExample& example) override {
    const auto t = Clock::now();
    std::vector<int64_t> out = inner_->Predict(example);
    const double ms = 1e3 * Since(t);
    std::lock_guard<std::mutex> lock(mu_);
    samples_ms_.push_back(ms);
    return out;
  }
  std::vector<double> samples_ms() const {
    std::lock_guard<std::mutex> lock(mu_);
    return samples_ms_;
  }

 private:
  eval::NedScorer* const inner_;
  mutable std::mutex mu_;
  std::vector<double> samples_ms_;  // guarded by mu_
};

struct TrainPass {
  std::vector<double> setup_s, setup_wall_s, epoch_s;  // set-up: CPU, wall
  std::vector<double> cpu_sps;  // per epoch: sentences per CPU-second
  std::vector<double> load_ms, weak_label_ms, build_ms;
  core::TrainStats last;
  std::vector<double> eval_lo_ms, eval_hi_ms;  // in-process rounds
  std::vector<double> eval_proc_p50_ms;  // one per evaluation process
  std::vector<double> group_ms;  // wall time of each optimizer group
  double dev_f1 = 0, dev_f1_threads = 0, untrained_f1 = 0, prior_f1 = 0;
  double eval_ms = 0;
  double peak_rss_mb = 0;  // after the first epoch and its evaluation
  int64_t attempted = 0, failed = 0;
};

/// The set-up printed by `repobench_runner --setup_only DATA_DIR`.
constexpr char kSetupLine[] =
    "setup cpu_s %lf wall_s %lf load_ms %lf weak_label_ms %lf build_ms %lf";
/// The evaluation printed by `repobench_runner --eval_only MODEL --data DIR`
/// (F1 with all its digits: it is compared for equality).
constexpr char kEvalLine[] = "eval p50_ms %lf f1 %la";

/// Runs this runner with `args` in a fresh process and returns its report:
/// the output from `tag` on.
util::StatusOr<std::string> RunSelf(const Options& o,
                                    const std::vector<std::string>& args,
                                    const std::string& tag) {
  auto out = RunToCompletion(o.self_bin, args, kPrepTimeoutS);
  if (!out.ok()) return out.status();
  const size_t at = out.value().find(tag);
  if (at == std::string::npos) {
    return Status::Internal("no \"" + tag + "\" report in: " + out.value());
  }
  return out.value().substr(at);
}

/// `count` set-ups, each in a fresh process: set-up time varies from process
/// to process, so the median is taken across processes.
Status TimeSetups(const Options& o, const std::string& data_dir, int count,
                  TrainPass* pass) {
  for (int rep = 0; rep < count; ++rep) {
    auto out = RunSelf(o, {"--setup_only", data_dir}, "setup ");
    if (!out.ok()) return out.status();
    double cpu = 0, wall = 0, load = 0, weak = 0, build = 0;
    if (std::sscanf(out.value().c_str(), kSetupLine, &cpu, &wall, &load, &weak,
                    &build) != 5) {
      return Status::Internal("unreadable set-up report: " + out.value());
    }
    pass->setup_s.push_back(cpu);
    pass->setup_wall_s.push_back(wall);
    pass->load_ms.push_back(load);
    pass->weak_label_ms.push_back(weak);
    pass->build_ms.push_back(build);
  }
  return Status::OK();
}

Status RunTrainPass(const Options& o, const std::string& data_dir, bool traced,
                    TrainPass* pass) {
  // Dev evaluation at 1 and kTrainThreads threads after each epoch, timing
  // every Predict.
  eval::ResultSet r1, r3;
  auto eval_round = [&](Prepared* m) {
    const data::ExampleBuilder builder(&m->ds.candidates, &m->ds.vocab);
    TimedScorer serial(m->model.get());
    const auto t = Clock::now();
    r1 = eval::RunEvaluation(&serial, m->ds.corpus.dev, builder, {}, m->counts, 1);
    pass->eval_ms = 1e3 * Since(t);
    TimedScorer parallel(m->model.get());
    r3 = eval::RunEvaluation(&parallel, m->ds.corpus.dev, builder, {}, m->counts,
                             kTrainThreads);
    const std::vector<double> lo = serial.samples_ms(), hi = parallel.samples_ms();
    pass->eval_lo_ms.insert(pass->eval_lo_ms.end(), lo.begin(), lo.end());
    pass->eval_hi_ms.insert(pass->eval_hi_ms.end(), hi.begin(), hi.end());
  };
  // Epochs from fresh models while another fits in the run's time (one
  // when traced). Before the first, the same model untrained and the
  // alias-prior baseline are scored on dev.
  const auto start = Clock::now();
  std::unique_ptr<Prepared> p;
  do {
    p = std::make_unique<Prepared>();
    BOOTLEG_RETURN_IF_ERROR(Prepare(data_dir, p.get()));
    if (pass->epoch_s.empty()) {
      const data::ExampleBuilder builder(&p->ds.candidates, &p->ds.vocab);
      const auto& dev = p->ds.corpus.dev;
      pass->untrained_f1 =
          eval::RunEvaluation(p->model.get(), dev, builder, {}, p->counts, 1)
              .Overall()
              .f1();
      baseline::PriorModel prior;
      pass->prior_f1 =
          eval::RunEvaluation(&prior, dev, builder, {}, p->counts, 1).Overall().f1();
    }
    if (traced) {
      obs::Trace::Reset();
      obs::Trace::Enable(true);
    }
    const double cpu = CpuSecondsSelf();
    pass->last = TrainEpoch(p.get(), &pass->group_ms);
    pass->cpu_sps.push_back(static_cast<double>(pass->last.sentences_seen) /
                            (CpuSecondsSelf() - cpu));
    obs::Trace::Enable(false);
    ++pass->attempted;
    if (!std::isfinite(pass->last.final_avg_loss) || pass->last.steps <= 0) {
      ++pass->failed;
    }
    pass->epoch_s.push_back(pass->last.seconds);
    eval_round(p.get());
    if (pass->epoch_s.size() == 1) pass->peak_rss_mb = PeakRssMb("self");
  } while (!traced && Since(start) + pass->epoch_s.back() <= o.seconds);
  pass->dev_f1 = r1.Overall().f1();
  pass->dev_f1_threads = r3.Overall().f1();
  // Checks: thread-count determinism, and that training learned (the
  // trained model beats the same model untrained). The alias-prior baseline
  // is printed beside them: one epoch does not reliably beat it.
  pass->attempted += 2;
  if (pass->dev_f1_threads != pass->dev_f1) ++pass->failed;
  if (!(pass->dev_f1 > pass->untrained_f1)) ++pass->failed;
  if (traced) return Status::OK();

  // The trained model's dev evaluation, timed in fresh processes like the
  // set-up: each must reproduce the in-process F1. The set-ups not run before
  // the epochs alternate with them, so the set-up median spans the run.
  const std::string model_path = o.work_dir + "/trained.bin";
  BOOTLEG_RETURN_IF_ERROR(p->model->store().Save(model_path));
  for (int rep = 0; rep < kEvalProcs; ++rep) {
    auto out = RunSelf(o, {"--eval_only", model_path, "--data", data_dir}, "eval ");
    if (!out.ok()) return out.status();
    double p50 = 0, f1 = -1;
    if (std::sscanf(out.value().c_str(), kEvalLine, &p50, &f1) != 2) {
      return Status::Internal("unreadable evaluation report: " + out.value());
    }
    pass->eval_proc_p50_ms.push_back(p50);
    ++pass->attempted;
    if (f1 != pass->dev_f1_threads) ++pass->failed;
    BOOTLEG_RETURN_IF_ERROR(TimeSetups(o, data_dir, 1, pass));
  }
  return TimeSetups(o, data_dir, kSetupReps - static_cast<int>(pass->setup_s.size()),
                    pass);
}

}  // namespace

int RunSetupOnly(const std::string& data_dir) {
  Prepared p;
  const Status st = Prepare(data_dir, &p);
  if (!st.ok()) {
    std::fprintf(stderr, "error: %s\n", st.ToString().c_str());
    return 1;
  }
  std::printf(kSetupLine, p.cpu_s, p.total_s(), 1e3 * p.load_s, 1e3 * p.weak_label_s,
              1e3 * p.build_s);
  std::printf("\n");
  return 0;
}

int RunEvalOnly(const std::string& data_dir, const std::string& model_path) {
  Prepared p;
  Status st = Prepare(data_dir, &p);
  if (st.ok()) st = core::LoadSnapshotOrInvalidate(model_path, &p.model->store());
  if (!st.ok()) {
    std::fprintf(stderr, "error: %s\n", st.ToString().c_str());
    return 1;
  }
  const data::ExampleBuilder builder(&p.ds.candidates, &p.ds.vocab);
  TimedScorer scorer(p.model.get());
  const eval::ResultSet r = eval::RunEvaluation(&scorer, p.ds.corpus.dev, builder, {},
                                                p.counts, kTrainThreads);
  std::printf(kEvalLine, Percentile(scorer.samples_ms(), 0.5), r.Overall().f1());
  std::printf("\n");
  return 0;
}

Report RunTrain(const Options& options) {
  Report report;
  const std::string data_dir = options.work_dir + "/data";
  Status st = GenerateData(options, data_dir);
  TrainPass untraced, traced;
  if (st.ok()) st = TimeSetups(options, data_dir, kSetupReps - kEvalProcs, &untraced);
  if (st.ok()) st = RunTrainPass(options, data_dir, false, &untraced);
  if (st.ok() && options.trace) st = RunTrainPass(options, data_dir, true, &traced);
  report.attempted = untraced.attempted + traced.attempted;
  report.failed = untraced.failed + traced.failed;
  if (!st.ok()) {
    report.error = st.ToString();
    return report;
  }
  report.correct = report.failed == 0;
  report.Note(Fmt("params: seed %.0f seconds %.3f train_threads %.0f epochs %.0f"
                  " train_sentences %.0f steps %.0f",
                  static_cast<double>(options.seed), options.seconds, kTrainThreads,
                  static_cast<double>(untraced.epoch_s.size()),
                  static_cast<double>(untraced.last.sentences_seen),
                  static_cast<double>(untraced.last.steps)));
  report.Note(Fmt("epoch_s median %.4f (n %.0f); final_avg_loss %.5f; dev_f1 %.4f"
                  " (3 threads %.4f; untrained %.4f;",
                  Median(untraced.epoch_s),
                  static_cast<double>(untraced.epoch_s.size()),
                  untraced.last.final_avg_loss, untraced.dev_f1,
                  untraced.dev_f1_threads, untraced.untrained_f1) +
              Fmt(" alias-prior baseline %.4f); wall sentences/s %.1f",
                  untraced.prior_f1,
                  static_cast<double>(untraced.last.sentences_seen) /
                      Median(untraced.epoch_s)));
  report.Note(Fmt("training group (%.0f sentences) wall ms: p50 %.4f p90 %.4f p99 %.4f"
                  " over %.0f groups", 8, Percentile(untraced.group_ms, 0.5),
                  Percentile(untraced.group_ms, 0.9), Percentile(untraced.group_ms, 0.99),
                  static_cast<double>(untraced.group_ms.size())));
  report.Note(Fmt("setup median: CPU %.4f s, wall %.4f s", Median(untraced.setup_s),
                  Median(untraced.setup_wall_s)));
  std::string procs = "eval per-sentence predict p50 ms in each process (3 threads):";
  for (double ms : untraced.eval_proc_p50_ms) procs += Fmt(" %.4f", ms);
  report.Note(procs);
  report.Note(Fmt("in-process eval per-sentence predict ms: 1 thread p50 %.4f p90 %.4f p99 %.4f;"
                  " 3 threads p50 %.4f p90 %.4f p99 %.4f",
                  Percentile(untraced.eval_lo_ms, 0.5), Percentile(untraced.eval_lo_ms, 0.9),
                  Percentile(untraced.eval_lo_ms, 0.99), Percentile(untraced.eval_hi_ms, 0.5),
                  Percentile(untraced.eval_hi_ms, 0.9), Percentile(untraced.eval_hi_ms, 0.99)));

  if (!options.trace) {
    report.Set("setup_s", Median(untraced.setup_s));
    report.Set("p50_ms_lo", Percentile(untraced.group_ms, 0.5));
    report.Set("p50_ms_hi", Median(untraced.eval_proc_p50_ms));
    report.Set("cpu_sps", Median(untraced.cpu_sps));
    report.Set("peak_rss_mb", untraced.peak_rss_mb);
    report.Set("f1", untraced.dev_f1);
    return report;
  }

  // Per-layer: the traced epoch's spans, per group (forward/backward and
  // reduce) or per optimizer step (Adam).
  auto span = [](const std::string& name) {
    for (const obs::SpanSummary& s : obs::Trace::Summaries()) {
      if (s.name == name) return s;
    }
    return obs::SpanSummary{};
  };
  const obs::SpanSummary fb = span("train.forward_backward");
  const obs::SpanSummary reduce = span("train.reduce");
  const obs::SpanSummary step = span("train.step");
  const obs::SpanSummary adam = span("nn.adam.step");
  const double epoch_ms = 1e3 * traced.last.seconds;
  const double other_ms =
      epoch_ms - (fb.total_us + reduce.total_us + step.total_us) / 1e3;
  report.Note(Fmt("waterfall epoch (ms): %.1f = forward_backward %.1f + reduce %.1f"
                  " + step %.1f + other %.1f",
                  epoch_ms, fb.total_us / 1e3, reduce.total_us / 1e3,
                  step.total_us / 1e3, other_ms));
  report.Set("data.load_ms", Median(untraced.load_ms));
  report.Set("data.weak_label_ms", Median(untraced.weak_label_ms));
  report.Set("data.build_examples_ms", Median(untraced.build_ms));
  report.Set("core.train_fb_ms", fb.count > 0 ? fb.total_us / 1e3 / fb.count : 0.0);
  report.Set("core.train_reduce_ms",
             reduce.count > 0 ? reduce.total_us / 1e3 / reduce.count : 0.0);
  report.Set("nn.adam_ms", adam.count > 0 ? adam.total_us / 1e3 / adam.count : 0.0);
  report.Set("core.train_steps", static_cast<double>(traced.last.steps));
  report.Set("core.train_other_ms", other_ms);
  report.Set("eval.dev_ms", traced.eval_ms);
  report.Set("obs.trace_overhead_pct",
             100.0 * (traced.last.seconds - Median(untraced.epoch_s)) /
                 Median(untraced.epoch_s));
  AddMatMulProbes(&report);
  return report;
}

}  // namespace repobench
