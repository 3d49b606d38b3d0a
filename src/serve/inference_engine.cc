#include "serve/inference_engine.h"

#include <algorithm>
#include <chrono>
#include <optional>
#include <utility>

#include "core/model_loader.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "text/vocabulary.h"
#include "util/logging.h"

namespace bootleg::serve {

InferenceEngine::InferenceEngine(const EngineOptions& options)
    : options_(options) {}

util::StatusOr<std::unique_ptr<InferenceEngine>> InferenceEngine::Create(
    const EngineOptions& options) {
  if (options.model_path.empty() == options.checkpoint_dir.empty()) {
    return util::Status::InvalidArgument(
        "exactly one of model_path and checkpoint_dir must be set");
  }
  if (!options.store_dir.empty() && options.model_path.empty()) {
    return util::Status::InvalidArgument(
        "store_dir requires model_path: an embedding store snapshots one "
        "fixed set of weights and cannot follow a checkpoint directory");
  }
  std::unique_ptr<InferenceEngine> engine(new InferenceEngine(options));
  util::Status st = engine->Initialize();
  if (!st.ok()) return st;
  return engine;
}

util::Status InferenceEngine::Initialize() {
  BOOTLEG_RETURN_IF_ERROR(kb_.Load(options_.data_dir + "/kb.bin"));
  BOOTLEG_RETURN_IF_ERROR(
      candidates_.Load(options_.data_dir + "/candidates.bin"));
  BOOTLEG_RETURN_IF_ERROR(vocab_.Load(options_.data_dir + "/vocab.bin"));
  if (options_.char_fallback) vocab_.BuildTypoIndex();
  extractor_ = std::make_unique<data::MentionExtractor>(&candidates_);

  // Model-path deployments record their config preset in a .meta sidecar
  // (written by `bootleg_cli train`); it overrides the option when present.
  const std::string ablation =
      options_.model_path.empty()
          ? options_.ablation
          : core::ReadAblationMeta(options_.model_path, options_.ablation);
  const std::optional<core::BootlegConfig> preset =
      core::AblationPreset(ablation);
  if (!preset.has_value()) {
    return util::Status::InvalidArgument("unknown ablation: " + ablation);
  }
  const core::BootlegConfig& config = *preset;
  if (config.use_cooccurrence_kg) {
    return util::Status::InvalidArgument(
        "co-occurrence KG models are not servable: sentence co-occurrence "
        "statistics are not part of the dataset snapshot");
  }

  // Construction seed is irrelevant — every weight is overwritten by the
  // snapshot before serving.
  model_ = std::make_unique<core::BootlegModel>(&kb_, vocab_.size(), config,
                                                /*seed=*/7);
  if (config.use_title_feature) {
    title_token_ids_.reserve(static_cast<size_t>(kb_.num_entities()));
    for (kb::EntityId e = 0; e < kb_.num_entities(); ++e) {
      title_token_ids_.push_back(vocab_.Id(kb_.entity(e).title));
    }
    model_->SetTitleTokenIds(title_token_ids_);
  }

  if (!options_.model_path.empty()) {
    BOOTLEG_RETURN_IF_ERROR(model_->store().Load(options_.model_path));
    loaded_path_ = options_.model_path;
  } else {
    auto loaded = core::LoadNewestCheckpointParams(options_.checkpoint_dir,
                                                   &model_->store());
    if (!loaded.ok()) return loaded.status();
    loaded_path_ = loaded.value();
  }
  if (options_.store_dir.empty()) {
    model_->PrepareFrozenInference();
  } else {
    BOOTLEG_RETURN_IF_ERROR(AdoptNewestStoreGeneration());
    // The store holds the frozen entity rows; drop the duplicate heap table.
    model_->ReleaseEntityTableForServing();
  }
  return util::Status::OK();
}

util::Status InferenceEngine::AdoptNewestStoreGeneration() {
  int64_t generation = -1;
  auto opened = store::OpenNewestGeneration(options_.store_dir, &generation);
  if (!opened.ok()) return opened.status();
  if (entity_store_ != nullptr && generation == store_generation_) {
    return util::Status::OK();  // already serving the newest generation
  }
  std::shared_ptr<store::EmbeddingStore> next(std::move(opened).value());
  if (options_.resident_budget_bytes > 0) {
    // Enable hot-set residency before any View() is taken so the views carry
    // the policy hooks. Seeding from the displaced generation's manager
    // carries shard popularity across the swap, so the background warm-up
    // prefetches the shards that were hot before it. The manager lives and
    // dies with `next`, so its advisories only ever touch this pinned
    // snapshot's mappings.
    std::shared_ptr<store::EmbeddingStore> prior;
    {
      std::lock_guard<std::mutex> lock(store_mu_);
      prior = entity_store_;
    }
    store::ResidencyOptions ro;
    ro.budget_bytes = options_.resident_budget_bytes;
    ro.sweep_interval_ms = options_.resident_sweep_ms;
    next->EnableResidency(ro, prior != nullptr ? prior->residency() : nullptr);
  }
  auto view = next->View("static");
  if (!view.ok()) return view.status();

  // Chained generations carry INDEX_DELTA aux files: KB/candidate mutations
  // that must land before the model adopts the wider view (UseFrozenStore
  // checks view rows == KB entities). They are replayed onto copies so a
  // rejected chain leaves the serving state untouched — the old generation
  // keeps serving and the KB/view row counts stay consistent.
  index::ApplyStats delta_stats;
  if (!next->aux_files().empty()) {
    kb::KnowledgeBase kb_next = kb_;
    kb::CandidateMap candidates_next = candidates_;
    std::vector<int64_t> title_ids_next = title_token_ids_;
    const bool use_title = model_->config().use_title_feature;
    BOOTLEG_RETURN_IF_ERROR(index::ApplyDeltas(
        *next, &kb_next, &candidates_next,
        use_title ? &title_ids_next : nullptr, &delta_stats));
    if (delta_stats.entities_applied > 0) {
      // Commit the replayed copies. The model reads the KB through a stable
      // pointer to kb_, so move-assignment swaps contents in place. Callers
      // serialize adoption against in-flight inference (batcher exclusive
      // lock), so no batch observes the intermediate state.
      kb_ = std::move(kb_next);
      candidates_ = std::move(candidates_next);
      title_token_ids_ = std::move(title_ids_next);
      if (use_title) model_->SetTitleTokenIds(title_token_ids_);
      // A delta can introduce an alias longer (in tokens) than any the
      // extractor's n-gram window was sized for — rebuild the scanner.
      extractor_ = std::make_unique<data::MentionExtractor>(&candidates_);
    }
  }

  // UseFrozenStore validates shape before anything is swapped; on failure
  // the old generation (or heap table) keeps serving untouched.
  BOOTLEG_RETURN_IF_ERROR(model_->UseFrozenStore(view.value()));
  {
    // Publish under store_mu_ so stats readers on connection threads get a
    // shared_ptr snapshot; the displaced generation stays mapped until the
    // last such snapshot drops it.
    std::lock_guard<std::mutex> lock(store_mu_);
    entity_store_ = next;
    store_generation_ = generation;
    induced_entities_ += delta_stats.entities_applied;
  }

  obs::MetricsRegistry& reg = obs::MetricsRegistry::Global();
  reg.GetGauge("store.generation")->Set(static_cast<double>(generation));
  reg.GetGauge("store.induced_entities")
      ->Set(static_cast<double>(induced_entities()));
  reg.GetGauge("store.resident_shards")
      ->Set(static_cast<double>(next->num_shards()));
  reg.GetGauge("store.mapped_bytes")
      ->Set(static_cast<double>(next->mapped_bytes()));
  if (const store::TableInfo* t = next->FindTable("static")) {
    reg.GetGauge("store.quant_max_abs_error")->Set(t->max_abs_error);
    reg.GetGauge("store.quant_mean_abs_error")->Set(t->mean_abs_error);
  }
  reg.GetGauge("store.resident_budget_bytes")
      ->Set(static_cast<double>(options_.resident_budget_bytes));
  BOOTLEG_LOG(Info) << "serving embedding store generation " << generation
                    << " from " << next->dir() << " (" << next->num_shards()
                    << " shards, " << next->mapped_bytes()
                    << " mapped bytes)";

  // Automatic compaction: a delta chain carries one INDEX_DELTA aux file per
  // published delta, so aux_files().size() bounds the chain depth from
  // above (compaction renumbers the aux files into the flat directory, so
  // the count survives it — past the watermark, each further delta is
  // folded flat right after adoption). The already_flat result guards the
  // recursion: adopting the compacted generation re-checks the watermark,
  // finds the newest generation flat, and stops. Failures are non-fatal:
  // the chain keeps serving and the next adoption retries.
  if (options_.compact_chain_depth > 0 &&
      static_cast<int64_t>(next->aux_files().size()) >=
          options_.compact_chain_depth) {
    index::CompactResult cres;
    const util::Status cst = index::Compact(options_.store_dir, &cres);
    if (!cst.ok()) {
      BOOTLEG_LOG(Warning) << "automatic compaction failed: " << cst.ToString()
                           << " (delta chain keeps serving)";
    } else if (!cres.already_flat) {
      {
        std::lock_guard<std::mutex> lock(store_mu_);
        ++auto_compactions_;
      }
      reg.GetGauge("store.auto_compactions")
          ->Set(static_cast<double>(auto_compactions()));
      BOOTLEG_LOG(Info) << "auto-compacted delta chain at depth "
                        << next->aux_files().size() << " -> generation "
                        << cres.generation << " (" << cres.files_copied
                        << " files)";
      return AdoptNewestStoreGeneration();
    }
  }
  return util::Status::OK();
}

util::Status InferenceEngine::AddEntityLive(index::DeltaEntity entity) {
  if (options_.store_dir.empty()) {
    return util::Status::FailedPrecondition(
        "live entity add requires a store deployment (--store_dir)");
  }
  std::shared_ptr<const store::EmbeddingStore> current;
  int64_t generation = -1;
  {
    std::lock_guard<std::mutex> lock(store_mu_);
    current = entity_store_;
    generation = store_generation_;
  }
  if (current == nullptr) {
    return util::Status::FailedPrecondition("no store generation is serving");
  }

  // Unknown titles fall back to the UNK token: the title feature degrades
  // gracefully while types/relations — the signals the paper shows carry
  // tail entities — drive the induced embedding.
  entity.title_token_id = vocab_.Id(entity.title);
  BOOTLEG_RETURN_IF_ERROR(index::ValidateDeltaEntity(
      kb_, candidates_, kb_.num_entities(), entity));

  auto view = current->View("static");
  if (!view.ok()) return view.status();
  std::vector<float> row;
  BOOTLEG_RETURN_IF_ERROR(
      index::InduceRow(*model_, kb_, *view.value(), entity, &row));

  index::IndexDelta delta;
  delta.base_entities = kb_.num_entities();
  delta.entities.push_back(std::move(entity));
  index::PublishResult published;
  BOOTLEG_RETURN_IF_ERROR(index::PublishDelta(
      options_.store_dir, *current, generation, delta, row.data(),
      &published));
  BOOTLEG_LOG(Info) << "published delta generation " << published.generation
                    << " (" << delta.entities[0].title << ") at "
                    << published.dir;

  // Adopt the generation we just published: replays the delta onto the KB
  // and candidate map, swaps the view.
  return AdoptNewestStoreGeneration();
}

util::Status InferenceEngine::Reload() {
  if (!options_.store_dir.empty()) {
    return AdoptNewestStoreGeneration();
  }
  if (options_.checkpoint_dir.empty()) {
    return util::Status::FailedPrecondition(
        "engine was created from a fixed model snapshot; nothing to reload");
  }
  auto loaded = core::LoadNewestCheckpointParams(options_.checkpoint_dir,
                                                 &model_->store());
  // A failed scan leaves the store partially overwritten only if a read got
  // midway — LoadNewestCheckpointParams skips unreadable files wholesale, so
  // on error the previous weights are still intact and serving continues.
  if (!loaded.ok()) return loaded.status();
  if (loaded.value() == loaded_path_) return util::Status::OK();
  {
    std::lock_guard<std::mutex> lock(store_mu_);
    loaded_path_ = loaded.value();
  }
  model_->PrepareFrozenInference();
  BOOTLEG_LOG(Info) << "hot-reloaded weights from " << loaded.value();
  return util::Status::OK();
}

std::vector<SentenceResult> InferenceEngine::Disambiguate(
    const std::vector<std::string>& texts,
    core::BootlegModel::InferenceScratch* scratch) {
  std::vector<BatchItem> items(texts.size());
  for (size_t i = 0; i < texts.size(); ++i) items[i].text = texts[i];
  return DisambiguateBatch(items, scratch);
}

std::vector<SentenceResult> InferenceEngine::DisambiguateBatch(
    const std::vector<BatchItem>& items,
    core::BootlegModel::InferenceScratch* scratch) {
  // Scratches are reused across batches; the cancellation hook must never
  // leak from one batch into the next.
  scratch->cancel_check = nullptr;
  constexpr auto kNoDeadline = std::chrono::steady_clock::time_point::max();
  bool all_deadlines = !items.empty();
  auto latest = std::chrono::steady_clock::time_point::min();
  for (const BatchItem& item : items) {
    if (item.deadline == kNoDeadline) {
      all_deadlines = false;
      break;
    }
    latest = std::max(latest, item.deadline);
  }
  if (all_deadlines) {
    // Past the latest member deadline no reply is wanted by anyone — let the
    // model abandon the batch between stages and reclaim the compute.
    scratch->cancel_check = [latest] {
      return std::chrono::steady_clock::now() > latest;
    };
  }

  // Assembly: one SentenceExample per sentence, flat across items. Raw
  // documents split after terminal punctuation tokens (Tokenize peels them
  // into their own tokens, so per-sentence tokenization concatenates to the
  // whole-document tokenization and spans translate by the range offset).
  // Candidates are read straight from Γ with no lock: batches run under the
  // batcher's shared lock, and Γ changes only in its exclusive lane.
  std::vector<data::SentenceExample> examples;
  struct ExampleOrigin {
    size_t item = 0;
    int64_t token_offset = 0;
  };
  std::vector<ExampleOrigin> origins;
  std::vector<SentenceResult> results(items.size());
  {
    OBS_SPAN("serve.assemble");
    for (size_t i = 0; i < items.size(); ++i) {
      const std::vector<std::string> tokens = text::Tokenize(items[i].text);
      std::vector<std::pair<size_t, size_t>> ranges;  // [begin, end)
      if (items[i].raw_text) {
        size_t begin = 0;
        for (size_t t = 0; t < tokens.size(); ++t) {
          const std::string& tok = tokens[t];
          if (tok == "." || tok == "?" || tok == "!") {
            ranges.emplace_back(begin, t + 1);
            begin = t + 1;
          }
        }
        if (begin < tokens.size()) ranges.emplace_back(begin, tokens.size());
      } else if (!tokens.empty()) {
        ranges.emplace_back(0, tokens.size());
      }
      for (size_t si = 0; si < ranges.size(); ++si) {
        const auto [lo, hi] = ranges[si];
        const std::vector<std::string> sent(tokens.begin() + lo,
                                            tokens.begin() + hi);
        data::SentenceExample ex;
        ex.token_ids.reserve(sent.size());
        for (const std::string& tok : sent) {
          ex.token_ids.push_back(options_.char_fallback
                                     ? vocab_.IdWithTypoFallback(tok)
                                     : vocab_.Id(tok));
        }
        for (const data::Mention& m : extractor_->Extract(sent)) {
          ex.mentions.push_back(extractor_->ToExample(m));

          ServedMention served;
          served.alias = m.alias;
          served.span_start = m.span_start + static_cast<int64_t>(lo);
          served.span_end = m.span_end + static_cast<int64_t>(lo);
          served.num_candidates =
              static_cast<int64_t>(ex.mentions.back().candidates.size());
          served.sentence_index = static_cast<int64_t>(si);
          results[i].mentions.push_back(std::move(served));
        }
        examples.push_back(std::move(ex));
        origins.push_back({i, static_cast<int64_t>(lo)});
      }
    }
  }

  OBS_SPAN("serve.predict");
  std::vector<const data::SentenceExample*> batch;
  batch.reserve(examples.size());
  for (const data::SentenceExample& ex : examples) batch.push_back(&ex);
  const std::vector<std::vector<int64_t>> preds =
      model_->PredictBatch(batch, scratch);
  scratch->cancel_check = nullptr;
  if (preds.empty() && !batch.empty()) {
    return {};  // abandoned mid-compute: every member deadline expired
  }

  // Fill predictions back: results[i].mentions were appended in the same
  // order the flat examples' mentions were, so a per-item cursor suffices.
  std::vector<size_t> cursor(items.size(), 0);
  for (size_t e = 0; e < examples.size(); ++e) {
    const size_t i = origins[e].item;
    for (size_t mi = 0; mi < examples[e].mentions.size(); ++mi) {
      ServedMention& served = results[i].mentions[cursor[i]++];
      const int64_t k = preds[e][mi];
      if (k < 0) continue;
      const data::MentionExample& m = examples[e].mentions[mi];
      served.entity = m.candidates[static_cast<size_t>(k)];
      served.prior = m.priors[static_cast<size_t>(k)];
      served.title = kb_.entity(served.entity).title;
    }
  }
  return results;
}

std::vector<std::vector<int64_t>> InferenceEngine::PredictExamples(
    const std::vector<const data::SentenceExample*>& batch,
    core::BootlegModel::InferenceScratch* scratch) const {
  return model_->PredictBatch(batch, scratch);
}

}  // namespace bootleg::serve
