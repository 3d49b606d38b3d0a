#ifndef BOOTLEG_SERVE_INFERENCE_ENGINE_H_
#define BOOTLEG_SERVE_INFERENCE_ENGINE_H_

#include <chrono>
#include <cstdint>
#include <memory>
#include <mutex>
#include <string>
#include <utility>
#include <vector>

#include "core/model.h"
#include "data/example.h"
#include "data/mention_extractor.h"
#include "index/live_index.h"
#include "kb/candidate_map.h"
#include "kb/kb.h"
#include "serve/candidate_cache.h"
#include "store/embedding_store.h"
#include "text/vocabulary.h"
#include "util/status.h"

namespace bootleg::serve {

/// How the engine finds its weights. Exactly one of `model_path` (a
/// ParameterStore snapshot, as written by `bootleg_cli train`) or
/// `checkpoint_dir` (a training checkpoint directory; the newest readable
/// checkpoint wins, corrupt ones are skipped) must be set.
struct EngineOptions {
  std::string data_dir;        // kb.bin / candidates.bin / vocab.bin
  std::string model_path;      // snapshot file (frozen deployment)
  std::string checkpoint_dir;  // checkpoint directory (hot-reloadable)
  std::string ablation = "full";  // config preset: full|ent|type|kg
  size_t cache_capacity = 4096;   // candidate cache, in aliases
  /// Optional embedding-store directory (written by `bootleg_cli
  /// export-store`). When set, the frozen per-entity features are served
  /// from the newest memory-mapped store generation under this directory
  /// instead of being recomputed into the heap, and the entity embedding
  /// table is released after load. Requires model_path (the store snapshots
  /// one fixed set of weights); incompatible with checkpoint_dir. Reload()
  /// then re-scans for a newer store generation instead of newer weights.
  std::string store_dir;
  /// Hot-set residency budget for the mapped store, in bytes. When > 0 (and
  /// store_dir is set), each adopted generation runs a popularity-clock
  /// residency manager: batch-ahead MADV_WILLNEED of the shards a gather
  /// touches, a background sweep that MADV_DONTNEEDs cold shards to keep the
  /// advised resident set within budget (the Zipf head stays pinned), and a
  /// post-swap warm-up of hot shards. 0 = unmanaged mmap (kernel decides).
  /// Purely advisory: replies are bit-identical to the unmanaged path.
  int64_t resident_budget_bytes = 0;
  /// Residency clock-sweep cadence in milliseconds.
  int64_t resident_sweep_ms = 1000;
  /// Automatic compaction watermark (store deployments): when adopting a
  /// generation whose delta chain is at least this many deltas deep, run
  /// index::Compact in-process and adopt the flat result. Runs on the reload
  /// path, which the batcher already serializes through its exclusive lane,
  /// so compaction never overlaps an in-flight batch. 0 disables (operator-
  /// triggered compaction only).
  int64_t compact_chain_depth = 0;
  /// Route unknown tokens through the vocabulary's single-edit typo fallback
  /// (Vocabulary::IdWithTypoFallback) when encoding served text, so a typo'd
  /// token recovers the clean word embedding instead of [UNK]. Clean text
  /// encodes bit-identically with the flag on or off.
  bool char_fallback = false;
};

/// One unit of batched serving work. A pre-segmented item (`raw_text`
/// false — the classic `disambiguate` op) is treated as a single sentence.
/// A raw item (`disambiguate_text`) is sentence-split and mention-extracted
/// inside the engine; its mentions carry document-level token spans and a
/// sentence index. `deadline` rides along so the engine can abandon a batch
/// whose members all expired mid-compute.
struct BatchItem {
  std::string text;
  bool raw_text = false;
  std::chrono::steady_clock::time_point deadline =
      std::chrono::steady_clock::time_point::max();
};

/// One disambiguated mention in a served sentence.
struct ServedMention {
  std::string alias;
  int64_t span_start = 0;  // document-level token span (inclusive)
  int64_t span_end = 0;
  kb::EntityId entity = kb::kInvalidId;
  std::string title;        // KB title of the predicted entity
  float prior = 0.0f;       // Γ prior of the predicted candidate
  int64_t num_candidates = 0;
  /// Which sentence of the request the mention fell in (always 0 for
  /// pre-segmented `disambiguate` requests).
  int64_t sentence_index = 0;
};

struct SentenceResult {
  std::vector<ServedMention> mentions;
};

/// Frozen-model inference engine: loads the KB, candidate map, vocabulary
/// and a weight snapshot once, precomputes the model's frozen per-entity
/// feature table, and serves batched forward-only predictions.
///
/// Thread-safety: Disambiguate/PredictExamples may run concurrently from any
/// number of threads, each with its own InferenceScratch — the model is
/// read-only between reloads and the candidate cache locks internally.
/// Reload() mutates the weights and must be externally serialized against
/// in-flight inference (the micro-batcher does this between batches).
class InferenceEngine {
 public:
  static util::StatusOr<std::unique_ptr<InferenceEngine>> Create(
      const EngineOptions& options);

  /// Checkpoint deployments: re-resolves the newest readable checkpoint and
  /// swaps the weights in, then refreezes the per-entity feature table.
  /// Store deployments: re-scans store_dir for a newer generation and swaps
  /// the mapped store in (the old generation unmaps once swapped). No-op
  /// (OK) when already serving the newest checkpoint/generation.
  /// FailedPrecondition for a fixed model_path deployment with no store.
  util::Status Reload();

  /// Live index mutation (store deployments only): induces an embedding for
  /// a never-trained entity from its types and relations, publishes it as an
  /// incremental store generation chained onto the current one, and adopts
  /// the new generation in-process — no SIGHUP, no retrain, no re-export.
  /// The entity's `title_token_id` is resolved here from the vocabulary.
  /// Must be externally serialized against in-flight inference and reloads
  /// (the server runs it through MicroBatcher::SubmitExclusive). On error
  /// nothing is adopted and the previous generation keeps serving.
  util::Status AddEntityLive(index::DeltaEntity entity);

  /// Tokenizes each text, extracts alias mentions through the candidate
  /// cache, and disambiguates all texts in one batched forward pass.
  /// Convenience wrapper over DisambiguateBatch with pre-segmented items.
  std::vector<SentenceResult> Disambiguate(
      const std::vector<std::string>& texts,
      core::BootlegModel::InferenceScratch* scratch);

  /// The full batched serving surface: pre-segmented sentences and raw
  /// documents mixed in one batch, one PredictBatch forward pass for every
  /// extracted mention of every item. Raw items are sentence-split on
  /// terminal punctuation tokens (`.` `?` `!`) and mention-extracted per
  /// sentence via the greedy leftmost-longest scan of data::MentionExtractor
  /// through the candidate cache; their mentions report document-level spans
  /// plus the sentence index. A single-sentence raw item yields results
  /// byte-identical to the same text submitted pre-segmented.
  ///
  /// Deadline reclaim: when every item carries a real deadline, the model
  /// polls the latest of them between forward stages; a batch whose members
  /// all expired mid-compute is abandoned and an EMPTY vector returned —
  /// the batcher completes each member with DeadlineExceeded and counts the
  /// reclaim. A non-empty return always has one result per item.
  std::vector<SentenceResult> DisambiguateBatch(
      const std::vector<BatchItem>& items,
      core::BootlegModel::InferenceScratch* scratch);

  /// Raw batched prediction over prebuilt examples (the equivalence-test
  /// surface): returns exactly what model().Predict would per example.
  std::vector<std::vector<int64_t>> PredictExamples(
      const std::vector<const data::SentenceExample*>& batch,
      core::BootlegModel::InferenceScratch* scratch) const;

  core::BootlegModel& model() { return *model_; }
  CandidateCache& cache() { return cache_; }
  const kb::KnowledgeBase& kb() const { return kb_; }
  const kb::CandidateMap& candidates() const { return candidates_; }
  const text::Vocabulary& vocab() const { return vocab_; }

  /// Path of the weights currently serving (snapshot or checkpoint file).
  const std::string& loaded_path() const { return loaded_path_; }

  /// Snapshot of the mapped embedding store serving frozen features, or
  /// nullptr when the engine computes them into the heap (no store_dir).
  /// Returns a shared_ptr so callers on connection threads keep the mapped
  /// generation alive even if Reload() swaps a newer one in concurrently —
  /// never hold a raw pointer across a reload boundary.
  std::shared_ptr<const store::EmbeddingStore> entity_store() const {
    std::lock_guard<std::mutex> lock(store_mu_);
    return entity_store_;
  }
  /// Store generation currently serving (-1 without a store).
  int64_t store_generation() const {
    std::lock_guard<std::mutex> lock(store_mu_);
    return store_generation_;
  }
  /// Store and its generation read atomically under one lock, so a stats
  /// reader racing a generation swap never pairs the old mapping with the
  /// new generation number (or vice versa).
  std::pair<std::shared_ptr<const store::EmbeddingStore>, int64_t>
  store_snapshot() const {
    std::lock_guard<std::mutex> lock(store_mu_);
    return {entity_store_, store_generation_};
  }

  /// Entities added to this process through the delta chain (live adds plus
  /// deltas replayed from disk at adoption time).
  int64_t induced_entities() const {
    std::lock_guard<std::mutex> lock(store_mu_);
    return induced_entities_;
  }

  /// Chain compactions fired by the --compact_chain_depth watermark.
  int64_t auto_compactions() const {
    std::lock_guard<std::mutex> lock(store_mu_);
    return auto_compactions_;
  }

 private:
  InferenceEngine(const EngineOptions& options, size_t cache_capacity);

  util::Status Initialize();
  /// Opens the newest generation under options_.store_dir and points the
  /// model's frozen gather path at it. Publishes store gauges on success.
  util::Status AdoptNewestStoreGeneration();

  EngineOptions options_;
  kb::KnowledgeBase kb_;
  kb::CandidateMap candidates_;
  text::Vocabulary vocab_;
  std::unique_ptr<core::BootlegModel> model_;
  CandidateCache cache_;
  /// Greedy leftmost-longest scanner over candidates_; rebuilt whenever a
  /// delta commit can grow the longest alias (its n-gram window bound).
  std::unique_ptr<data::MentionExtractor> extractor_;
  std::string loaded_path_;
  /// Title token id per KB entity (use_title_feature configs); grows as
  /// delta-chain entities are applied, mirrored into the model.
  std::vector<int64_t> title_token_ids_;
  /// Guards entity_store_/store_generation_/induced_entities_: written by
  /// the reload path (batcher worker / Initialize), read by stats on
  /// connection threads.
  mutable std::mutex store_mu_;
  std::shared_ptr<store::EmbeddingStore> entity_store_;
  int64_t store_generation_ = -1;
  int64_t induced_entities_ = 0;
  int64_t auto_compactions_ = 0;
};

}  // namespace bootleg::serve

#endif  // BOOTLEG_SERVE_INFERENCE_ENGINE_H_
