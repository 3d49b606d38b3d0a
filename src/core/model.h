#ifndef BOOTLEG_CORE_MODEL_H_
#define BOOTLEG_CORE_MODEL_H_

#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "core/config.h"
#include "data/example.h"
#include "eval/evaluator.h"
#include "kb/cooccurrence.h"
#include "kb/kb.h"
#include "nn/attention.h"
#include "nn/layers.h"
#include "nn/optimizer.h"
#include "nn/param_store.h"
#include "store/embedding_store.h"
#include "text/word_encoder.h"
#include "util/rng.h"
#include "util/status.h"

namespace bootleg::core {

/// The Bootleg neural disambiguation model (Sec. 3):
///   - entity / type / relation embedding inputs with additive-attention
///     pooling and a coarse mention-type prediction head;
///   - Phrase2Ent (cross-attention to words), Ent2Ent (candidate
///     self-attention) and KG2Ent (softmax(K + wI)E + E) modules;
///   - ensemble scoring S = max(E_k vᵀ, E' vᵀ);
///   - 2-D inverse-popularity regularization of the entity embedding.
///
/// The use_* switches in BootlegConfig give the Ent-only / Type-only /
/// KG-only ablations of Table 2.
class BootlegModel : public eval::NedScorer {
 public:
  BootlegModel(const kb::KnowledgeBase* kb, int64_t vocab_size,
               BootlegConfig config, uint64_t seed);

  /// Training popularity counts driving the regularization scheme p(e).
  /// Must be set before training when the scheme is popularity-based.
  void SetEntityCounts(const data::EntityCounts* counts) { counts_ = counts; }

  /// Sentence co-occurrence stats for the optional second KG2Ent module.
  void SetCooccurrence(const kb::CooccurrenceStats* cooc) { cooc_ = cooc; }

  /// Vocabulary token id of each entity's title, required when
  /// config.use_title_feature is set (benchmark model, Appendix B).
  void SetTitleTokenIds(std::vector<int64_t> ids) {
    title_token_ids_ = std::move(ids);
  }

  /// Total loss L_dis + L_type over a sentence. Returns an undefined Var
  /// when the sentence has no trainable mention. `rng` drives every
  /// stochastic draw (dropout, regularization masks); nullptr uses the
  /// model's internal generator. Concurrent calls are safe as long as each
  /// passes a distinct rng.
  tensor::Var Loss(const data::SentenceExample& example, bool train,
                   util::Rng* rng = nullptr);

  /// Predicted candidate index per mention (-1 for empty candidate lists).
  std::vector<int64_t> Predict(const data::SentenceExample& example) override;

  /// Reusable buffers for PredictBatch, one per serving worker. Keeping them
  /// across batches avoids per-request metadata allocation on the hot path.
  struct InferenceScratch {
    struct SentenceInfo {
      int64_t ex_index = 0;        // index into the PredictBatch input
      int64_t row_offset = 0;      // first candidate row in the batch tensors
      int64_t rows = 0;
      int64_t mention_offset = 0;  // first row in the batched mention matrix
      int64_t mentions = 0;
      int64_t n_tokens = 0;        // truncated token count
    };
    std::vector<SentenceInfo> sentences;
    std::vector<const std::vector<int64_t>*> sequences;
    std::vector<std::pair<int64_t, int64_t>> word_ranges;
    std::vector<int64_t> row_entities;        // all sentences, batch order
    std::vector<int64_t> row_mention;         // local mention index per row
    std::vector<int64_t> mention_row_offset;  // per batched mention, global
    std::vector<int64_t> mention_row_count;
    std::vector<int64_t> sent_entities;       // per-sentence adjacency temps
    std::vector<int64_t> sent_mentions;
    std::vector<nn::AttentionSegment> p2e_segments;
    std::vector<nn::AttentionSegment> self_segments;
    std::vector<float> row_buf;  // batch-gather staging for non-float views
    /// Optional cooperative cancellation, polled between PredictBatch model
    /// stages. When it returns true the batch is abandoned and PredictBatch
    /// returns an empty vector (no per-example entries) — the serving layer
    /// uses this to reclaim compute from batches whose members' deadlines
    /// all expired mid-flight. Leave empty to run to completion; callers
    /// reusing a scratch across batches must reset it per batch.
    std::function<bool()> cancel_check;
  };

  /// Precomputes every sentence-independent per-entity input feature (entity
  /// embedding row, pooled type embedding, pooled relation embedding,
  /// projected title) into one frozen table read by PredictBatch. Call after
  /// the weights are in place; call again after any weight mutation (e.g. a
  /// serving hot-reload), since the table snapshots current values.
  void PrepareFrozenInference();
  bool frozen_ready() const { return frozen_ready_; }

  /// Serves the frozen per-entity features from an external StoreView (a
  /// memory-mapped embedding store) instead of the in-heap table built by
  /// PrepareFrozenInference(). The view must cover every KB entity with
  /// exactly FrozenStaticCols() columns — the layout PrepareFrozenInference
  /// writes and `bootleg_cli export-store` persists. Replaces any previous
  /// frozen state (heap table or earlier view); PredictBatch then gathers
  /// through this view instead of the HeapView over the heap table. A later
  /// PrepareFrozenInference() call rebuilds the heap table and its view.
  util::Status UseFrozenStore(std::shared_ptr<const store::StoreView> view);
  /// True only while serving from an external view (UseFrozenStore).
  bool frozen_from_store() const { return frozen_from_store_; }

  /// Frozen static-feature column count for the current config: the store
  /// schema PredictBatch expects ([entity | type_pool | rel_pool | title]).
  int64_t FrozenStaticCols() const;

  /// Online induction (the paper's inductive path, Sec. 3 / Sec. D.1):
  /// synthesizes the frozen static-feature row of an entity that was never
  /// trained, from its declared types and relations, using the frozen
  /// type/relation embedding tables and pooling weights — the exact math
  /// PrepareFrozenInference runs per trained entity. The entity-embedding
  /// slot cannot come from the (untrained) entity table, so the caller
  /// supplies it via `entity_slot` (entity_dim floats; pass a sibling
  /// centroid gathered from the live store). `title_token_id` is the
  /// vocabulary id of the entity's title token (ignored unless
  /// use_title_feature). `dst` receives FrozenStaticCols() floats.
  /// `entity.id` is not read — the entity need not be in the model's KB.
  util::Status SynthesizeFrozenRow(const kb::Entity& entity,
                                   const float* entity_slot,
                                   int64_t title_token_id, float* dst) const;

  /// The in-heap frozen table (empty when serving from a store view).
  const tensor::Tensor& frozen_static() const { return frozen_static_; }
  int64_t frozen_pre_cols() const { return frozen_pre_cols_; }

  /// Frees the entity embedding table after UseFrozenStore: its rows are
  /// baked into the store, so keeping them resident would double the memory
  /// the store exists to save. Serving-only — training and checkpointing
  /// must not run on a model with a released table.
  void ReleaseEntityTableForServing();

  /// Forward-only batched inference over several sentences at once (the
  /// serving path). Requires PrepareFrozenInference(). Returns Predict()'s
  /// output for each example and is bit-identical to per-sentence Predict at
  /// any batch composition: every cross-sentence stage is row-wise, while
  /// attention, KG mixing, and scoring run per sentence. Builds no autograd
  /// tape, never touches the model RNG, and is const — safe to call
  /// concurrently with a distinct scratch per thread.
  std::vector<std::vector<int64_t>> PredictBatch(
      const std::vector<const data::SentenceExample*>& batch,
      InferenceScratch* scratch) const;

  /// Contextual entity embeddings (final-layer E_k rows of the predicted
  /// candidate per mention), the representation transferred to downstream
  /// tasks in Sec. 4.3. Returns exactly one entry per example mention; a
  /// mention with no candidates gets a zero embedding and an invalid entity.
  struct ContextualMention {
    kb::EntityId entity = kb::kInvalidId;
    int64_t span_start = 0;
    int64_t span_end = 0;
    std::vector<float> embedding;  // [hidden]
  };
  std::vector<ContextualMention> ContextualEmbeddings(
      const data::SentenceExample& example);

  /// Figure 3: keeps the learned embedding for the top `keep_fraction` of
  /// entities by training count and assigns every other entity the embedding
  /// of one fixed unseen entity. Restore with RestoreEntityEmbeddings().
  void CompressEntityEmbeddings(double keep_fraction,
                                const data::EntityCounts& counts);
  void RestoreEntityEmbeddings();

  /// Table 10 accounting. Embedding bytes cover the entity/type/relation
  /// tables; network bytes cover dense parameters outside the word encoder
  /// (the paper excludes BERT from its totals).
  struct SizeReport {
    int64_t embedding_bytes = 0;
    int64_t network_bytes = 0;
    int64_t total_bytes() const { return embedding_bytes + network_bytes; }
  };
  SizeReport Size() const;

  nn::ParameterStore& store() { return store_; }
  const BootlegConfig& config() const { return config_; }
  util::Rng& rng() { return rng_; }

  enum class AdjacencyKind {
    kWikidata,      // direct KG connectivity (the paper's base matrix)
    kCooccurrence,  // log sentence co-occurrence (benchmark model)
    kTwoHop,        // shared-neighbor 2-hop connectivity (extension)
  };

  /// Test hook exposing the per-sentence adjacency construction.
  tensor::Tensor BuildAdjacencyForTest(const data::SentenceExample& example,
                                       const std::vector<int64_t>& row_entities,
                                       const std::vector<int64_t>& row_mention,
                                       AdjacencyKind kind) const {
    return BuildAdjacency(example, row_entities, row_mention, kind);
  }

 private:
  struct ForwardResult {
    bool valid = false;
    tensor::Var scores;                 // [rows, 1] ensemble scores
    tensor::Var ek;                     // [rows, hidden] final KG output
    std::vector<int64_t> row_offset;    // per mention: first row index
    std::vector<int64_t> row_count;     // per mention: candidate count
    tensor::Var type_logits;            // [mentions_with_types, coarse] or undefined
    std::vector<int64_t> type_targets;  // gold coarse types for those rows
  };

  ForwardResult RunForward(const data::SentenceExample& example, bool train,
                           util::Rng* rng);

  /// Builds one per-sentence KG adjacency over candidate rows.
  tensor::Tensor BuildAdjacency(const data::SentenceExample& example,
                                const std::vector<int64_t>& row_entities,
                                const std::vector<int64_t>& row_mention,
                                AdjacencyKind kind) const;

  const kb::KnowledgeBase* kb_;
  BootlegConfig config_;
  util::Rng rng_;
  nn::ParameterStore store_;
  const data::EntityCounts* counts_ = nullptr;
  const kb::CooccurrenceStats* cooc_ = nullptr;

  // Input side.
  std::unique_ptr<text::WordEncoder> encoder_;
  nn::Embedding* entity_emb_ = nullptr;
  nn::Embedding* type_emb_ = nullptr;      // row 0 = "no type"
  nn::Embedding* rel_emb_ = nullptr;       // row 0 = "no relation"
  tensor::Var coarse_table_;               // [num_coarse, coarse_dim]
  std::unique_ptr<nn::AdditiveAttention> type_pool_;
  std::unique_ptr<nn::AdditiveAttention> rel_pool_;
  std::unique_ptr<nn::Mlp> type_pred_head_;
  std::unique_ptr<nn::Linear> title_proj_;
  std::unique_ptr<nn::Mlp> input_mlp_;
  std::unique_ptr<nn::Linear> position_proj_;
  tensor::Tensor position_table_;

  // Stacked modules.
  struct Layer {
    std::unique_ptr<nn::AttentionBlock> phrase2ent;
    std::unique_ptr<nn::AttentionBlock> ent2ent;
    std::vector<tensor::Var> kg_weights;  // learned scalar w per KG matrix
  };
  std::vector<Layer> layers_;
  tensor::Var score_vec_;  // [hidden, 1]

  int64_t input_dim_ = 0;
  int64_t title_dim_ = 0;
  std::vector<int64_t> title_token_ids_;
  tensor::Tensor entity_emb_backup_;  // for compression restore
  bool compressed_ = false;

  // Frozen per-entity features for the serving path (PrepareFrozenInference).
  // Column layout: [entity | type_pool] then [rel_pool | title] — the
  // sentence-dependent coarse-type prediction slots between the two halves.
  tensor::Tensor frozen_static_;
  int64_t frozen_pre_cols_ = 0;
  bool frozen_ready_ = false;
  // PredictBatch gathers frozen rows through this view: a HeapView over
  // frozen_static_ (PrepareFrozenInference) or an external store view
  // (UseFrozenStore, which sets frozen_from_store_).
  std::shared_ptr<const store::StoreView> frozen_view_;
  bool frozen_from_store_ = false;
};

}  // namespace bootleg::core

#endif  // BOOTLEG_CORE_MODEL_H_
