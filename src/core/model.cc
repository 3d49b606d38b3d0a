#include "core/model.h"

#include <algorithm>
#include <chrono>
#include <cmath>

#include "nn/init.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "util/string_util.h"

namespace bootleg::core {

using tensor::Tensor;
using tensor::Var;

BootlegModel::BootlegModel(const kb::KnowledgeBase* kb, int64_t vocab_size,
                           BootlegConfig config, uint64_t seed)
    : kb_(kb), config_(config), rng_(seed) {
  BOOTLEG_CHECK_MSG(config_.use_entity || config_.use_type || config_.use_kg,
                    "at least one signal source must be enabled");
  encoder_ = std::make_unique<text::WordEncoder>(&store_, "encoder", vocab_size,
                                                 config_.encoder, &rng_);
  if (config_.freeze_encoder) store_.Freeze("encoder");

  input_dim_ = 0;
  if (config_.use_entity) {
    entity_emb_ = store_.CreateEmbedding("entity_emb", kb_->num_entities(),
                                         config_.entity_dim, &rng_);
    // All entity embeddings start identical so unseen entities do not differ
    // by initialization noise (Appendix B).
    entity_emb_->InitConstantRows(Tensor::Randn({config_.entity_dim}, &rng_, 0.02f));
    input_dim_ += config_.entity_dim;
  }
  if (config_.use_type) {
    type_emb_ = store_.CreateEmbedding("type_emb", kb_->num_types() + 1,
                                       config_.type_dim, &rng_);
    type_pool_ = std::make_unique<nn::AdditiveAttention>(
        &store_, "type_pool", config_.type_dim, config_.attn_pool_dim, &rng_);
    input_dim_ += config_.type_dim;
    if (config_.use_type_prediction) {
      coarse_table_ = store_.CreateParam(
          "coarse_table",
          nn::EmbeddingInit(kb::kNumCoarseTypes, config_.coarse_dim, &rng_));
      type_pred_head_ = std::make_unique<nn::Mlp>(
          &store_, "type_pred",
          std::vector<int64_t>{config_.hidden, config_.hidden,
                               kb::kNumCoarseTypes},
          &rng_);
      input_dim_ += config_.coarse_dim;
    }
  }
  if (config_.use_kg) {
    rel_emb_ = store_.CreateEmbedding("rel_emb", kb_->num_relations() + 1,
                                      config_.rel_dim, &rng_);
    rel_pool_ = std::make_unique<nn::AdditiveAttention>(
        &store_, "rel_pool", config_.rel_dim, config_.attn_pool_dim, &rng_);
    input_dim_ += config_.rel_dim;
  }
  if (config_.use_title_feature) {
    title_dim_ = 16;
    title_proj_ = std::make_unique<nn::Linear>(&store_, "title_proj",
                                               config_.encoder.hidden,
                                               title_dim_, &rng_);
    input_dim_ += title_dim_;
  }
  input_mlp_ = std::make_unique<nn::Mlp>(
      &store_, "input_mlp",
      std::vector<int64_t>{input_dim_, config_.hidden, config_.hidden}, &rng_);

  if (config_.use_position_encoding) {
    position_table_ =
        nn::SinusoidalPositionTable(config_.encoder.max_len, config_.hidden);
    position_proj_ = std::make_unique<nn::Linear>(
        &store_, "position_proj", 2 * config_.hidden, config_.hidden, &rng_);
  }

  const int64_t num_kg = (config_.use_kg ? 1 : 0) +
                         (config_.use_cooccurrence_kg ? 1 : 0) +
                         (config_.use_kg && config_.use_two_hop_kg ? 1 : 0);
  for (int64_t l = 0; l < config_.num_layers; ++l) {
    Layer layer;
    const std::string p = "layer" + std::to_string(l);
    layer.phrase2ent = std::make_unique<nn::AttentionBlock>(
        &store_, p + ".phrase2ent", config_.hidden, config_.num_heads,
        config_.ff_inner, &rng_);
    layer.ent2ent = std::make_unique<nn::AttentionBlock>(
        &store_, p + ".ent2ent", config_.hidden, config_.num_heads,
        config_.ff_inner, &rng_);
    for (int64_t k = 0; k < num_kg; ++k) {
      layer.kg_weights.push_back(store_.CreateParam(
          p + ".kg_w" + std::to_string(k), Tensor::Ones({1})));
    }
    layers_.push_back(std::move(layer));
  }
  score_vec_ = store_.CreateParam("score_vec",
                                  nn::XavierUniform(config_.hidden, 1, &rng_));
}

Tensor BootlegModel::BuildAdjacency(const data::SentenceExample& example,
                                    const std::vector<int64_t>& row_entities,
                                    const std::vector<int64_t>& row_mention,
                                    AdjacencyKind kind) const {
  (void)example;
  const int64_t rows = static_cast<int64_t>(row_entities.size());
  Tensor k({rows, rows});
  for (int64_t i = 0; i < rows; ++i) {
    for (int64_t j = 0; j < rows; ++j) {
      if (i == j || row_mention[static_cast<size_t>(i)] ==
                        row_mention[static_cast<size_t>(j)]) {
        continue;  // candidates of one mention are never KG-linked to
                   // themselves or to each other
      }
      const kb::EntityId a = row_entities[static_cast<size_t>(i)];
      const kb::EntityId b = row_entities[static_cast<size_t>(j)];
      switch (kind) {
        case AdjacencyKind::kWikidata:
          if (kb_->Connected(a, b)) k.at(i, j) = 1.0f;
          break;
        case AdjacencyKind::kCooccurrence:
          BOOTLEG_CHECK_MSG(cooc_ != nullptr,
                            "cooccurrence KG requested but stats not set");
          k.at(i, j) = cooc_->Weight(a, b);
          break;
        case AdjacencyKind::kTwoHop:
          // Down-weighted relative to direct edges: a shared neighbor is
          // weaker evidence than a direct relation.
          if (kb_->TwoHopConnected(a, b)) k.at(i, j) = 0.5f;
          break;
      }
    }
  }
  return k;
}

BootlegModel::ForwardResult BootlegModel::RunForward(
    const data::SentenceExample& example, bool train, util::Rng* rng) {
  ForwardResult result;
  const int64_t n_tokens = std::min<int64_t>(
      static_cast<int64_t>(example.token_ids.size()), config_.encoder.max_len);
  if (n_tokens == 0 || example.mentions.empty()) return result;

  // Row layout: one row per (mention, candidate).
  std::vector<int64_t> row_entities;
  std::vector<int64_t> row_mention;
  result.row_offset.resize(example.mentions.size());
  result.row_count.resize(example.mentions.size());
  for (size_t mi = 0; mi < example.mentions.size(); ++mi) {
    const data::MentionExample& m = example.mentions[mi];
    result.row_offset[mi] = static_cast<int64_t>(row_entities.size());
    result.row_count[mi] = static_cast<int64_t>(m.candidates.size());
    for (kb::EntityId e : m.candidates) {
      row_entities.push_back(e);
      row_mention.push_back(static_cast<int64_t>(mi));
    }
  }
  const int64_t rows = static_cast<int64_t>(row_entities.size());
  if (rows == 0) return result;

  const bool encoder_train = train && !config_.freeze_encoder;
  Var w = encoder_->Encode(example.token_ids, rng, encoder_train);

  auto clamp_span = [n_tokens](int64_t s) {
    return std::max<int64_t>(0, std::min<int64_t>(s, n_tokens - 1));
  };

  // --- Mention-level coarse type prediction (Appendix A). --------------------
  Var tpred_rows;  // [rows, coarse_dim] (selection-expanded per candidate row)
  if (config_.use_type && config_.use_type_prediction) {
    std::vector<Var> mention_vecs;
    for (const data::MentionExample& m : example.mentions) {
      mention_vecs.push_back(text::WordEncoder::MentionEmbedding(
          w, clamp_span(m.span_start), clamp_span(m.span_end)));
    }
    Var m_mat = tensor::ConcatRows(mention_vecs);  // [M, hidden]
    Var logits = type_pred_head_->Forward(m_mat, rng, train);  // [M, C]
    Var t_hat = tensor::MatMul(tensor::SoftmaxRows(logits), coarse_table_);

    // Expand per-mention rows to per-candidate rows via a constant one-hot
    // selection matrix.
    Tensor sel({rows, static_cast<int64_t>(example.mentions.size())});
    for (int64_t r = 0; r < rows; ++r) {
      sel.at(r, row_mention[static_cast<size_t>(r)]) = 1.0f;
    }
    tpred_rows = tensor::MatMul(Var::Constant(std::move(sel)), t_hat);

    // Supervision: the true coarse type of the gold entity, for mentions
    // whose gold is in the candidate list.
    std::vector<Var> supervised;
    for (size_t mi = 0; mi < example.mentions.size(); ++mi) {
      const data::MentionExample& m = example.mentions[mi];
      if (m.gold_index < 0) continue;
      supervised.push_back(
          tensor::SliceRows(logits, static_cast<int64_t>(mi), 1));
      result.type_targets.push_back(
          static_cast<int64_t>(kb_->entity(m.gold).coarse_type));
    }
    if (!supervised.empty()) {
      result.type_logits = tensor::ConcatRows(supervised);
    }
  }

  // --- Candidate feature assembly (Sec. 3.1). --------------------------------
  std::vector<Var> feature_parts;

  if (config_.use_entity) {
    Var u = entity_emb_->Lookup(row_entities);  // [rows, entity_dim]
    if (train && config_.regularization.scheme != RegScheme::kNone) {
      Tensor mask({rows, config_.entity_dim});
      mask.Fill(1.0f);
      for (int64_t r = 0; r < rows; ++r) {
        const int64_t count =
            counts_ == nullptr
                ? 1
                : counts_->Count(row_entities[static_cast<size_t>(r)]);
        const float p = config_.regularization.MaskProbability(count);
        if (config_.regularization.two_dimensional) {
          // 2-D regularization: mask the whole embedding row with prob p(e).
          if (rng->Bernoulli(p)) {
            for (int64_t j = 0; j < config_.entity_dim; ++j) {
              mask.at(r, j) = 0.0f;
            }
          }
        } else {
          // 1-D baseline: standard inverted dropout at rate p(e).
          const float keep_scale = p >= 1.0f ? 0.0f : 1.0f / (1.0f - p);
          for (int64_t j = 0; j < config_.entity_dim; ++j) {
            mask.at(r, j) = rng->Bernoulli(p) ? 0.0f : keep_scale;
          }
        }
      }
      u = tensor::MulConst(u, mask);
    }
    feature_parts.push_back(u);
  }

  if (config_.use_type) {
    std::vector<Var> pooled;
    pooled.reserve(static_cast<size_t>(rows));
    for (int64_t r = 0; r < rows; ++r) {
      const kb::Entity& e = kb_->entity(row_entities[static_cast<size_t>(r)]);
      std::vector<int64_t> type_ids;
      const int64_t max_t = config_.max_types_per_entity;
      for (kb::TypeId t : e.types) {
        if (static_cast<int64_t>(type_ids.size()) >= max_t) break;
        type_ids.push_back(t + 1);  // shift: row 0 = "no type"
      }
      if (type_ids.empty()) type_ids.push_back(0);
      pooled.push_back(type_pool_->Pool(type_emb_->Lookup(type_ids)));
    }
    feature_parts.push_back(tensor::ConcatRows(pooled));
    if (config_.use_type_prediction && tpred_rows.defined()) {
      feature_parts.push_back(tpred_rows);
    }
  }

  if (config_.use_kg) {
    std::vector<Var> pooled;
    pooled.reserve(static_cast<size_t>(rows));
    for (int64_t r = 0; r < rows; ++r) {
      const kb::Entity& e = kb_->entity(row_entities[static_cast<size_t>(r)]);
      std::vector<int64_t> rel_ids;
      const int64_t max_r = config_.max_relations_per_entity;
      for (kb::RelationId rel : e.relations) {
        if (static_cast<int64_t>(rel_ids.size()) >= max_r) break;
        rel_ids.push_back(rel + 1);  // shift: row 0 = "no relation"
      }
      if (rel_ids.empty()) rel_ids.push_back(0);
      pooled.push_back(rel_pool_->Pool(rel_emb_->Lookup(rel_ids)));
    }
    feature_parts.push_back(tensor::ConcatRows(pooled));
  }

  if (config_.use_title_feature) {
    BOOTLEG_CHECK_MSG(!title_token_ids_.empty(),
                      "use_title_feature requires SetTitleTokenIds");
    std::vector<int64_t> title_tokens;
    title_tokens.reserve(static_cast<size_t>(rows));
    for (int64_t r = 0; r < rows; ++r) {
      title_tokens.push_back(
          title_token_ids_[static_cast<size_t>(row_entities[static_cast<size_t>(r)])]);
    }
    // Title embeddings are read as constants (the analogue of averaging
    // frozen BERT WordPiece embeddings of the title).
    Tensor titles =
        encoder_->token_embedding()->LookupValue(title_tokens);
    feature_parts.push_back(
        title_proj_->Forward(Var::Constant(std::move(titles))));
  }

  Var e_mat = input_mlp_->Forward(tensor::ConcatCols(feature_parts), rng, train);

  if (config_.use_position_encoding) {
    Tensor pos({rows, 2 * config_.hidden});
    for (int64_t r = 0; r < rows; ++r) {
      const data::MentionExample& m =
          example.mentions[static_cast<size_t>(row_mention[static_cast<size_t>(r)])];
      const int64_t first = clamp_span(m.span_start);
      const int64_t last = clamp_span(m.span_end);
      for (int64_t j = 0; j < config_.hidden; ++j) {
        pos.at(r, j) = position_table_.at(first, j);
        pos.at(r, config_.hidden + j) = position_table_.at(last, j);
      }
    }
    e_mat = tensor::Add(e_mat,
                        position_proj_->Forward(Var::Constant(std::move(pos))));
  }

  // --- Stacked Phrase2Ent + Ent2Ent + KG2Ent layers (Sec. 3.2). --------------
  std::vector<Tensor> adjacencies;
  if (config_.use_kg) {
    adjacencies.push_back(BuildAdjacency(example, row_entities, row_mention,
                                         AdjacencyKind::kWikidata));
  }
  if (config_.use_cooccurrence_kg) {
    adjacencies.push_back(BuildAdjacency(example, row_entities, row_mention,
                                         AdjacencyKind::kCooccurrence));
  }
  if (config_.use_kg && config_.use_two_hop_kg) {
    adjacencies.push_back(BuildAdjacency(example, row_entities, row_mention,
                                         AdjacencyKind::kTwoHop));
  }

  Var e = e_mat;
  Var e_prime;
  std::vector<Var> ek_outputs;
  for (const Layer& layer : layers_) {
    Var p = layer.phrase2ent->Forward(e, w, rng, train);
    Var c = layer.ent2ent->Forward(e, rng, train);
    e_prime = tensor::Add(p, c);  // E' = MHA(E, W) + MHA(E)

    ek_outputs.clear();
    for (size_t k = 0; k < adjacencies.size(); ++k) {
      Var attn = tensor::SoftmaxRows(
          tensor::AddScaledIdentity(adjacencies[k], layer.kg_weights[k]));
      ek_outputs.push_back(
          tensor::Add(tensor::MatMul(attn, e_prime), e_prime));
    }
    if (ek_outputs.empty()) {
      e = e_prime;
    } else if (ek_outputs.size() == 1) {
      e = ek_outputs[0];
    } else {
      // Multiple KG2Ent modules: average of outputs feeds the next layer.
      Var sum = ek_outputs[0];
      for (size_t k = 1; k < ek_outputs.size(); ++k) {
        sum = tensor::Add(sum, ek_outputs[k]);
      }
      e = tensor::Scale(sum, 1.0f / static_cast<float>(ek_outputs.size()));
    }
  }
  result.ek = e;

  // --- Ensemble scoring S = max(E_k vᵀ, E' vᵀ) over all KG outputs. ----------
  Var scores;
  if (config_.ensemble_scoring) {
    scores = tensor::MatMul(e_prime, score_vec_);
    for (const Var& ek : ek_outputs) {
      scores = tensor::Max(scores, tensor::MatMul(ek, score_vec_));
    }
  } else {
    // Ablation arm: score only the final module output.
    scores = tensor::MatMul(e, score_vec_);
  }
  result.scores = scores;
  result.valid = true;
  return result;
}

Var BootlegModel::Loss(const data::SentenceExample& example, bool train,
                       util::Rng* rng) {
  ForwardResult fwd = RunForward(example, train, rng != nullptr ? rng : &rng_);
  if (!fwd.valid) return Var();

  std::vector<Var> mention_losses;
  for (size_t mi = 0; mi < example.mentions.size(); ++mi) {
    const data::MentionExample& m = example.mentions[mi];
    if (m.gold_index < 0 || fwd.row_count[mi] == 0) continue;
    Var logits = tensor::Transpose(
        tensor::SliceRows(fwd.scores, fwd.row_offset[mi], fwd.row_count[mi]));
    mention_losses.push_back(tensor::CrossEntropy(logits, {m.gold_index}));
  }
  if (mention_losses.empty()) return Var();

  Var loss = mention_losses[0];
  for (size_t i = 1; i < mention_losses.size(); ++i) {
    loss = tensor::Add(loss, mention_losses[i]);
  }
  loss = tensor::Scale(loss, 1.0f / static_cast<float>(mention_losses.size()));

  if (fwd.type_logits.defined() && !fwd.type_targets.empty()) {
    loss = tensor::Add(loss,
                       tensor::CrossEntropy(fwd.type_logits, fwd.type_targets));
  }
  return loss;
}

/// StoreView computing each static row on demand from the live tables.
/// Predict gathers through it, so a Predict after any weight change (a
/// training step, CompressEntityEmbeddings, a checkpoint load) reads the
/// current values; PrepareFrozenInference materializes it into the frozen
/// table. RowPtr stays nullptr, so PredictRows stages the rows through
/// GatherRows into its scratch.
class BootlegModel::LiveRowView : public store::StoreView {
 public:
  explicit LiveRowView(const BootlegModel* model) : model_(model) {
    BOOTLEG_CHECK_MSG(model->entity_emb_ == nullptr ||
                          model->entity_emb_->rows() == model->kb_->num_entities(),
                      "live feature rows read the entity table, which "
                      "ReleaseEntityTableForServing freed; serve through "
                      "PredictBatch");
    BOOTLEG_CHECK_MSG(
        !model->config_.use_title_feature || !model->title_token_ids_.empty(),
        "use_title_feature requires SetTitleTokenIds");
  }

  int64_t rows() const override { return model_->kb_->num_entities(); }
  int64_t cols() const override { return model_->FrozenStaticCols(); }
  void GatherRow(int64_t id, float* dst) const override {
    const BootlegModel& m = *model_;
    const float* slot =
        m.config_.use_entity
            ? m.entity_emb_->table().data() + id * m.config_.entity_dim
            : nullptr;
    const int64_t title = m.config_.use_title_feature
                              ? m.title_token_ids_[static_cast<size_t>(id)]
                              : 0;
    m.ComputeFrozenRow(m.kb_->entity(id), slot, title, dst);
  }

 private:
  const BootlegModel* model_;
};

std::vector<int64_t> BootlegModel::Predict(const data::SentenceExample& example) {
  thread_local InferenceScratch scratch;
  return PredictRows({&example}, LiveRowView(this), &scratch)[0];
}

int64_t BootlegModel::FrozenStaticCols() const {
  int64_t cols = 0;
  if (config_.use_entity) cols += config_.entity_dim;
  if (config_.use_type) cols += config_.type_dim;
  if (config_.use_kg) cols += config_.rel_dim;
  if (config_.use_title_feature) cols += title_dim_;
  return cols;
}

void BootlegModel::ComputeFrozenRow(const kb::Entity& entity,
                                    const float* entity_slot,
                                    int64_t title_token_id, float* dst) const {
  std::vector<int64_t> ids;
  if (config_.use_entity) {
    for (int64_t j = 0; j < config_.entity_dim; ++j) dst[j] = entity_slot[j];
    dst += config_.entity_dim;
  }
  if (config_.use_type) {
    for (kb::TypeId t : entity.types) {
      if (static_cast<int64_t>(ids.size()) >= config_.max_types_per_entity) break;
      ids.push_back(t + 1);  // shift: row 0 = "no type"
    }
    if (ids.empty()) ids.push_back(0);
    Tensor pooled = type_pool_->PoolValue(type_emb_->LookupValue(ids));
    for (int64_t j = 0; j < config_.type_dim; ++j) dst[j] = pooled.at(0, j);
    dst += config_.type_dim;
  }
  if (config_.use_kg) {
    ids.clear();
    for (kb::RelationId rel : entity.relations) {
      if (static_cast<int64_t>(ids.size()) >= config_.max_relations_per_entity) break;
      ids.push_back(rel + 1);  // shift: row 0 = "no relation"
    }
    if (ids.empty()) ids.push_back(0);
    Tensor pooled = rel_pool_->PoolValue(rel_emb_->LookupValue(ids));
    for (int64_t j = 0; j < config_.rel_dim; ++j) dst[j] = pooled.at(0, j);
    dst += config_.rel_dim;
  }
  if (config_.use_title_feature) {
    Tensor title = title_proj_->ForwardValue(
        encoder_->token_embedding()->LookupValue({title_token_id}));
    for (int64_t j = 0; j < title_dim_; ++j) dst[j] = title.at(0, j);
  }
}

util::Status BootlegModel::SynthesizeFrozenRow(const kb::Entity& entity,
                                               const float* entity_slot,
                                               int64_t title_token_id,
                                               float* dst) const {
  if (dst == nullptr) {
    return util::Status::InvalidArgument("SynthesizeFrozenRow: null dst");
  }
  if (config_.use_entity && entity_slot == nullptr) {
    return util::Status::InvalidArgument(
        "SynthesizeFrozenRow: use_entity requires an entity_slot");
  }
  if (config_.use_type) {
    for (kb::TypeId t : entity.types) {
      if (t < 0 || t >= kb_->num_types()) {
        return util::Status::InvalidArgument(
            "SynthesizeFrozenRow: type id out of range");
      }
    }
  }
  if (config_.use_kg) {
    for (kb::RelationId rel : entity.relations) {
      if (rel < 0 || rel >= kb_->num_relations()) {
        return util::Status::InvalidArgument(
            "SynthesizeFrozenRow: relation id out of range");
      }
    }
  }
  if (config_.use_title_feature &&
      (title_token_id < 0 ||
       title_token_id >= encoder_->token_embedding()->rows())) {
    return util::Status::InvalidArgument(
        "SynthesizeFrozenRow: title token id out of range");
  }
  ComputeFrozenRow(entity, entity_slot, title_token_id, dst);
  return util::Status::OK();
}

void BootlegModel::PrepareFrozenInference() {
  const LiveRowView live(this);
  const int64_t n = live.rows();
  const int64_t cols = live.cols();
  frozen_static_ = Tensor({n, cols});
  for (kb::EntityId e = 0; e < n; ++e) {
    live.GatherRow(e, frozen_static_.data() + e * cols);
  }
  // PredictBatch gathers through a view either way; this one borrows the
  // table's buffer and is replaced whenever the table is.
  frozen_view_ =
      std::make_shared<store::HeapView>(frozen_static_.data(), n, cols);
  frozen_from_store_ = false;
  frozen_ready_ = true;
}

util::Status BootlegModel::UseFrozenStore(
    std::shared_ptr<const store::StoreView> view) {
  if (view == nullptr) {
    return util::Status::InvalidArgument("UseFrozenStore: null view");
  }
  if (view->rows() != kb_->num_entities()) {
    return util::Status::InvalidArgument(
        "store has " + std::to_string(view->rows()) + " rows but the KB has " +
        std::to_string(kb_->num_entities()) + " entities");
  }
  const int64_t want_cols = FrozenStaticCols();
  if (view->cols() != want_cols) {
    return util::Status::InvalidArgument(
        "store has " + std::to_string(view->cols()) +
        " columns but this config needs " + std::to_string(want_cols) +
        " (was it exported under a different ablation?)");
  }
  frozen_static_ = Tensor();  // the view replaces the heap table
  frozen_view_ = std::move(view);
  frozen_from_store_ = true;
  frozen_ready_ = true;
  return util::Status::OK();
}

void BootlegModel::ReleaseEntityTableForServing() {
  BOOTLEG_CHECK_MSG(frozen_from_store_,
                    "ReleaseEntityTableForServing requires UseFrozenStore");
  if (entity_emb_ != nullptr) entity_emb_->ReleaseTable();
}

std::vector<std::vector<int64_t>> BootlegModel::PredictBatch(
    const std::vector<const data::SentenceExample*>& batch,
    InferenceScratch* scratch) const {
  BOOTLEG_CHECK_MSG(frozen_ready_,
                    "PrepareFrozenInference() must run before PredictBatch");
  return PredictRows(batch, *frozen_view_, scratch);
}

std::vector<std::vector<int64_t>> BootlegModel::PredictRows(
    const std::vector<const data::SentenceExample*>& batch,
    const store::StoreView& view, InferenceScratch* scratch) const {
  std::vector<std::vector<int64_t>> preds(batch.size());
  InferenceScratch& s = *scratch;
  s.sentences.clear();
  s.sequences.clear();
  s.row_entities.clear();
  s.row_mention.clear();
  s.mention_row_offset.clear();
  s.mention_row_count.clear();
  s.p2e_segments.clear();
  s.self_segments.clear();

  // --- Row layout, exactly as RunForward builds it per sentence. -------------
  for (size_t b = 0; b < batch.size(); ++b) {
    const data::SentenceExample& ex = *batch[b];
    preds[b].assign(ex.mentions.size(), -1);
    const int64_t n_tokens = std::min<int64_t>(
        static_cast<int64_t>(ex.token_ids.size()), config_.encoder.max_len);
    if (n_tokens == 0 || ex.mentions.empty()) continue;

    InferenceScratch::SentenceInfo info;
    info.ex_index = static_cast<int64_t>(b);
    info.row_offset = static_cast<int64_t>(s.row_entities.size());
    info.mention_offset = static_cast<int64_t>(s.mention_row_offset.size());
    info.mentions = static_cast<int64_t>(ex.mentions.size());
    info.n_tokens = n_tokens;
    for (size_t mi = 0; mi < ex.mentions.size(); ++mi) {
      const data::MentionExample& m = ex.mentions[mi];
      s.mention_row_offset.push_back(static_cast<int64_t>(s.row_entities.size()));
      s.mention_row_count.push_back(static_cast<int64_t>(m.candidates.size()));
      for (kb::EntityId e : m.candidates) {
        s.row_entities.push_back(e);
        s.row_mention.push_back(static_cast<int64_t>(mi));
      }
    }
    info.rows = static_cast<int64_t>(s.row_entities.size()) - info.row_offset;
    if (info.rows == 0) {
      s.mention_row_offset.resize(static_cast<size_t>(info.mention_offset));
      s.mention_row_count.resize(static_cast<size_t>(info.mention_offset));
      continue;
    }
    s.sentences.push_back(info);
    s.sequences.push_back(&ex.token_ids);
  }
  if (s.sentences.empty()) return preds;
  const int64_t total_rows = static_cast<int64_t>(s.row_entities.size());
  const int64_t total_mentions = static_cast<int64_t>(s.mention_row_offset.size());
  const int64_t hidden = config_.hidden;

  // Cooperative cancellation between stages: an abandoned batch returns an
  // empty vector (never a partial result), which the serving layer turns
  // into per-request DeadlineExceeded.
  const auto cancelled = [&s] { return s.cancel_check && s.cancel_check(); };

  // --- Contextual word embeddings, batched with per-sentence attention. ------
  Tensor w_all;
  {
    OBS_SPAN("infer.encode");
    w_all = encoder_->EncodeBatchValue(s.sequences, &s.word_ranges);
  }
  if (cancelled()) return {};

  auto clamp_span = [](int64_t v, int64_t n_tokens) {
    return std::max<int64_t>(0, std::min<int64_t>(v, n_tokens - 1));
  };

  // --- Mention-level coarse type prediction (batched head). ------------------
  const bool use_tpred = config_.use_type && config_.use_type_prediction;
  Tensor tpred_all;
  if (use_tpred) {
    OBS_SPAN("infer.type_pred");
    Tensor m_all({total_mentions, hidden});
    for (size_t i = 0; i < s.sentences.size(); ++i) {
      const InferenceScratch::SentenceInfo& info = s.sentences[i];
      const data::SentenceExample& ex = *batch[static_cast<size_t>(info.ex_index)];
      const int64_t w_off = s.word_ranges[i].first;
      for (int64_t mi = 0; mi < info.mentions; ++mi) {
        const data::MentionExample& m = ex.mentions[static_cast<size_t>(mi)];
        const int64_t first = clamp_span(m.span_start, info.n_tokens);
        const int64_t last = clamp_span(m.span_end, info.n_tokens);
        const float* w_first = w_all.data() + (w_off + first) * hidden;
        const float* w_last = w_all.data() + (w_off + last) * hidden;
        float* dst = m_all.data() + (info.mention_offset + mi) * hidden;
        for (int64_t j = 0; j < hidden; ++j) dst[j] = w_first[j] + w_last[j];
      }
    }
    Tensor logits = type_pred_head_->ForwardValue(m_all);
    Tensor t_hat =
        tensor::MatMul(tensor::SoftmaxRows(logits), coarse_table_.value());

    // Selection-expand per-mention rows to candidate rows, per sentence — the
    // same one-hot matmul RunForward performs.
    tpred_all = Tensor({total_rows, config_.coarse_dim});
    for (const InferenceScratch::SentenceInfo& info : s.sentences) {
      Tensor t_hat_s = tensor::SliceRows(t_hat, info.mention_offset, info.mentions);
      Tensor sel({info.rows, info.mentions});
      for (int64_t r = 0; r < info.rows; ++r) {
        sel.at(r, s.row_mention[static_cast<size_t>(info.row_offset + r)]) = 1.0f;
      }
      Tensor tp = tensor::MatMul(sel, t_hat_s);
      float* dst = tpred_all.data() + info.row_offset * config_.coarse_dim;
      const float* src = tp.data();
      for (int64_t k = 0; k < info.rows * config_.coarse_dim; ++k) dst[k] = src[k];
    }
  }

  // --- Candidate feature assembly from the per-entity static rows. -----------
  Tensor e_all;
  {
    OBS_SPAN("infer.features");
    Tensor x({total_rows, input_dim_});
    // Static columns [entity | type_pool] go before the sentence-dependent
    // coarse-type slots, [rel_pool | title] after them.
    const int64_t pre_cols = (config_.use_entity ? config_.entity_dim : 0) +
                             (config_.use_type ? config_.type_dim : 0);
    const int64_t static_cols = view.cols();
    const int64_t post_cols = static_cols - pre_cols;
    const int64_t coarse = use_tpred ? config_.coarse_dim : 0;
    // One gather for every deployment (the heap table is a HeapView). Float
    // views serve zero-copy row pointers (with a small prefetch lookahead so
    // the copy loop is not bound by per-row miss latency); non-float stores
    // run one batched fused gather+dequant over the whole id list, then the
    // assembly reads the dequantized rows from scratch.
    static obs::LatencyHistogram* gather_hist =
        obs::MetricsRegistry::Global().GetHistogram("store.gather_us");
    const auto gather_start = std::chrono::steady_clock::now();
    constexpr int64_t kGatherLookahead = 8;
    // Batch-ahead residency advisory: mapped views under a resident-set
    // budget see the whole id list up front, so evicted shards this batch
    // touches are WILLNEEDed before the row loop reaches them. (GatherRows
    // repeats the hint internally for direct callers; no-op elsewhere.)
    // total_rows > 0 here: every kept sentence has a candidate row.
    view.WillGather(s.row_entities.data(), total_rows);
    const bool zero_copy = view.RowPtr(s.row_entities[0]) != nullptr;
    const float* gathered = nullptr;
    if (!zero_copy) {
      s.row_buf.resize(static_cast<size_t>(total_rows * static_cols));
      view.GatherRows(s.row_entities.data(), total_rows, s.row_buf.data());
      gathered = s.row_buf.data();
    } else {
      for (int64_t r = 0; r < std::min(kGatherLookahead, total_rows); ++r) {
        view.PrefetchRow(s.row_entities[static_cast<size_t>(r)]);
      }
    }
    for (int64_t r = 0; r < total_rows; ++r) {
      const float* src;
      if (zero_copy) {
        if (r + kGatherLookahead < total_rows) {
          view.PrefetchRow(
              s.row_entities[static_cast<size_t>(r + kGatherLookahead)]);
        }
        src = view.RowPtr(s.row_entities[static_cast<size_t>(r)]);
      } else {
        src = gathered + r * static_cols;
      }
      float* dst = x.data() + r * input_dim_;
      for (int64_t j = 0; j < pre_cols; ++j) dst[j] = src[j];
      if (use_tpred) {
        const float* tp = tpred_all.data() + r * coarse;
        for (int64_t j = 0; j < coarse; ++j) dst[pre_cols + j] = tp[j];
      }
      for (int64_t j = 0; j < post_cols; ++j) {
        dst[pre_cols + coarse + j] = src[pre_cols + j];
      }
    }
    gather_hist->Record(std::chrono::duration_cast<std::chrono::microseconds>(
                            std::chrono::steady_clock::now() - gather_start)
                            .count());
    e_all = input_mlp_->ForwardValue(x);

    if (config_.use_position_encoding) {
      Tensor pos({total_rows, 2 * hidden});
      for (const InferenceScratch::SentenceInfo& info : s.sentences) {
        const data::SentenceExample& ex =
            *batch[static_cast<size_t>(info.ex_index)];
        for (int64_t r = 0; r < info.rows; ++r) {
          const data::MentionExample& m = ex.mentions[static_cast<size_t>(
              s.row_mention[static_cast<size_t>(info.row_offset + r)])];
          const int64_t first = clamp_span(m.span_start, info.n_tokens);
          const int64_t last = clamp_span(m.span_end, info.n_tokens);
          float* dst = pos.data() + (info.row_offset + r) * 2 * hidden;
          const float* pf = position_table_.data() + first * hidden;
          const float* pl = position_table_.data() + last * hidden;
          for (int64_t j = 0; j < hidden; ++j) {
            dst[j] = pf[j];
            dst[hidden + j] = pl[j];
          }
        }
      }
      e_all = tensor::Add(e_all, position_proj_->ForwardValue(pos));
    }
  }
  if (cancelled()) return {};

  // --- Per-sentence KG adjacencies (sentence-local, built once). -------------
  std::vector<std::vector<Tensor>> adjacencies(s.sentences.size());
  if (config_.use_kg || config_.use_cooccurrence_kg) {
    OBS_SPAN("infer.kg_adjacency");
    for (size_t i = 0; i < s.sentences.size(); ++i) {
      const InferenceScratch::SentenceInfo& info = s.sentences[i];
      const data::SentenceExample& ex = *batch[static_cast<size_t>(info.ex_index)];
      s.sent_entities.assign(
          s.row_entities.begin() + info.row_offset,
          s.row_entities.begin() + info.row_offset + info.rows);
      s.sent_mentions.assign(
          s.row_mention.begin() + info.row_offset,
          s.row_mention.begin() + info.row_offset + info.rows);
      if (config_.use_kg) {
        adjacencies[i].push_back(BuildAdjacency(ex, s.sent_entities,
                                                s.sent_mentions,
                                                AdjacencyKind::kWikidata));
      }
      if (config_.use_cooccurrence_kg) {
        adjacencies[i].push_back(BuildAdjacency(ex, s.sent_entities,
                                                s.sent_mentions,
                                                AdjacencyKind::kCooccurrence));
      }
      if (config_.use_kg && config_.use_two_hop_kg) {
        adjacencies[i].push_back(BuildAdjacency(ex, s.sent_entities,
                                                s.sent_mentions,
                                                AdjacencyKind::kTwoHop));
      }
    }
  }

  for (size_t i = 0; i < s.sentences.size(); ++i) {
    const InferenceScratch::SentenceInfo& info = s.sentences[i];
    s.self_segments.push_back(
        {info.row_offset, info.rows, info.row_offset, info.rows});
    s.p2e_segments.push_back({info.row_offset, info.rows, s.word_ranges[i].first,
                              s.word_ranges[i].second});
  }

  // --- Stacked Phrase2Ent + Ent2Ent + KG2Ent layers. -------------------------
  Tensor e_prime_all;
  std::vector<std::vector<Tensor>> ek_final(s.sentences.size());
  {
    OBS_SPAN("infer.attention");
    for (size_t li = 0; li < layers_.size(); ++li) {
      if (cancelled()) return {};
      const Layer& layer = layers_[li];
      const bool last_layer = li + 1 == layers_.size();
      Tensor p_all = layer.phrase2ent->ForwardSegmentsValue(e_all, w_all,
                                                            s.p2e_segments);
      Tensor c_all = layer.ent2ent->ForwardSegmentsValue(e_all, e_all,
                                                         s.self_segments);
      e_prime_all = tensor::Add(p_all, c_all);

      Tensor e_next({total_rows, hidden});
      for (size_t i = 0; i < s.sentences.size(); ++i) {
        const InferenceScratch::SentenceInfo& info = s.sentences[i];
        Tensor e_prime_s =
            tensor::SliceRows(e_prime_all, info.row_offset, info.rows);
        std::vector<Tensor> eks;
        eks.reserve(adjacencies[i].size());
        for (size_t k = 0; k < adjacencies[i].size(); ++k) {
          Tensor attn = tensor::SoftmaxRows(tensor::AddScaledIdentity(
              adjacencies[i][k], layer.kg_weights[k].value().at(0)));
          eks.push_back(
              tensor::Add(tensor::MatMul(attn, e_prime_s), e_prime_s));
        }
        Tensor e_s;
        if (eks.empty()) {
          e_s = e_prime_s;
        } else if (eks.size() == 1) {
          e_s = eks[0];
        } else {
          Tensor sum = eks[0];
          for (size_t k = 1; k < eks.size(); ++k) sum = tensor::Add(sum, eks[k]);
          e_s = tensor::Scale(sum, 1.0f / static_cast<float>(eks.size()));
        }
        float* dst = e_next.data() + info.row_offset * hidden;
        const float* src = e_s.data();
        for (int64_t k = 0; k < info.rows * hidden; ++k) dst[k] = src[k];
        if (last_layer) ek_final[i] = std::move(eks);
      }
      e_all = std::move(e_next);
    }
  }
  if (cancelled()) return {};

  // --- Ensemble scoring S = max(E_k vᵀ, E' vᵀ). ------------------------------
  OBS_SPAN("infer.score");
  Tensor scores;
  if (config_.ensemble_scoring) {
    scores = tensor::MatMul(e_prime_all, score_vec_.value());
    for (size_t i = 0; i < s.sentences.size(); ++i) {
      const InferenceScratch::SentenceInfo& info = s.sentences[i];
      for (const Tensor& ek : ek_final[i]) {
        Tensor sek = tensor::MatMul(ek, score_vec_.value());
        for (int64_t r = 0; r < info.rows; ++r) {
          float& dst = scores.at(info.row_offset + r, 0);
          dst = std::max(dst, sek.at(r, 0));
        }
      }
    }
  } else {
    scores = tensor::MatMul(e_all, score_vec_.value());
  }

  // --- Per-mention argmax: strict >, so the first of tied candidates wins. ---
  for (const InferenceScratch::SentenceInfo& info : s.sentences) {
    std::vector<int64_t>& out = preds[static_cast<size_t>(info.ex_index)];
    for (int64_t mi = 0; mi < info.mentions; ++mi) {
      const size_t g = static_cast<size_t>(info.mention_offset + mi);
      const int64_t count = s.mention_row_count[g];
      if (count == 0) continue;
      const int64_t off = s.mention_row_offset[g];
      int64_t best = 0;
      for (int64_t k = 1; k < count; ++k) {
        if (scores.at(off + k, 0) > scores.at(off + best, 0)) best = k;
      }
      out[static_cast<size_t>(mi)] = best;
    }
  }
  return preds;
}

std::vector<BootlegModel::ContextualMention> BootlegModel::ContextualEmbeddings(
    const data::SentenceExample& example) {
  std::vector<ContextualMention> out;
  ForwardResult fwd = RunForward(example, /*train=*/false, &rng_);
  if (!fwd.valid) {
    for (const data::MentionExample& m : example.mentions) {
      ContextualMention cm;
      cm.span_start = m.span_start;
      cm.span_end = m.span_end;
      cm.embedding.assign(static_cast<size_t>(config_.hidden), 0.0f);
      out.push_back(std::move(cm));
    }
    return out;
  }
  const Tensor& s = fwd.scores.value();
  const Tensor& ek = fwd.ek.value();
  for (size_t mi = 0; mi < example.mentions.size(); ++mi) {
    if (fwd.row_count[mi] == 0) {
      // Keep alignment with example.mentions: emit a zero embedding.
      ContextualMention cm;
      cm.span_start = example.mentions[mi].span_start;
      cm.span_end = example.mentions[mi].span_end;
      cm.embedding.assign(static_cast<size_t>(config_.hidden), 0.0f);
      out.push_back(std::move(cm));
      continue;
    }
    int64_t best = 0;
    for (int64_t k = 1; k < fwd.row_count[mi]; ++k) {
      if (s.at(fwd.row_offset[mi] + k, 0) > s.at(fwd.row_offset[mi] + best, 0)) {
        best = k;
      }
    }
    ContextualMention cm;
    cm.entity = example.mentions[mi].candidates[static_cast<size_t>(best)];
    cm.span_start = example.mentions[mi].span_start;
    cm.span_end = example.mentions[mi].span_end;
    const int64_t row = fwd.row_offset[mi] + best;
    cm.embedding.assign(ek.data() + row * config_.hidden,
                        ek.data() + (row + 1) * config_.hidden);
    out.push_back(std::move(cm));
  }
  return out;
}

void BootlegModel::CompressEntityEmbeddings(double keep_fraction,
                                            const data::EntityCounts& counts) {
  BOOTLEG_CHECK_MSG(entity_emb_ != nullptr,
                    "compression requires the entity embedding table");
  BOOTLEG_CHECK(!compressed_);
  entity_emb_backup_ = entity_emb_->table();
  compressed_ = true;

  const int64_t n = kb_->num_entities();
  std::vector<kb::EntityId> order(static_cast<size_t>(n));
  for (int64_t i = 0; i < n; ++i) order[static_cast<size_t>(i)] = i;
  std::stable_sort(order.begin(), order.end(),
                   [&counts](kb::EntityId a, kb::EntityId b) {
                     return counts.Count(a) > counts.Count(b);
                   });
  const auto keep = static_cast<int64_t>(
      std::round(keep_fraction * static_cast<double>(n)));

  // Replacement row: a fixed unseen entity's embedding (paper: "choose a
  // random entity embedding for an unseen entity").
  kb::EntityId unseen = order.back();
  for (kb::EntityId e : order) {
    if (counts.Count(e) == 0) {
      unseen = e;
      break;
    }
  }
  const int64_t cols = entity_emb_->cols();
  std::vector<float> replacement(
      entity_emb_backup_.data() + unseen * cols,
      entity_emb_backup_.data() + (unseen + 1) * cols);
  for (int64_t i = keep; i < n; ++i) {
    float* dst = entity_emb_->table().data() + order[static_cast<size_t>(i)] * cols;
    for (int64_t j = 0; j < cols; ++j) dst[j] = replacement[static_cast<size_t>(j)];
  }
}

void BootlegModel::RestoreEntityEmbeddings() {
  BOOTLEG_CHECK(compressed_);
  entity_emb_->table() = entity_emb_backup_;
  compressed_ = false;
}

BootlegModel::SizeReport BootlegModel::Size() const {
  SizeReport report;
  auto table_bytes = [](const nn::Embedding* e) {
    return e == nullptr ? 0 : e->table().numel() * static_cast<int64_t>(sizeof(float));
  };
  report.embedding_bytes =
      table_bytes(entity_emb_) + table_bytes(type_emb_) + table_bytes(rel_emb_);
  for (const std::string& name : store_.param_names()) {
    if (util::StartsWith(name, "encoder")) continue;  // BERT stand-in excluded
    report.network_bytes +=
        store_.GetParam(name).value().numel() * static_cast<int64_t>(sizeof(float));
  }
  return report;
}

}  // namespace bootleg::core
