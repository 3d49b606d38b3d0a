#include "core/model.h"

#include <algorithm>
#include <chrono>
#include <cmath>
#include <type_traits>

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

namespace {

/// Rows [start, start + len) of x: x itself when that is every row, so a
/// one-sentence tape gains no slice node.
template <typename T>
T Rows(const T& x, int64_t start, int64_t len) {
  if (start == 0 && len == tensor::ValueOf(x).size(0)) return x;
  return tensor::SliceRows(x, start, len);
}

/// Per-sentence parts stacked row-wise (the part itself for one sentence).
template <typename T>
T Stack(std::vector<T> parts) {
  if (parts.size() == 1) return std::move(parts[0]);
  return tensor::ConcatRows(parts);
}

/// The per-entity feature code: pools the embeddings of an entity's first
/// `max_ids` type or relation ids, shifted past table row 0, which stands for
/// "none" and is pooled alone when the entity has no id. [1, dim].
template <typename T>
T PoolIds(const std::vector<int64_t>& ids, int64_t max_ids,
          nn::Embedding* table, const nn::AdditiveAttention& pool) {
  std::vector<int64_t> rows;
  for (int64_t id : ids) {
    if (static_cast<int64_t>(rows.size()) >= max_ids) break;
    rows.push_back(id + 1);
  }
  if (rows.empty()) rows.push_back(0);
  return pool.Pool(table->Lookup<T>(rows));
}

/// Projected title-token embeddings [tokens, title_dim]. The embeddings are
/// read as constants (the analogue of averaging frozen BERT WordPiece
/// embeddings of the title).
template <typename T>
T ProjectTitles(const std::vector<int64_t>& tokens, nn::Embedding* table,
                const nn::Linear& proj) {
  return proj.Forward(tensor::ConstantAs<T>(table->Lookup<Tensor>(tokens)));
}

}  // namespace

Tensor BootlegModel::BuildAdjacency(const std::vector<int64_t>& row_entities,
                                    const std::vector<int64_t>& row_mention,
                                    AdjacencyKind kind) const {
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

template <typename T>
bool BootlegModel::Forward(
    const std::vector<const data::SentenceExample*>& batch,
    const store::StoreView* view, util::Rng* rng, bool train,
    InferenceScratch* scratch, ForwardOut<T>* out) const {
  constexpr bool kValue = std::is_same_v<T, Tensor>;
  InferenceScratch& s = *scratch;
  s.sentences.clear();
  s.sequences.clear();
  s.row_entities.clear();
  s.row_mention.clear();
  s.mention_row_offset.clear();
  s.mention_row_count.clear();
  s.p2e_segments.clear();
  s.self_segments.clear();

  // --- Row layout: one row per (mention, candidate), sentence by sentence. ---
  for (size_t b = 0; b < batch.size(); ++b) {
    const data::SentenceExample& ex = *batch[b];
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
  if (s.sentences.empty()) return true;
  const int64_t total_rows = static_cast<int64_t>(s.row_entities.size());
  const int64_t hidden = config_.hidden;

  // Cooperative cancellation between stages: an abandoned batch returns an
  // empty vector (never a partial result), which the serving layer turns
  // into per-request DeadlineExceeded.
  const auto cancelled = [&s] { return s.cancel_check && s.cancel_check(); };
  const auto clamp_span = [](int64_t v, int64_t n_tokens) {
    return std::max<int64_t>(0, std::min<int64_t>(v, n_tokens - 1));
  };

  // --- Contextual word embeddings, attention per sentence. -------------------
  T w;
  {
    OBS_SPAN_IF(kValue, "infer.encode");
    w = encoder_->Encode<T>(s.sequences, &s.word_ranges, rng,
                            train && !config_.freeze_encoder);
  }
  if (cancelled()) return false;

  // --- Mention-level coarse type prediction (Appendix A). --------------------
  T tpred;  // [rows, coarse_dim]
  if (config_.use_type && config_.use_type_prediction) {
    OBS_SPAN_IF(kValue, "infer.type_pred");
    std::vector<T> mentions;  // m = first + last token vector, per mention
    for (size_t i = 0; i < s.sentences.size(); ++i) {
      const InferenceScratch::SentenceInfo& info = s.sentences[i];
      const int64_t w_off = s.word_ranges[i].first;
      for (const data::MentionExample& m :
           batch[static_cast<size_t>(info.ex_index)]->mentions) {
        mentions.push_back(text::WordEncoder::MentionEmbedding(
            w, w_off + clamp_span(m.span_start, info.n_tokens),
            w_off + clamp_span(m.span_end, info.n_tokens)));
      }
    }
    const T logits =
        type_pred_head_->Forward(tensor::ConcatRows(mentions), rng, train);
    const T t_hat = tensor::MatMul(tensor::SoftmaxRows(logits),
                                   tensor::ParamAs<T>(coarse_table_));

    // Expand per-mention rows to candidate rows, per sentence, by a constant
    // one-hot selection matrix (keeps everything 2-D and differentiable).
    std::vector<T> parts;
    for (const InferenceScratch::SentenceInfo& info : s.sentences) {
      Tensor sel({info.rows, info.mentions});
      for (int64_t r = 0; r < info.rows; ++r) {
        const size_t row = static_cast<size_t>(info.row_offset + r);
        sel.at(r, s.row_mention[row]) = 1.0f;
      }
      parts.push_back(
          tensor::MatMul(tensor::ConstantAs<T>(std::move(sel)),
                         Rows(t_hat, info.mention_offset, info.mentions)));
    }
    tpred = Stack(std::move(parts));

    if constexpr (!kValue) {
      // Supervision: the true coarse type of the gold entity, for mentions
      // whose gold is in the candidate list.
      std::vector<Var> supervised;
      for (const InferenceScratch::SentenceInfo& info : s.sentences) {
        const data::SentenceExample& ex =
            *batch[static_cast<size_t>(info.ex_index)];
        for (int64_t mi = 0; mi < info.mentions; ++mi) {
          const data::MentionExample& m = ex.mentions[static_cast<size_t>(mi)];
          if (m.gold_index < 0) continue;
          supervised.push_back(
              tensor::SliceRows(logits, info.mention_offset + mi, 1));
          out->type_targets.push_back(
              static_cast<int64_t>(kb_->entity(m.gold).coarse_type));
        }
      }
      if (!supervised.empty()) {
        out->type_logits = tensor::ConcatRows(supervised);
      }
    }
  }

  // --- Candidate feature assembly (Sec. 3.1). --------------------------------
  T e;
  {
    OBS_SPAN_IF(kValue, "infer.features");
    if constexpr (kValue) {
      e = input_mlp_->Forward(GatherFeatures(s, tpred, *view), rng, train);
    } else {
      e = input_mlp_->Forward(LiveFeatures(s, tpred, rng, train), rng, train);
    }
    if (config_.use_position_encoding) {
      // The mention's first and last token positions, per candidate row.
      Tensor pos({total_rows, 2 * hidden});
      for (const InferenceScratch::SentenceInfo& info : s.sentences) {
        const data::SentenceExample& ex =
            *batch[static_cast<size_t>(info.ex_index)];
        for (int64_t r = 0; r < info.rows; ++r) {
          const data::MentionExample& m = ex.mentions[static_cast<size_t>(
              s.row_mention[static_cast<size_t>(info.row_offset + r)])];
          const float* first = position_table_.data() +
                               clamp_span(m.span_start, info.n_tokens) * hidden;
          const float* last = position_table_.data() +
                              clamp_span(m.span_end, info.n_tokens) * hidden;
          float* dst = pos.data() + (info.row_offset + r) * 2 * hidden;
          std::copy(first, first + hidden, dst);
          std::copy(last, last + hidden, dst + hidden);
        }
      }
      e = tensor::Add(e, position_proj_->Forward(
                             tensor::ConstantAs<T>(std::move(pos))));
    }
  }
  if (cancelled()) return false;

  // --- Per-sentence KG adjacencies, in kg_weights order. ---------------------
  std::vector<AdjacencyKind> kinds;
  if (config_.use_kg) kinds.push_back(AdjacencyKind::kWikidata);
  if (config_.use_cooccurrence_kg) {
    kinds.push_back(AdjacencyKind::kCooccurrence);
  }
  if (config_.use_kg && config_.use_two_hop_kg) {
    kinds.push_back(AdjacencyKind::kTwoHop);
  }
  std::vector<std::vector<Tensor>> adjacencies(s.sentences.size());
  if (!kinds.empty()) {
    OBS_SPAN_IF(kValue, "infer.kg_adjacency");
    for (size_t i = 0; i < s.sentences.size(); ++i) {
      const InferenceScratch::SentenceInfo& info = s.sentences[i];
      s.sent_entities.assign(
          s.row_entities.begin() + info.row_offset,
          s.row_entities.begin() + info.row_offset + info.rows);
      s.sent_mentions.assign(
          s.row_mention.begin() + info.row_offset,
          s.row_mention.begin() + info.row_offset + info.rows);
      for (AdjacencyKind kind : kinds) {
        adjacencies[i].push_back(
            BuildAdjacency(s.sent_entities, s.sent_mentions, kind));
      }
    }
  }

  for (size_t i = 0; i < s.sentences.size(); ++i) {
    const InferenceScratch::SentenceInfo& info = s.sentences[i];
    s.self_segments.push_back(
        {info.row_offset, info.rows, info.row_offset, info.rows});
    s.p2e_segments.push_back({info.row_offset, info.rows,
                              s.word_ranges[i].first, s.word_ranges[i].second});
  }

  // --- Stacked Phrase2Ent + Ent2Ent + KG2Ent layers (Sec. 3.2). --------------
  T e_prime;
  std::vector<std::vector<T>> eks(s.sentences.size());  // per sentence E_k
  {
    OBS_SPAN_IF(kValue, "infer.attention");
    for (const Layer& layer : layers_) {
      if (cancelled()) return false;
      const T p = layer.phrase2ent->Forward(e, w, s.p2e_segments, rng, train);
      const T c = layer.ent2ent->Forward(e, e, s.self_segments, rng, train);
      e_prime = tensor::Add(p, c);  // E' = MHA(E, W) + MHA(E)

      std::vector<T> e_next;
      for (size_t i = 0; i < s.sentences.size(); ++i) {
        const InferenceScratch::SentenceInfo& info = s.sentences[i];
        const T e_prime_s = Rows(e_prime, info.row_offset, info.rows);
        eks[i].clear();
        for (size_t k = 0; k < adjacencies[i].size(); ++k) {
          const T attn = tensor::SoftmaxRows(tensor::AddScaledIdentity(
              adjacencies[i][k], tensor::ParamAs<T>(layer.kg_weights[k])));
          eks[i].push_back(
              tensor::Add(tensor::MatMul(attn, e_prime_s), e_prime_s));
        }
        if (eks[i].empty()) {
          e_next.push_back(e_prime_s);
        } else if (eks[i].size() == 1) {
          e_next.push_back(eks[i][0]);
        } else {
          // Multiple KG2Ent modules: their average feeds the next layer.
          T sum = eks[i][0];
          for (size_t k = 1; k < eks[i].size(); ++k) {
            sum = tensor::Add(sum, eks[i][k]);
          }
          e_next.push_back(
              tensor::Scale(sum, 1.0f / static_cast<float>(eks[i].size())));
        }
      }
      e = Stack(std::move(e_next));
    }
  }
  if (cancelled()) return false;

  // --- Ensemble scoring S = max(E_k vᵀ, E' vᵀ) over all KG outputs. ----------
  OBS_SPAN_IF(kValue, "infer.score");
  const T& v = tensor::ParamAs<T>(score_vec_);
  if (config_.ensemble_scoring) {
    std::vector<T> parts;
    for (size_t i = 0; i < s.sentences.size(); ++i) {
      const InferenceScratch::SentenceInfo& info = s.sentences[i];
      T scores = tensor::MatMul(Rows(e_prime, info.row_offset, info.rows), v);
      for (const T& ek : eks[i]) {
        scores = tensor::Max(scores, tensor::MatMul(ek, v));
      }
      parts.push_back(std::move(scores));
    }
    out->scores = Stack(std::move(parts));
  } else {
    // Ablation arm: score only the final module output.
    out->scores = tensor::MatMul(e, v);
  }
  out->ek = std::move(e);
  return true;
}

Var BootlegModel::LiveFeatures(const InferenceScratch& s, const Var& tpred,
                               util::Rng* rng, bool train) const {
  const std::vector<int64_t>& entities = s.row_entities;
  const int64_t rows = static_cast<int64_t>(entities.size());
  std::vector<Var> parts;
  if (config_.use_entity) {
    Var u = entity_emb_->Lookup(entities);  // [rows, entity_dim]
    if (train && config_.regularization.scheme != RegScheme::kNone) {
      Tensor mask({rows, config_.entity_dim});
      mask.Fill(1.0f);
      for (int64_t r = 0; r < rows; ++r) {
        const int64_t count =
            counts_ == nullptr
                ? 1
                : counts_->Count(entities[static_cast<size_t>(r)]);
        const float p = config_.regularization.MaskProbability(count);
        float* row = mask.data() + r * config_.entity_dim;
        if (config_.regularization.two_dimensional) {
          // 2-D regularization: mask the whole embedding row with prob p(e).
          if (rng->Bernoulli(p)) std::fill(row, row + config_.entity_dim, 0.0f);
        } else {
          // 1-D baseline: standard inverted dropout at rate p(e).
          const float keep_scale = p >= 1.0f ? 0.0f : 1.0f / (1.0f - p);
          for (int64_t j = 0; j < config_.entity_dim; ++j) {
            row[j] = rng->Bernoulli(p) ? 0.0f : keep_scale;
          }
        }
      }
      u = tensor::MulConst(u, mask);
    }
    parts.push_back(u);
  }
  if (config_.use_type) {
    std::vector<Var> pooled;
    pooled.reserve(static_cast<size_t>(rows));
    for (int64_t id : entities) {
      pooled.push_back(PoolIds<Var>(kb_->entity(id).types,
                                    config_.max_types_per_entity, type_emb_,
                                    *type_pool_));
    }
    parts.push_back(tensor::ConcatRows(pooled));
    if (tpred.defined()) parts.push_back(tpred);
  }
  if (config_.use_kg) {
    std::vector<Var> pooled;
    pooled.reserve(static_cast<size_t>(rows));
    for (int64_t id : entities) {
      pooled.push_back(PoolIds<Var>(kb_->entity(id).relations,
                                    config_.max_relations_per_entity, rel_emb_,
                                    *rel_pool_));
    }
    parts.push_back(tensor::ConcatRows(pooled));
  }
  if (config_.use_title_feature) {
    BOOTLEG_CHECK_MSG(!title_token_ids_.empty(),
                      "use_title_feature requires SetTitleTokenIds");
    std::vector<int64_t> tokens;
    tokens.reserve(static_cast<size_t>(rows));
    for (int64_t id : entities) {
      tokens.push_back(title_token_ids_[static_cast<size_t>(id)]);
    }
    parts.push_back(
        ProjectTitles<Var>(tokens, encoder_->token_embedding(), *title_proj_));
  }
  return tensor::ConcatCols(parts);
}

Tensor BootlegModel::GatherFeatures(InferenceScratch& s, const Tensor& tpred,
                                    const store::StoreView& view) const {
  const int64_t total_rows = static_cast<int64_t>(s.row_entities.size());
  Tensor x({total_rows, input_dim_});
  // Static columns [entity | type_pool] go before the sentence-dependent
  // coarse-type slots, [rel_pool | title] after them.
  const int64_t pre_cols = (config_.use_entity ? config_.entity_dim : 0) +
                           (config_.use_type ? config_.type_dim : 0);
  const int64_t static_cols = view.cols();
  const int64_t post_cols = static_cols - pre_cols;
  const int64_t coarse = tpred.empty() ? 0 : config_.coarse_dim;
  // One gather for every deployment (the heap table is a HeapView): the
  // view stages the candidate rows in scratch, then the assembly splices
  // the coarse-type columns in.
  static obs::LatencyHistogram* gather_hist =
      obs::MetricsRegistry::Global().GetHistogram("store.gather_us");
  const auto gather_start = std::chrono::steady_clock::now();
  std::vector<float>& row_buf = s.row_buf;
  row_buf.resize(static_cast<size_t>(total_rows * static_cols));
  view.GatherRows(s.row_entities.data(), total_rows, row_buf.data());
  for (int64_t r = 0; r < total_rows; ++r) {
    const float* src = row_buf.data() + r * static_cols;
    float* dst = x.data() + r * input_dim_;
    std::copy(src, src + pre_cols, dst);
    if (coarse > 0) {
      const float* tp = tpred.data() + r * coarse;
      std::copy(tp, tp + coarse, dst + pre_cols);
    }
    std::copy(src + pre_cols, src + pre_cols + post_cols,
              dst + pre_cols + coarse);
  }
  gather_hist->Record(std::chrono::duration_cast<std::chrono::microseconds>(
                          std::chrono::steady_clock::now() - gather_start)
                          .count());
  return x;
}

Var BootlegModel::Loss(const data::SentenceExample& example, bool train,
                       util::Rng* rng) {
  thread_local InferenceScratch s;
  ForwardOut<Var> fwd;
  Forward<Var>({&example}, nullptr, rng != nullptr ? rng : &rng_, train, &s,
               &fwd);
  if (s.sentences.empty()) return Var();

  std::vector<Var> mention_losses;
  for (size_t mi = 0; mi < example.mentions.size(); ++mi) {
    const data::MentionExample& m = example.mentions[mi];
    const int64_t count = s.mention_row_count[mi];
    if (m.gold_index < 0 || count == 0) continue;
    Var logits = tensor::Transpose(
        tensor::SliceRows(fwd.scores, s.mention_row_offset[mi], count));
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

std::vector<BootlegModel::ContextualMention> BootlegModel::ContextualEmbeddings(
    const data::SentenceExample& example) {
  thread_local InferenceScratch s;
  ForwardOut<Var> fwd;
  Forward<Var>({&example}, nullptr, &rng_, /*train=*/false, &s, &fwd);
  std::vector<ContextualMention> out;
  for (size_t mi = 0; mi < example.mentions.size(); ++mi) {
    const data::MentionExample& m = example.mentions[mi];
    ContextualMention cm;
    cm.span_start = m.span_start;
    cm.span_end = m.span_end;
    const int64_t count = s.sentences.empty() ? 0 : s.mention_row_count[mi];
    if (count == 0) {
      // Keep alignment with example.mentions: emit a zero embedding.
      cm.embedding.assign(static_cast<size_t>(config_.hidden), 0.0f);
      out.push_back(std::move(cm));
      continue;
    }
    const Tensor& scores = fwd.scores.value();
    const int64_t off = s.mention_row_offset[mi];
    int64_t best = 0;
    for (int64_t k = 1; k < count; ++k) {
      if (scores.at(off + k, 0) > scores.at(off + best, 0)) best = k;
    }
    cm.entity = m.candidates[static_cast<size_t>(best)];
    const float* row = fwd.ek.value().data() + (off + best) * config_.hidden;
    cm.embedding.assign(row, row + config_.hidden);
    out.push_back(std::move(cm));
  }
  return out;
}

/// StoreView computing each static row on demand from the live tables.
/// Predict gathers through it, so a Predict after any weight change (a
/// training step, CompressEntityEmbeddings, a checkpoint load) reads the
/// current values; PrepareFrozenInference materializes it into the frozen
/// table.
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
  void GatherRows(const int64_t* ids, int64_t n, float* dst) const override {
    const BootlegModel& m = *model_;
    const int64_t width = cols();
    for (int64_t i = 0; i < n; ++i) {
      const int64_t id = ids[i];
      const float* slot =
          m.config_.use_entity
              ? m.entity_emb_->table().data() + id * m.config_.entity_dim
              : nullptr;
      const int64_t title = m.config_.use_title_feature
                                ? m.title_token_ids_[static_cast<size_t>(id)]
                                : 0;
      m.ComputeFrozenRow(m.kb_->entity(id), slot, title, dst + i * width);
    }
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
  const auto put = [&dst](const Tensor& row) {
    dst = std::copy(row.data(), row.data() + row.numel(), dst);
  };
  if (config_.use_entity) {
    dst = std::copy(entity_slot, entity_slot + config_.entity_dim, dst);
  }
  if (config_.use_type) {
    put(PoolIds<Tensor>(entity.types, config_.max_types_per_entity, type_emb_,
                        *type_pool_));
  }
  if (config_.use_kg) {
    put(PoolIds<Tensor>(entity.relations, config_.max_relations_per_entity,
                        rel_emb_, *rel_pool_));
  }
  if (config_.use_title_feature) {
    put(ProjectTitles<Tensor>({title_token_id}, encoder_->token_embedding(),
                              *title_proj_));
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
  for (int64_t e = 0; e < n; ++e) {
    live.GatherRows(&e, 1, frozen_static_.data() + e * cols);
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
  ForwardOut<Tensor> fwd;
  if (!Forward<Tensor>(batch, &view, nullptr, /*train=*/false, scratch, &fwd)) {
    return {};
  }
  std::vector<std::vector<int64_t>> preds(batch.size());
  for (size_t b = 0; b < batch.size(); ++b) {
    preds[b].assign(batch[b]->mentions.size(), -1);
  }
  // Per-mention argmax: strict >, so the first of tied candidates wins.
  const InferenceScratch& s = *scratch;
  for (const InferenceScratch::SentenceInfo& info : s.sentences) {
    std::vector<int64_t>& out = preds[static_cast<size_t>(info.ex_index)];
    for (int64_t mi = 0; mi < info.mentions; ++mi) {
      const size_t g = static_cast<size_t>(info.mention_offset + mi);
      const int64_t count = s.mention_row_count[g];
      if (count == 0) continue;
      const int64_t off = s.mention_row_offset[g];
      int64_t best = 0;
      for (int64_t k = 1; k < count; ++k) {
        if (fwd.scores.at(off + k, 0) > fwd.scores.at(off + best, 0)) best = k;
      }
      out[static_cast<size_t>(mi)] = best;
    }
  }
  return preds;
}

std::vector<std::vector<float>> BootlegModel::ScoresForTest(
    const std::vector<const data::SentenceExample*>& batch,
    ScoreSource source) {
  std::vector<std::vector<float>> out(batch.size());
  InferenceScratch s;
  const auto collect = [&s, &out](const auto& scores, size_t first) {
    for (const InferenceScratch::SentenceInfo& info : s.sentences) {
      const float* row = tensor::ValueOf(scores).data() + info.row_offset;
      out[first + static_cast<size_t>(info.ex_index)].assign(row,
                                                             row + info.rows);
    }
  };
  if (source == ScoreSource::kPredictBatch) {
    BOOTLEG_CHECK(frozen_ready_);
    ForwardOut<Tensor> fwd;
    Forward<Tensor>(batch, frozen_view_.get(), nullptr, false, &s, &fwd);
    collect(fwd.scores, 0);
    return out;
  }
  const LiveRowView live(this);
  for (size_t i = 0; i < batch.size(); ++i) {
    if (source == ScoreSource::kPredict) {
      ForwardOut<Tensor> fwd;
      Forward<Tensor>({batch[i]}, &live, nullptr, false, &s, &fwd);
      collect(fwd.scores, i);
    } else {
      ForwardOut<Var> fwd;
      Forward<Var>({batch[i]}, nullptr, &rng_, false, &s, &fwd);
      collect(fwd.scores, i);
    }
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
