#include "text/word_encoder.h"

#include "obs/trace.h"

namespace bootleg::text {

using tensor::Tensor;
using tensor::Var;

WordEncoder::WordEncoder(nn::ParameterStore* store, const std::string& prefix,
                         int64_t vocab_size, const WordEncoderConfig& config,
                         util::Rng* rng)
    : prefix_(prefix),
      config_(config),
      token_embedding_(store->CreateEmbedding(prefix + ".tok", vocab_size,
                                              config.hidden, rng)),
      position_table_(nn::SinusoidalPositionTable(config.max_len, config.hidden)) {
  for (int64_t l = 0; l < config.num_layers; ++l) {
    layers_.emplace_back(store, prefix + ".layer" + std::to_string(l),
                         config.hidden, config.num_heads, config.ff_inner, rng);
  }
}

Var WordEncoder::Encode(const std::vector<int64_t>& token_ids, util::Rng* rng,
                        bool train) const {
  std::vector<int64_t> ids = token_ids;
  if (static_cast<int64_t>(ids.size()) > config_.max_len) {
    ids.resize(static_cast<size_t>(config_.max_len));
  }
  BOOTLEG_CHECK(!ids.empty());
  Var h = token_embedding_->Lookup(ids);
  // Add the (constant) sinusoidal position encodings.
  Tensor pos = tensor::SliceRows(position_table_, 0,
                                 static_cast<int64_t>(ids.size()));
  h = tensor::Add(h, Var::Constant(std::move(pos)));
  for (const nn::AttentionBlock& layer : layers_) {
    h = layer.Forward(h, rng, train);
  }
  return h;
}

Tensor WordEncoder::EncodeBatchValue(
    const std::vector<const std::vector<int64_t>*>& sequences,
    std::vector<std::pair<int64_t, int64_t>>* ranges) const {
  OBS_SPAN("text.encode_batch");
  std::vector<int64_t> all_ids;
  std::vector<nn::AttentionSegment> segments;
  ranges->clear();
  ranges->reserve(sequences.size());
  segments.reserve(sequences.size());
  for (const std::vector<int64_t>* seq : sequences) {
    BOOTLEG_CHECK(!seq->empty());
    const int64_t n = std::min<int64_t>(static_cast<int64_t>(seq->size()),
                                        config_.max_len);
    const int64_t off = static_cast<int64_t>(all_ids.size());
    all_ids.insert(all_ids.end(), seq->begin(), seq->begin() + n);
    ranges->emplace_back(off, n);
    segments.push_back({off, n, off, n});
  }

  Tensor h = token_embedding_->LookupValue(all_ids);
  // Per-sequence position add: row i of a sequence gets position_table_ row
  // i, the same elementwise sum Encode computes via tensor::Add.
  const int64_t hidden = config_.hidden;
  for (const auto& [off, n] : *ranges) {
    for (int64_t i = 0; i < n; ++i) {
      float* dst = h.data() + (off + i) * hidden;
      const float* pos = position_table_.data() + i * hidden;
      for (int64_t j = 0; j < hidden; ++j) dst[j] += pos[j];
    }
  }
  for (const nn::AttentionBlock& layer : layers_) {
    h = layer.ForwardSegmentsValue(h, h, segments);
  }
  return h;
}

Var WordEncoder::MentionEmbedding(const Var& w, int64_t span_start,
                                  int64_t span_end) {
  const int64_t n = w.value().size(0);
  BOOTLEG_CHECK(span_start >= 0 && span_start < n);
  BOOTLEG_CHECK(span_end >= span_start);
  const int64_t last = std::min(span_end, n - 1);
  Var first_tok = tensor::SliceRows(w, span_start, 1);
  Var last_tok = tensor::SliceRows(w, last, 1);
  return tensor::Add(first_tok, last_tok);
}

}  // namespace bootleg::text
