#include "text/word_encoder.h"

#include <type_traits>

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

template <typename T>
T WordEncoder::Encode(const std::vector<const std::vector<int64_t>*>& sequences,
                      std::vector<std::pair<int64_t, int64_t>>* ranges,
                      util::Rng* rng, bool train) const {
  OBS_SPAN_IF((std::is_same_v<T, Tensor>), "text.encode_batch");
  std::vector<int64_t> ids;
  std::vector<nn::AttentionSegment> segments;
  ranges->clear();
  ranges->reserve(sequences.size());
  segments.reserve(sequences.size());
  for (const std::vector<int64_t>* seq : sequences) {
    BOOTLEG_CHECK(!seq->empty());
    const int64_t n = std::min<int64_t>(static_cast<int64_t>(seq->size()),
                                        config_.max_len);
    const int64_t off = static_cast<int64_t>(ids.size());
    ids.insert(ids.end(), seq->begin(), seq->begin() + n);
    ranges->emplace_back(off, n);
    segments.push_back({off, n, off, n});
  }

  // Each sequence's row i adds the (constant) sinusoidal position i.
  const int64_t hidden = config_.hidden;
  Tensor pos({static_cast<int64_t>(ids.size()), hidden});
  for (const auto& [off, n] : *ranges) {
    std::copy(position_table_.data(), position_table_.data() + n * hidden,
              pos.data() + off * hidden);
  }
  T h = tensor::Add(token_embedding_->Lookup<T>(ids),
                    tensor::ConstantAs<T>(std::move(pos)));
  for (const nn::AttentionBlock& layer : layers_) {
    h = layer.Forward(h, h, segments, rng, train);
  }
  return h;
}

template Var WordEncoder::Encode(
    const std::vector<const std::vector<int64_t>*>&,
    std::vector<std::pair<int64_t, int64_t>>*, util::Rng*, bool) const;
template Tensor WordEncoder::Encode(
    const std::vector<const std::vector<int64_t>*>&,
    std::vector<std::pair<int64_t, int64_t>>*, util::Rng*, bool) const;

Var WordEncoder::Encode(const std::vector<int64_t>& token_ids, util::Rng* rng,
                        bool train) const {
  std::vector<std::pair<int64_t, int64_t>> ranges;
  return Encode<Var>({&token_ids}, &ranges, rng, train);
}

}  // namespace bootleg::text
