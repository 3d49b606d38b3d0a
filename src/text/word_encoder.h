#ifndef BOOTLEG_TEXT_WORD_ENCODER_H_
#define BOOTLEG_TEXT_WORD_ENCODER_H_

#include <algorithm>
#include <string>
#include <utility>
#include <vector>

#include "nn/attention.h"
#include "nn/layers.h"
#include "nn/param_store.h"
#include "text/vocabulary.h"

namespace bootleg::text {

/// Configuration for the contextual word encoder.
struct WordEncoderConfig {
  int64_t hidden = 64;
  int64_t num_layers = 1;
  int64_t num_heads = 4;
  int64_t ff_inner = 128;
  int64_t max_len = 64;
};

/// Small trainable Transformer encoder standing in for BERT. The paper uses
/// a frozen pretrained BERT for Bootleg's word embeddings W and a fine-tuned
/// BERT for NED-Base; since no pretrained weights exist in this offline
/// reproduction, the encoder is trained jointly by default, and the owner
/// may freeze it via ParameterStore::Freeze(prefix) to reproduce the frozen
/// setting (the substitution is documented in DESIGN.md).
class WordEncoder {
 public:
  WordEncoder(nn::ParameterStore* store, const std::string& prefix,
              int64_t vocab_size, const WordEncoderConfig& config,
              util::Rng* rng);

  /// Encodes token-id sequences into contextual embeddings W [tokens,
  /// hidden], stacked row-wise in input order; `ranges[i]` receives
  /// {first_row, num_rows} of sequence i. Each sequence is truncated to
  /// max_len, and attention runs per sequence, so every sequence's rows are
  /// bit-identical to encoding it alone while the row-wise matmuls run over
  /// the whole stack. T = tensor::Var builds the tape (training draws
  /// dropout from `rng`); T = tensor::Tensor computes values only.
  template <typename T>
  T Encode(const std::vector<const std::vector<int64_t>*>& sequences,
           std::vector<std::pair<int64_t, int64_t>>* ranges, util::Rng* rng,
           bool train) const;

  /// One sequence on the tape: W of shape [min(tokens, max_len), hidden].
  tensor::Var Encode(const std::vector<int64_t>& token_ids, util::Rng* rng,
                     bool train) const;

  /// Contextualized mention embedding m: sum of the first and last token
  /// vectors of the mention span (paper Appendix A).
  template <typename T>
  static T MentionEmbedding(const T& w, int64_t span_start, int64_t span_end) {
    const int64_t n = tensor::ValueOf(w).size(0);
    BOOTLEG_CHECK(span_start >= 0 && span_start < n);
    BOOTLEG_CHECK(span_end >= span_start);
    const int64_t last = std::min(span_end, n - 1);
    return tensor::Add(tensor::SliceRows(w, span_start, 1),
                       tensor::SliceRows(w, last, 1));
  }

  const WordEncoderConfig& config() const { return config_; }
  const std::string& prefix() const { return prefix_; }

  /// The token-embedding table (used by the title entity feature).
  nn::Embedding* token_embedding() const { return token_embedding_; }

 private:
  std::string prefix_;
  WordEncoderConfig config_;
  nn::Embedding* token_embedding_;
  tensor::Tensor position_table_;  // constant sinusoidal table
  std::vector<nn::AttentionBlock> layers_;
};

}  // namespace bootleg::text

#endif  // BOOTLEG_TEXT_WORD_ENCODER_H_
