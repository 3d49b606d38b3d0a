#ifndef BOOTLEG_TEXT_WORD_ENCODER_H_
#define BOOTLEG_TEXT_WORD_ENCODER_H_

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

  /// Encodes a token-id sequence into contextual embeddings W of shape
  /// [num_tokens, hidden]. Sequences longer than max_len are truncated.
  tensor::Var Encode(const std::vector<int64_t>& token_ids, util::Rng* rng,
                     bool train) const;

  /// Forward-only batched encoding for inference. Each sequence is truncated
  /// to max_len exactly as Encode does, all sequences are stacked row-wise in
  /// input order, and the attention layers run with per-sequence segments —
  /// so every sequence's output rows are bit-identical to
  /// Encode(seq, rng, /*train=*/false) on that sequence alone, with the
  /// projection matmuls batched across the whole stack and no tape built.
  /// `ranges[i]` receives {first_row, num_rows} of sequence i.
  tensor::Tensor EncodeBatchValue(
      const std::vector<const std::vector<int64_t>*>& sequences,
      std::vector<std::pair<int64_t, int64_t>>* ranges) const;

  /// Contextualized mention embedding m: sum of the first and last token
  /// vectors of the mention span (paper Appendix A).
  static tensor::Var MentionEmbedding(const tensor::Var& w, int64_t span_start,
                                      int64_t span_end);

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
