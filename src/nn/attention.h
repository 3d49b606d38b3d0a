#ifndef BOOTLEG_NN_ATTENTION_H_
#define BOOTLEG_NN_ATTENTION_H_

#include <string>
#include <vector>

#include "nn/layers.h"
#include "nn/param_store.h"
#include "tensor/autograd.h"
#include "util/rng.h"

namespace bootleg::nn {

/// One independent attention group inside batched query/key tensors: query
/// rows [q_offset, q_offset + q_rows) attend only over key rows [k_offset,
/// k_offset + k_rows). The model and the word encoder stack several
/// sentences into one tensor and describe each sentence with one segment,
/// so the projection matmuls run batched while the attention cores stay
/// per-sentence.
struct AttentionSegment {
  int64_t q_offset = 0;
  int64_t q_rows = 0;
  int64_t k_offset = 0;
  int64_t k_rows = 0;
};

/// Standard multi-head attention (Vaswani et al.). Queries attend over
/// keys/values; pass the same tensor for self-attention. Shapes are 2-D:
/// queries [r, hidden], keys [s, hidden] → output [r, hidden]. Written once
/// over T = tensor::Var or tensor::Tensor (see nn/layers.h).
class MultiHeadAttention {
 public:
  MultiHeadAttention(ParameterStore* store, const std::string& prefix,
                     int64_t hidden, int64_t num_heads, util::Rng* rng);

  /// Attention over independent segments, which must tile the query rows in
  /// order; one segment {0, r, 0, s} is plain attention. Every segment's
  /// output rows are bit-identical to attending over that segment's rows
  /// alone: the q/k/v/o projections are row-wise (batching cannot change
  /// them) and the score/softmax/value cores run per segment on the same
  /// kernels. A segment spanning every row slices nothing, so on one
  /// segment the Var form builds plain attention's tape.
  template <typename T>
  T Attend(const T& queries, const T& keys,
           const std::vector<AttentionSegment>& segments) const;

  int64_t num_heads() const { return num_heads_; }

 private:
  int64_t hidden_;
  int64_t num_heads_;
  int64_t head_dim_;
  Linear wq_;
  Linear wk_;
  Linear wv_;
  Linear wo_;
};

/// Transformer-style attention block: MHA with skip connection and layer
/// norm, followed by a feed-forward sublayer with skip connection and layer
/// norm. This is the "MHA ... with a feed-forward layer and skip
/// connections" building block of Bootleg's Phrase2Ent and Ent2Ent modules.
class AttentionBlock {
 public:
  AttentionBlock(ParameterStore* store, const std::string& prefix,
                 int64_t hidden, int64_t num_heads, int64_t ff_inner,
                 util::Rng* rng);

  /// Queries attend over keys per segment (see MultiHeadAttention::Attend):
  /// cross-attention for Phrase2Ent, self-attention (keys == queries) for
  /// Ent2Ent and the word encoder.
  template <typename T>
  T Forward(const T& queries, const T& keys,
            const std::vector<AttentionSegment>& segments, util::Rng* rng,
            bool train) const;

 private:
  MultiHeadAttention mha_;
  LayerNormLayer ln1_;
  FeedForward ff_;
  LayerNormLayer ln2_;
  Dropout dropout_;
};

/// Additive (Bahdanau) attention pooling a set of vectors [t, dim] into one
/// [1, dim]. Bootleg uses it to merge an entity's multiple type embeddings
/// and multiple relation embeddings (Sec. 3.1).
class AdditiveAttention {
 public:
  AdditiveAttention(ParameterStore* store, const std::string& prefix,
                    int64_t dim, int64_t attn_dim, util::Rng* rng);

  template <typename T>
  T Pool(const T& items) const {
    BOOTLEG_CHECK_EQ(tensor::ValueOf(items).dim(), 2);
    // scores_i = vᵀ tanh(W x_i + b); weights = softmax(scores); out = Σ w_i x_i.
    T hidden = tensor::Tanh(proj_.Forward(items));
    T scores = tensor::MatMul(hidden, tensor::ParamAs<T>(score_vec_));  // [t, 1]
    T weights = tensor::SoftmaxRows(tensor::Transpose(scores));  // [1, t]
    return tensor::MatMul(weights, items);                       // [1, dim]
  }

 private:
  Linear proj_;
  tensor::Var score_vec_;  // [attn_dim, 1]
};

}  // namespace bootleg::nn

#endif  // BOOTLEG_NN_ATTENTION_H_
