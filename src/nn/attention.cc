#include "nn/attention.h"

#include "obs/trace.h"

#include <cmath>

#include "nn/init.h"

namespace bootleg::nn {

using tensor::Tensor;
using tensor::Var;

MultiHeadAttention::MultiHeadAttention(ParameterStore* store,
                                       const std::string& prefix, int64_t hidden,
                                       int64_t num_heads, util::Rng* rng)
    : hidden_(hidden),
      num_heads_(num_heads),
      head_dim_(hidden / num_heads),
      wq_(store, prefix + ".wq", hidden, hidden, rng),
      wk_(store, prefix + ".wk", hidden, hidden, rng),
      wv_(store, prefix + ".wv", hidden, hidden, rng),
      wo_(store, prefix + ".wo", hidden, hidden, rng) {
  BOOTLEG_CHECK_MSG(hidden % num_heads == 0,
                    "hidden dim must be divisible by head count");
}

Var MultiHeadAttention::Attend(const Var& queries, const Var& keys) const {
  BOOTLEG_CHECK_EQ(queries.value().size(1), hidden_);
  BOOTLEG_CHECK_EQ(keys.value().size(1), hidden_);
  const Var q = wq_.Forward(queries);
  const Var k = wk_.Forward(keys);
  const Var v = wv_.Forward(keys);
  const float inv_sqrt = 1.0f / std::sqrt(static_cast<float>(head_dim_));

  std::vector<Var> heads;
  heads.reserve(static_cast<size_t>(num_heads_));
  for (int64_t h = 0; h < num_heads_; ++h) {
    const int64_t off = h * head_dim_;
    Var qh = tensor::SliceCols(q, off, head_dim_);
    Var kh = tensor::SliceCols(k, off, head_dim_);
    Var vh = tensor::SliceCols(v, off, head_dim_);
    Var scores = tensor::Scale(tensor::MatMulTransposedB(qh, kh), inv_sqrt);
    Var attn = tensor::SoftmaxRows(scores);
    heads.push_back(tensor::MatMul(attn, vh));
  }
  return wo_.Forward(tensor::ConcatCols(heads));
}

namespace {

/// Copies a [rows, cols] block out of a 2-D tensor — the value of
/// SliceCols(SliceRows(a, r0, rows), c0, cols) without the intermediate.
Tensor SliceBlock(const Tensor& a, int64_t r0, int64_t rows, int64_t c0,
                  int64_t cols) {
  Tensor out({rows, cols});
  const int64_t stride = a.size(1);
  const float* src = a.data() + r0 * stride + c0;
  float* dst = out.data();
  for (int64_t i = 0; i < rows; ++i) {
    for (int64_t j = 0; j < cols; ++j) dst[i * cols + j] = src[i * stride + j];
  }
  return out;
}

}  // namespace

Tensor MultiHeadAttention::AttendSegmentsValue(
    const Tensor& queries, const Tensor& keys,
    const std::vector<AttentionSegment>& segments) const {
  BOOTLEG_CHECK_EQ(queries.size(1), hidden_);
  BOOTLEG_CHECK_EQ(keys.size(1), hidden_);
  const Tensor q = wq_.ForwardValue(queries);
  const Tensor k = wk_.ForwardValue(keys);
  const Tensor v = wv_.ForwardValue(keys);
  const float inv_sqrt = 1.0f / std::sqrt(static_cast<float>(head_dim_));

  Tensor concat({queries.size(0), hidden_});
  for (const AttentionSegment& seg : segments) {
    for (int64_t h = 0; h < num_heads_; ++h) {
      const int64_t off = h * head_dim_;
      Tensor qh = SliceBlock(q, seg.q_offset, seg.q_rows, off, head_dim_);
      Tensor kh = SliceBlock(k, seg.k_offset, seg.k_rows, off, head_dim_);
      Tensor vh = SliceBlock(v, seg.k_offset, seg.k_rows, off, head_dim_);
      Tensor attn = tensor::SoftmaxRows(
          tensor::Scale(tensor::MatMulTransposedB(qh, kh), inv_sqrt));
      Tensor head = tensor::MatMul(attn, vh);
      // Write the head's rows into its column block of the concat output.
      for (int64_t i = 0; i < seg.q_rows; ++i) {
        const float* src = head.data() + i * head_dim_;
        float* dst = concat.data() + (seg.q_offset + i) * hidden_ + off;
        for (int64_t j = 0; j < head_dim_; ++j) dst[j] = src[j];
      }
    }
  }
  return wo_.ForwardValue(concat);
}

AttentionBlock::AttentionBlock(ParameterStore* store, const std::string& prefix,
                               int64_t hidden, int64_t num_heads,
                               int64_t ff_inner, util::Rng* rng)
    : mha_(store, prefix + ".mha", hidden, num_heads, rng),
      ln1_(store, prefix + ".ln1", hidden),
      ff_(store, prefix + ".ff", hidden, ff_inner, rng),
      ln2_(store, prefix + ".ln2", hidden),
      dropout_(0.1f) {}

Var AttentionBlock::Forward(const Var& queries, const Var& keys, util::Rng* rng,
                            bool train) const {
  Var attended = dropout_.Apply(mha_.Attend(queries, keys), rng, train);
  Var h = ln1_.Forward(tensor::Add(queries, attended));
  Var ff_out = dropout_.Apply(ff_.Forward(h, rng, train), rng, train);
  return ln2_.Forward(tensor::Add(h, ff_out));
}

Tensor AttentionBlock::ForwardSegmentsValue(
    const Tensor& queries, const Tensor& keys,
    const std::vector<AttentionSegment>& segments) const {
  OBS_SPAN("nn.attention.segments");
  Tensor attended = mha_.AttendSegmentsValue(queries, keys, segments);
  Tensor h = ln1_.ForwardValue(tensor::Add(queries, attended));
  Tensor ff_out = ff_.ForwardValue(h);
  return ln2_.ForwardValue(tensor::Add(h, ff_out));
}

AdditiveAttention::AdditiveAttention(ParameterStore* store,
                                     const std::string& prefix, int64_t dim,
                                     int64_t attn_dim, util::Rng* rng)
    : proj_(store, prefix + ".proj", dim, attn_dim, rng),
      score_vec_(store->CreateParam(prefix + ".score_vec",
                                    XavierUniform(attn_dim, 1, rng))) {}

Var AdditiveAttention::Pool(const Var& items) const {
  BOOTLEG_CHECK_EQ(items.value().dim(), 2);
  // scores_i = vᵀ tanh(W x_i + b); weights = softmax(scores); out = Σ w_i x_i.
  Var hidden = tensor::TanhV(proj_.Forward(items));
  Var scores = tensor::MatMul(hidden, score_vec_);           // [t, 1]
  Var weights = tensor::SoftmaxRows(tensor::Transpose(scores));  // [1, t]
  return tensor::MatMul(weights, items);                     // [1, dim]
}

Tensor AdditiveAttention::PoolValue(const Tensor& items) const {
  BOOTLEG_CHECK_EQ(items.dim(), 2);
  Tensor hidden = tensor::TanhT(proj_.ForwardValue(items));
  Tensor scores = tensor::MatMul(hidden, score_vec_.value());
  Tensor weights = tensor::SoftmaxRows(tensor::Transpose(scores));
  return tensor::MatMul(weights, items);
}

}  // namespace bootleg::nn
