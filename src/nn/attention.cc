#include "nn/attention.h"

#include <cmath>
#include <type_traits>

#include "nn/init.h"
#include "obs/trace.h"

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

namespace {

/// Rows [r0, r0 + rows) and columns [c0, c0 + cols) of a 2-D operand. The
/// Var form slices columns only when the block spans every row, so a single
/// segment adds no node to plain attention's tape; the Tensor form copies
/// the block once.
Var Block(const Var& a, int64_t r0, int64_t rows, int64_t c0, int64_t cols) {
  if (r0 == 0 && rows == a.value().size(0)) return tensor::SliceCols(a, c0, cols);
  return tensor::SliceCols(tensor::SliceRows(a, r0, rows), c0, cols);
}

Tensor Block(const Tensor& a, int64_t r0, int64_t rows, int64_t c0,
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

template <typename T>
T MultiHeadAttention::Attend(
    const T& queries, const T& keys,
    const std::vector<AttentionSegment>& segments) const {
  BOOTLEG_CHECK_EQ(tensor::ValueOf(queries).size(1), hidden_);
  BOOTLEG_CHECK_EQ(tensor::ValueOf(keys).size(1), hidden_);
  const T q = wq_.Forward(queries);
  const T k = wk_.Forward(keys);
  const T v = wv_.Forward(keys);
  const float inv_sqrt = 1.0f / std::sqrt(static_cast<float>(head_dim_));

  std::vector<T> outputs;  // per segment: its heads side by side
  outputs.reserve(segments.size());
  int64_t next_row = 0;
  for (const AttentionSegment& seg : segments) {
    BOOTLEG_CHECK_EQ(seg.q_offset, next_row);
    next_row += seg.q_rows;
    std::vector<T> heads;
    heads.reserve(static_cast<size_t>(num_heads_));
    for (int64_t h = 0; h < num_heads_; ++h) {
      const int64_t off = h * head_dim_;
      const T qh = Block(q, seg.q_offset, seg.q_rows, off, head_dim_);
      const T kh = Block(k, seg.k_offset, seg.k_rows, off, head_dim_);
      const T vh = Block(v, seg.k_offset, seg.k_rows, off, head_dim_);
      const T attn = tensor::SoftmaxRows(
          tensor::Scale(tensor::MatMulTransposedB(qh, kh), inv_sqrt));
      heads.push_back(tensor::MatMul(attn, vh));
    }
    outputs.push_back(tensor::ConcatCols(heads));
  }
  BOOTLEG_CHECK_EQ(next_row, tensor::ValueOf(queries).size(0));
  if (outputs.size() > 1) outputs[0] = tensor::ConcatRows(outputs);
  return wo_.Forward(outputs[0]);
}

template Var MultiHeadAttention::Attend(
    const Var&, const Var&, const std::vector<AttentionSegment>&) const;
template Tensor MultiHeadAttention::Attend(
    const Tensor&, const Tensor&, const std::vector<AttentionSegment>&) const;

AttentionBlock::AttentionBlock(ParameterStore* store, const std::string& prefix,
                               int64_t hidden, int64_t num_heads,
                               int64_t ff_inner, util::Rng* rng)
    : mha_(store, prefix + ".mha", hidden, num_heads, rng),
      ln1_(store, prefix + ".ln1", hidden),
      ff_(store, prefix + ".ff", hidden, ff_inner, rng),
      ln2_(store, prefix + ".ln2", hidden),
      dropout_(0.1f) {}

template <typename T>
T AttentionBlock::Forward(const T& queries, const T& keys,
                          const std::vector<AttentionSegment>& segments,
                          util::Rng* rng, bool train) const {
  OBS_SPAN_IF((std::is_same_v<T, Tensor>), "nn.attention.segments");
  const T attended =
      dropout_.Apply(mha_.Attend(queries, keys, segments), rng, train);
  const T h = ln1_.Forward(tensor::Add(queries, attended));
  const T ff_out = dropout_.Apply(ff_.Forward(h, rng, train), rng, train);
  return ln2_.Forward(tensor::Add(h, ff_out));
}

template Var AttentionBlock::Forward(const Var&, const Var&,
                                     const std::vector<AttentionSegment>&,
                                     util::Rng*, bool) const;
template Tensor AttentionBlock::Forward(const Tensor&, const Tensor&,
                                        const std::vector<AttentionSegment>&,
                                        util::Rng*, bool) const;

AdditiveAttention::AdditiveAttention(ParameterStore* store,
                                     const std::string& prefix, int64_t dim,
                                     int64_t attn_dim, util::Rng* rng)
    : proj_(store, prefix + ".proj", dim, attn_dim, rng),
      score_vec_(store->CreateParam(prefix + ".score_vec",
                                    XavierUniform(attn_dim, 1, rng))) {}

}  // namespace bootleg::nn
