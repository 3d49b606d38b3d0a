#include "nn/layers.h"

#include <cmath>

#include "nn/init.h"

namespace bootleg::nn {

using tensor::Tensor;
using tensor::Var;

Linear::Linear(ParameterStore* store, const std::string& prefix, int64_t in,
               int64_t out, util::Rng* rng)
    : in_(in),
      out_(out),
      weight_(store->CreateParam(prefix + ".weight", XavierUniform(in, out, rng))),
      bias_(store->CreateParam(prefix + ".bias", Tensor({out}))) {}

Var Linear::Forward(const Var& x) const {
  BOOTLEG_CHECK_EQ(x.value().size(1), in_);
  return tensor::AddRowBroadcast(tensor::MatMul(x, weight_), bias_);
}

Tensor Linear::ForwardValue(const Tensor& x) const {
  BOOTLEG_CHECK_EQ(x.size(1), in_);
  return tensor::AddRowBroadcast(tensor::MatMul(x, weight_.value()),
                                 bias_.value());
}

LayerNormLayer::LayerNormLayer(ParameterStore* store, const std::string& prefix,
                               int64_t dim)
    : gamma_(store->CreateParam(prefix + ".gamma", Tensor::Ones({dim}))),
      beta_(store->CreateParam(prefix + ".beta", Tensor({dim}))) {}

Var Dropout::Apply(const Var& x, util::Rng* rng, bool train) const {
  if (!train || p_ == 0.0f) return x;
  Tensor mask(x.value().shape());
  const float keep_scale = 1.0f / (1.0f - p_);
  // Raw threshold compare on the engine: one 64-bit draw per element, same
  // draw count as Rng::Bernoulli but without a distribution object and a
  // double conversion per element — this loop runs once per activation.
  const uint64_t threshold =
      static_cast<uint64_t>(static_cast<double>(p_) * 18446744073709551616.0);
  std::mt19937_64& engine = rng->engine();
  float* m = mask.data();
  for (int64_t i = 0; i < mask.numel(); ++i) {
    m[i] = engine() < threshold ? 0.0f : keep_scale;
  }
  return tensor::MulConst(x, mask);
}

FeedForward::FeedForward(ParameterStore* store, const std::string& prefix,
                         int64_t dim, int64_t inner_dim, util::Rng* rng)
    : fc1_(store, prefix + ".fc1", dim, inner_dim, rng),
      fc2_(store, prefix + ".fc2", inner_dim, dim, rng),
      dropout_(0.1f) {}

Var FeedForward::Forward(const Var& x, util::Rng* rng, bool train) const {
  Var h = tensor::Gelu(fc1_.Forward(x));
  h = dropout_.Apply(h, rng, train);
  return fc2_.Forward(h);
}

Tensor FeedForward::ForwardValue(const Tensor& x) const {
  return fc2_.ForwardValue(tensor::Gelu(fc1_.ForwardValue(x)));
}

Mlp::Mlp(ParameterStore* store, const std::string& prefix,
         const std::vector<int64_t>& dims, util::Rng* rng)
    : dropout_(0.1f) {
  BOOTLEG_CHECK_GE(dims.size(), 2u);
  for (size_t i = 0; i + 1 < dims.size(); ++i) {
    layers_.emplace_back(store, prefix + ".l" + std::to_string(i), dims[i],
                         dims[i + 1], rng);
  }
}

Var Mlp::Forward(const Var& x, util::Rng* rng, bool train) const {
  Var h = x;
  for (size_t i = 0; i < layers_.size(); ++i) {
    h = layers_[i].Forward(h);
    if (i + 1 < layers_.size()) {
      h = tensor::Relu(h);
      h = dropout_.Apply(h, rng, train);
    }
  }
  return h;
}

Tensor Mlp::ForwardValue(const Tensor& x) const {
  Tensor h = x;
  for (size_t i = 0; i < layers_.size(); ++i) {
    h = layers_[i].ForwardValue(h);
    if (i + 1 < layers_.size()) h = tensor::Relu(h);
  }
  return h;
}

Tensor SinusoidalPositionTable(int64_t max_len, int64_t dim) {
  Tensor table({max_len, dim});
  for (int64_t pos = 0; pos < max_len; ++pos) {
    for (int64_t i = 0; i < dim; ++i) {
      const double angle =
          static_cast<double>(pos) /
          std::pow(10000.0, 2.0 * static_cast<double>(i / 2) / static_cast<double>(dim));
      table.at(pos, i) =
          static_cast<float>((i % 2 == 0) ? std::sin(angle) : std::cos(angle));
    }
  }
  return table;
}

}  // namespace bootleg::nn
