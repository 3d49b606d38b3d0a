#ifndef BOOTLEG_NN_LAYERS_H_
#define BOOTLEG_NN_LAYERS_H_

#include <string>
#include <vector>

#include "nn/param_store.h"
#include "tensor/autograd.h"
#include "util/rng.h"

namespace bootleg::nn {

// Each layer writes its forward once, as a template over T = tensor::Var
// (the tape Loss trains through) or T = tensor::Tensor (values only, for
// inference). Both run the same kernels in the same order, so a value
// forward's output is bit-identical to the tape forward's value. Only the Var
// form trains: dropout is the identity on Tensors.

/// Fully-connected layer y = xW + b over 2-D inputs [n, in].
class Linear {
 public:
  Linear(ParameterStore* store, const std::string& prefix, int64_t in,
         int64_t out, util::Rng* rng);

  template <typename T>
  T Forward(const T& x) const {
    BOOTLEG_CHECK_EQ(tensor::ValueOf(x).size(1), in_);
    return tensor::AddRowBroadcast(
        tensor::MatMul(x, tensor::ParamAs<T>(weight_)),
        tensor::ParamAs<T>(bias_));
  }

  int64_t in_dim() const { return in_; }
  int64_t out_dim() const { return out_; }

 private:
  int64_t in_;
  int64_t out_;
  tensor::Var weight_;  // [in, out]
  tensor::Var bias_;    // [out]
};

/// Row-wise layer normalization with learned gain and bias.
class LayerNormLayer {
 public:
  LayerNormLayer(ParameterStore* store, const std::string& prefix, int64_t dim);

  template <typename T>
  T Forward(const T& x) const {
    return tensor::LayerNorm(x, tensor::ParamAs<T>(gamma_),
                             tensor::ParamAs<T>(beta_));
  }

 private:
  tensor::Var gamma_;
  tensor::Var beta_;
};

/// Inverted dropout: scales surviving activations by 1/(1-p) at train time,
/// identity at eval time.
class Dropout {
 public:
  explicit Dropout(float p) : p_(p) { BOOTLEG_CHECK(p >= 0.0f && p < 1.0f); }

  tensor::Var Apply(const tensor::Var& x, util::Rng* rng, bool train) const;

  /// The value forward never trains, so this is the identity.
  tensor::Tensor Apply(tensor::Tensor x, util::Rng* /*rng*/, bool train) const {
    BOOTLEG_CHECK(!train);
    return x;
  }

  float p() const { return p_; }

 private:
  float p_;
};

/// Position-wise feed-forward block: Linear → GELU → Linear.
class FeedForward {
 public:
  FeedForward(ParameterStore* store, const std::string& prefix, int64_t dim,
              int64_t inner_dim, util::Rng* rng);

  template <typename T>
  T Forward(const T& x, util::Rng* rng, bool train) const {
    T h = dropout_.Apply(tensor::Gelu(fc1_.Forward(x)), rng, train);
    return fc2_.Forward(h);
  }

 private:
  Linear fc1_;
  Linear fc2_;
  Dropout dropout_;
};

/// Multi-layer perceptron with ReLU activations between layers. Used to fuse
/// [u_e, t_e, r_e] into the candidate representation (paper Sec. 3.1) and for
/// the mention type-prediction head (Appendix A).
class Mlp {
 public:
  Mlp(ParameterStore* store, const std::string& prefix,
      const std::vector<int64_t>& dims, util::Rng* rng);

  template <typename T>
  T Forward(const T& x, util::Rng* rng, bool train) const {
    T h = layers_[0].Forward(x);
    for (size_t i = 1; i < layers_.size(); ++i) {
      h = dropout_.Apply(tensor::Relu(h), rng, train);
      h = layers_[i].Forward(h);
    }
    return h;
  }

 private:
  std::vector<Linear> layers_;
  Dropout dropout_;
};

/// Returns the sinusoidal positional-encoding table [max_len, dim] of
/// Vaswani et al., used for both word positions and the mention position
/// feature added to candidate representations (Appendix A).
tensor::Tensor SinusoidalPositionTable(int64_t max_len, int64_t dim);

}  // namespace bootleg::nn

#endif  // BOOTLEG_NN_LAYERS_H_
