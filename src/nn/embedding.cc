#include "nn/embedding.h"

#include "nn/init.h"

namespace bootleg::nn {

using tensor::Tensor;
using tensor::Var;

Embedding::Embedding(std::string name, int64_t rows, int64_t cols,
                     util::Rng* rng, float stddev)
    : name_(std::move(name)), table_(EmbeddingInit(rows, cols, rng, stddev)) {}

template <>
Var Embedding::Lookup<Var>(const std::vector<int64_t>& ids) {
  Tensor out = tensor::GatherRows(table_, ids);
  const int64_t cols = table_.size(1);
  auto node = std::make_shared<tensor::internal_autograd::Node>();
  node->value = std::move(out);
  node->requires_grad = true;
  // Leaf-like op: no tape inputs, backward scatters into this table's sparse
  // gradient map — or, under an active GradScope, into that worker's private
  // buffer keyed by the map. `this` must outlive the tape (documented in the
  // header).
  node->backward = [this, ids, cols](tensor::internal_autograd::Node& n) {
    tensor::SparseRowGrads* sink = &sparse_grads_;
    if (tensor::GradScope* scope = tensor::GradScope::Current()) {
      sink = scope->SparseGrad(sink);
    }
    for (size_t i = 0; i < ids.size(); ++i) {
      auto [it, inserted] =
          sink->try_emplace(ids[i], static_cast<size_t>(cols), 0.0f);
      float* dst = it->second.data();
      const float* src = n.grad.data() + static_cast<int64_t>(i) * cols;
      for (int64_t j = 0; j < cols; ++j) dst[j] += src[j];
    }
  };
  return Var::FromNode(std::move(node));
}

void Embedding::InitConstantRows(const Tensor& row) {
  BOOTLEG_CHECK_EQ(row.numel(), cols());
  for (int64_t r = 0; r < rows(); ++r) {
    float* dst = table_.data() + r * cols();
    for (int64_t j = 0; j < cols(); ++j) dst[j] = row.at(j);
  }
}

}  // namespace bootleg::nn
