#ifndef BOOTLEG_NN_EMBEDDING_H_
#define BOOTLEG_NN_EMBEDDING_H_

#include <string>
#include <unordered_map>
#include <vector>

#include "tensor/autograd.h"
#include "util/rng.h"

namespace bootleg::nn {

/// Embedding table with sparse gradient accumulation. Lookups build autograd
/// ops whose backward scatters row gradients into `sparse_grads()` instead of
/// materializing a dense table gradient — essential for the (entity-count ×
/// dim) tables the paper trains (1.36B of its 1.37B parameters live in
/// embeddings; ours are smaller but the asymmetry is the same).
///
/// The Embedding must outlive every tape node produced by Lookup().
class Embedding {
 public:
  Embedding(std::string name, int64_t rows, int64_t cols, util::Rng* rng,
            float stddev = 0.02f);

  /// Row gather; ids index the table. The Var form is differentiable (its
  /// backward scatters into sparse_grads()); the Tensor form copies values.
  template <typename T = tensor::Var>
  T Lookup(const std::vector<int64_t>& ids);

  /// Re-initializes every row to the same vector. The paper initializes all
  /// entity embeddings identically so unseen entities do not differ by
  /// initialization noise (Appendix B).
  void InitConstantRows(const tensor::Tensor& row);

  const std::string& name() const { return name_; }
  int64_t rows() const { return table_.size(0); }
  int64_t cols() const { return table_.size(1); }
  tensor::Tensor& table() { return table_; }
  const tensor::Tensor& table() const { return table_; }

  /// Frees the table storage, keeping the column count but zero rows. Used
  /// by serving when rows are read from a memory-mapped store instead — the
  /// table would otherwise duplicate the store's resident bytes. Lookup
  /// after release is undefined; training paths must never call this.
  void ReleaseTable() { table_ = tensor::Tensor({0, table_.size(1)}); }

  /// Row-id → accumulated gradient row, cleared by ZeroGrad().
  std::unordered_map<int64_t, std::vector<float>>& sparse_grads() {
    return sparse_grads_;
  }

  void ZeroGrad() { sparse_grads_.clear(); }

 private:
  std::string name_;
  tensor::Tensor table_;
  std::unordered_map<int64_t, std::vector<float>> sparse_grads_;
};

template <>
tensor::Var Embedding::Lookup<tensor::Var>(const std::vector<int64_t>& ids);

template <>
inline tensor::Tensor Embedding::Lookup<tensor::Tensor>(
    const std::vector<int64_t>& ids) {
  return tensor::GatherRows(table_, ids);
}

}  // namespace bootleg::nn

#endif  // BOOTLEG_NN_EMBEDDING_H_
