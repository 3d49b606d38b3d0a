#ifndef BOOTLEG_NN_PARAM_STORE_H_
#define BOOTLEG_NN_PARAM_STORE_H_

#include <memory>
#include <string>
#include <unordered_map>
#include <vector>

#include "nn/embedding.h"
#include "tensor/autograd.h"
#include "util/rng.h"
#include "util/status.h"

namespace bootleg::util {
class BinaryReader;
class BinaryWriter;
}  // namespace bootleg::util

namespace bootleg::nn {

/// Owns every learnable parameter of a model: dense parameters (weights,
/// biases, gains, the KG2Ent scalar w, the scoring vector v) as autograd
/// leaves, and embedding tables with sparse gradients. Layers register their
/// parameters here at construction; the optimizer and checkpointing code
/// iterate the store.
class ParameterStore {
 public:
  ParameterStore() = default;
  ParameterStore(const ParameterStore&) = delete;
  ParameterStore& operator=(const ParameterStore&) = delete;

  /// Registers a dense parameter initialized to `init`. Names must be unique.
  tensor::Var CreateParam(const std::string& name, tensor::Tensor init);

  /// Registers an embedding table. Names must be unique.
  Embedding* CreateEmbedding(const std::string& name, int64_t rows, int64_t cols,
                             util::Rng* rng, float stddev = 0.02f);

  /// Marks a dense parameter as frozen: the optimizer skips it. Used for the
  /// "freeze the BERT encoder stack" setting of the paper.
  void Freeze(const std::string& prefix);
  bool IsFrozen(const std::string& name) const;

  tensor::Var GetParam(const std::string& name) const;
  Embedding* GetEmbedding(const std::string& name) const;
  bool HasParam(const std::string& name) const { return params_.count(name) > 0; }

  const std::vector<std::string>& param_names() const { return param_order_; }
  const std::vector<std::string>& embedding_names() const { return embedding_order_; }

  void ZeroGrad();

  /// Reduces per-worker gradient scopes into the shared gradient storage
  /// (dense leaf .grad tensors and embedding sparse-grad maps) in scope index
  /// order. Index order equals worker order in the data-parallel trainer, so
  /// the accumulated gradients are independent of thread scheduling. Call
  /// after the workers filling the scopes have joined and before Adam::Step.
  static void ReduceGradScopes(std::vector<tensor::GradScope>* scopes);

  /// Parameter accounting used by the Table 10 model-size bench.
  int64_t DenseParamCount() const;
  int64_t EmbeddingParamCount() const;

  /// Checkpointing: saves/loads every parameter value by name.
  ///
  /// Save writes the v1 snapshot format (versioned header, per-section CRC32
  /// checksums, end-of-file footer) through an atomic temp-file + rename, so
  /// `path` always holds either the previous or the new complete snapshot.
  /// Load verifies checksums and rejects truncation, bit flips, and trailing
  /// garbage with Status::Corruption — never a crash or oversized allocation
  /// — including a file in the retired unchecksummed v0 layout. On a non-OK
  /// Load the store's values are unspecified; reload or reinitialize before
  /// use.
  util::Status Save(const std::string& path) const;
  util::Status Load(const std::string& path);

  /// Streaming variants used to embed the store in a larger snapshot (the
  /// training checkpoint): same format, minus the file-level footer.
  void SaveTo(util::BinaryWriter* w) const;
  util::Status LoadFrom(util::BinaryReader* r);

 private:
  std::unordered_map<std::string, tensor::Var> params_;
  std::vector<std::string> param_order_;
  std::unordered_map<std::string, std::unique_ptr<Embedding>> embeddings_;
  std::vector<std::string> embedding_order_;
  std::vector<std::string> frozen_prefixes_;
};

}  // namespace bootleg::nn

#endif  // BOOTLEG_NN_PARAM_STORE_H_
