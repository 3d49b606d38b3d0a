#include "nn/param_store.h"

#include "util/io.h"
#include "util/string_util.h"

namespace bootleg::nn {

using tensor::Tensor;
using tensor::Var;

Var ParameterStore::CreateParam(const std::string& name, Tensor init) {
  BOOTLEG_CHECK_MSG(params_.find(name) == params_.end(),
                    "duplicate parameter name: " + name);
  Var v = Var::Leaf(std::move(init), /*requires_grad=*/true);
  params_.emplace(name, v);
  param_order_.push_back(name);
  return v;
}

Embedding* ParameterStore::CreateEmbedding(const std::string& name, int64_t rows,
                                           int64_t cols, util::Rng* rng,
                                           float stddev) {
  BOOTLEG_CHECK_MSG(embeddings_.find(name) == embeddings_.end(),
                    "duplicate embedding name: " + name);
  auto emb = std::make_unique<Embedding>(name, rows, cols, rng, stddev);
  Embedding* ptr = emb.get();
  embeddings_.emplace(name, std::move(emb));
  embedding_order_.push_back(name);
  return ptr;
}

void ParameterStore::Freeze(const std::string& prefix) {
  frozen_prefixes_.push_back(prefix);
}

bool ParameterStore::IsFrozen(const std::string& name) const {
  for (const std::string& p : frozen_prefixes_) {
    if (util::StartsWith(name, p)) return true;
  }
  return false;
}

Var ParameterStore::GetParam(const std::string& name) const {
  auto it = params_.find(name);
  BOOTLEG_CHECK_MSG(it != params_.end(), "no such parameter: " + name);
  return it->second;
}

Embedding* ParameterStore::GetEmbedding(const std::string& name) const {
  auto it = embeddings_.find(name);
  BOOTLEG_CHECK_MSG(it != embeddings_.end(), "no such embedding: " + name);
  return it->second.get();
}

void ParameterStore::ZeroGrad() {
  for (auto& [name, v] : params_) {
    Var copy = v;
    copy.ZeroGrad();
  }
  for (auto& [name, e] : embeddings_) e->ZeroGrad();
}

void ParameterStore::ReduceGradScopes(std::vector<tensor::GradScope>* scopes) {
  for (tensor::GradScope& scope : *scopes) scope.ReduceInto();
}

int64_t ParameterStore::DenseParamCount() const {
  int64_t n = 0;
  for (const auto& [name, v] : params_) n += v.value().numel();
  return n;
}

int64_t ParameterStore::EmbeddingParamCount() const {
  int64_t n = 0;
  for (const auto& [name, e] : embeddings_) n += e->table().numel();
  return n;
}

namespace {

// Snapshot format magic. v1 carries a version word, per-section CRC32s, and
// (at file level) a footer.
constexpr uint32_t kMagicV1 = 0xB0071E61;
constexpr uint32_t kFormatVersion = 1;

}  // namespace

void ParameterStore::SaveTo(util::BinaryWriter* w) const {
  w->WriteU32(kMagicV1);
  w->WriteU32(kFormatVersion);
  w->BeginSection();
  w->WriteU64(param_order_.size());
  for (const std::string& name : param_order_) {
    const Var& v = params_.at(name);
    w->WriteString(name);
    w->WriteI64Vector(v.value().shape().ToVector());
    w->WriteFloatVector(v.value().data(), v.value().numel());
  }
  w->EndSection();
  w->BeginSection();
  w->WriteU64(embedding_order_.size());
  for (const std::string& name : embedding_order_) {
    const Embedding* e = embeddings_.at(name).get();
    w->WriteString(name);
    w->WriteI64(e->rows());
    w->WriteI64(e->cols());
    w->WriteFloatVector(e->table().data(), e->table().numel());
  }
  w->EndSection();
}

util::Status ParameterStore::LoadFrom(util::BinaryReader* r) {
  if (r->ReadU32() != kMagicV1) {
    return util::Status::Corruption("bad checkpoint magic");
  }
  const uint32_t version = r->ReadU32();
  if (r->status().ok() && version != kFormatVersion) {
    return util::Status::Corruption("unsupported checkpoint version");
  }
  r->BeginSection();
  const uint64_t np = r->ReadU64();
  // Values are read straight into the live tensors, so a load never holds a
  // second copy of a table. Names and shapes are checked before the floats.
  for (uint64_t i = 0; i < np && r->status().ok(); ++i) {
    const std::string name = r->ReadString();
    const std::vector<int64_t> shape = r->ReadI64Vector();
    if (!r->status().ok()) break;
    auto it = params_.find(name);
    if (it == params_.end()) {
      return util::Status::Corruption("checkpoint has unknown parameter: " + name);
    }
    // Compared as plain dims: a declared shape is never built into a
    // tensor::Shape, whose rank is bounded.
    Tensor& value = it->second.mutable_value();
    if (shape != value.shape().ToVector()) {
      return util::Status::Corruption("shape mismatch for parameter: " + name);
    }
    if (!r->ReadFloatVectorInto(value.data(), value.numel()) &&
        r->status().ok()) {
      return util::Status::Corruption("inconsistent shape for parameter: " + name);
    }
  }
  r->EndSection();
  r->BeginSection();
  const uint64_t ne = r->ReadU64();
  for (uint64_t i = 0; i < ne && r->status().ok(); ++i) {
    const std::string name = r->ReadString();
    const int64_t rows = r->ReadI64();
    const int64_t cols = r->ReadI64();
    if (!r->status().ok()) break;
    auto it = embeddings_.find(name);
    if (it == embeddings_.end()) {
      return util::Status::Corruption("checkpoint has unknown embedding: " + name);
    }
    Embedding* e = it->second.get();
    if (rows != e->rows() || cols != e->cols()) {
      return util::Status::Corruption("shape mismatch for embedding: " + name);
    }
    // A released table (ReleaseTable) is reallocated at its full shape.
    if (e->table().numel() != rows * cols) e->table() = Tensor({rows, cols});
    if (!r->ReadFloatVectorInto(e->table().data(), e->table().numel()) &&
        r->status().ok()) {
      return util::Status::Corruption("shape mismatch for embedding: " + name);
    }
  }
  r->EndSection();
  return r->status();
}

util::Status ParameterStore::Save(const std::string& path) const {
  util::AtomicFileWriter atomic(path);
  util::BinaryWriter w(atomic.temp_path());
  SaveTo(&w);
  w.WriteFooter();
  BOOTLEG_RETURN_IF_ERROR(w.Finish());
  return atomic.Commit();
}

util::Status ParameterStore::Load(const std::string& path) {
  util::BinaryReader r(path);
  BOOTLEG_RETURN_IF_ERROR(r.status());
  util::Status st = LoadFrom(&r);
  if (st.ok()) {
    r.VerifyFooter();
    st = r.status();
  }
  if (!st.ok()) return util::Status::Corruption(st.message() + ": " + path);
  return util::Status::OK();
}

}  // namespace bootleg::nn
