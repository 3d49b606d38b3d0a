#include "nn/optimizer.h"

#include <cmath>

#include "obs/trace.h"
#include "util/thread_pool.h"

namespace bootleg::nn {

using tensor::Tensor;
using tensor::Var;

Adam::Adam(ParameterStore* store, Options options)
    : store_(store), options_(options) {
  for (const std::string& name : store->param_names()) {
    if (store->IsFrozen(name)) continue;
    Var p = store->GetParam(name);
    dense_.push_back(
        {name, p, Tensor(p.value().shape()), Tensor(p.value().shape())});
  }
  for (const std::string& name : store->embedding_names()) {
    if (store->IsFrozen(name)) continue;
    Embedding* e = store->GetEmbedding(name);
    sparse_.push_back({name, e, Tensor({e->rows(), e->cols()}),
                       Tensor({e->rows(), e->cols()})});
  }
}

namespace {
constexpr uint32_t kAdamStateMagic = 0xB007ADA1;
constexpr uint32_t kAdamStateVersion = 1;
}  // namespace

void Adam::SaveState(util::BinaryWriter* w) const {
  w->WriteU32(kAdamStateMagic);
  w->WriteU32(kAdamStateVersion);
  w->BeginSection();
  w->WriteI64(step_);
  w->WriteU64(dense_.size());
  for (const DenseSlot& slot : dense_) {
    w->WriteString(slot.name);
    w->WriteFloatVector(slot.m.data(), slot.m.numel());
    w->WriteFloatVector(slot.v.data(), slot.v.numel());
  }
  w->WriteU64(sparse_.size());
  for (const SparseSlot& slot : sparse_) {
    w->WriteString(slot.name);
    w->WriteFloatVector(slot.m.data(), slot.m.numel());
    w->WriteFloatVector(slot.v.data(), slot.v.numel());
  }
  w->EndSection();
}

util::Status Adam::LoadState(util::BinaryReader* r) {
  if (r->ReadU32() != kAdamStateMagic) {
    if (!r->status().ok()) return r->status();
    return util::Status::Corruption("bad optimizer state magic");
  }
  const uint32_t version = r->ReadU32();
  if (r->status().ok() && version != kAdamStateVersion) {
    return util::Status::Corruption("unsupported optimizer state version");
  }
  r->BeginSection();
  const int64_t step = r->ReadI64();
  if (r->status().ok() && step < 0) {
    return util::Status::Corruption("negative optimizer step count");
  }
  const uint64_t nd = r->ReadU64();
  if (r->status().ok() && nd != dense_.size()) {
    return util::Status::Corruption("optimizer dense slot count mismatch");
  }
  for (uint64_t i = 0; i < nd && r->status().ok(); ++i) {
    DenseSlot& slot = dense_[i];
    const std::string name = r->ReadString();
    if (!r->status().ok()) break;
    if (name != slot.name) {
      return util::Status::Corruption("optimizer slot mismatch: " + name);
    }
    if ((!r->ReadFloatVectorInto(slot.m.data(), slot.m.numel()) ||
         !r->ReadFloatVectorInto(slot.v.data(), slot.v.numel())) &&
        r->status().ok()) {
      return util::Status::Corruption("optimizer slot mismatch: " + name);
    }
  }
  const uint64_t ns = r->ReadU64();
  if (r->status().ok() && ns != sparse_.size()) {
    return util::Status::Corruption("optimizer sparse slot count mismatch");
  }
  for (uint64_t i = 0; i < ns && r->status().ok(); ++i) {
    SparseSlot& slot = sparse_[i];
    const std::string name = r->ReadString();
    if (!r->status().ok()) break;
    if (name != slot.name) {
      return util::Status::Corruption("optimizer slot mismatch: " + name);
    }
    if ((!r->ReadFloatVectorInto(slot.m.data(), slot.m.numel()) ||
         !r->ReadFloatVectorInto(slot.v.data(), slot.v.numel())) &&
        r->status().ok()) {
      return util::Status::Corruption("optimizer slot mismatch: " + name);
    }
  }
  r->EndSection();
  BOOTLEG_RETURN_IF_ERROR(r->status());
  step_ = step;
  return util::Status::OK();
}

void Adam::Step() {
  OBS_SPAN("nn.adam.step");
  ++step_;
  const float bc1 = 1.0f - std::pow(options_.beta1, static_cast<float>(step_));
  const float bc2 = 1.0f - std::pow(options_.beta2, static_cast<float>(step_));
  const float lr = options_.lr;

  // Global-norm gradient clipping over dense parameters. Embedding gradients
  // are left unclipped (each row receives few contributions per step).
  float scale = 1.0f;
  if (options_.clip_norm > 0.0f) {
    // Lane accumulators: a single running double is a serial FP chain the
    // compiler cannot reassociate; eight independent lanes vectorize. The
    // lane assignment and fold order are fixed, so the norm is deterministic.
    double lanes[8] = {0.0};
    for (const DenseSlot& slot : dense_) {
      const Tensor& g = slot.param.grad();
      if (g.empty()) continue;
      const float* gd = g.data();
      const int64_t n = g.numel();
      int64_t i = 0;
      for (; i + 8 <= n; i += 8) {
        for (int64_t l = 0; l < 8; ++l) {
          const double x = static_cast<double>(gd[i + l]);
          lanes[l] += x * x;
        }
      }
      for (; i < n; ++i) {
        const double x = static_cast<double>(gd[i]);
        lanes[0] += x * x;
      }
    }
    double sq = 0.0;
    for (int64_t l = 0; l < 8; ++l) sq += lanes[l];
    const float norm = static_cast<float>(std::sqrt(sq));
    if (norm > options_.clip_norm) scale = options_.clip_norm / norm;
  }

  const float beta1 = options_.beta1;
  const float beta2 = options_.beta2;
  const float eps = options_.eps;
  for (DenseSlot& slot : dense_) {
    Var p = slot.param;
    const Tensor& g = p.grad();
    if (g.empty()) continue;
    // Raw pointers keep the loop branch-free (element access via at() pays a
    // bounds check per read) and let it vectorize; per-element updates are
    // independent, so large parameters fan out across the pool.
    const float* gd = g.data();
    float* value = p.mutable_value().data();
    float* m = slot.m.data();
    float* v = slot.v.data();
    const auto update = [=](int64_t lo, int64_t hi) {
      for (int64_t i = lo; i < hi; ++i) {
        const float gi = gd[i] * scale;
        const float mi = beta1 * m[i] + (1.0f - beta1) * gi;
        const float vi = beta2 * v[i] + (1.0f - beta2) * gi * gi;
        m[i] = mi;
        v[i] = vi;
        value[i] -= lr * (mi / bc1) / (std::sqrt(vi / bc2) + eps);
      }
    };
    const int64_t n = p.value().numel();
    util::ThreadPool* pool = util::ThreadPool::Global();
    if (pool->WouldParallelize(n, 1 << 13)) {
      pool->ParallelFor(0, n, 1 << 13, update);
    } else {
      update(0, n);
    }
    p.ZeroGrad();
  }

  for (SparseSlot& slot : sparse_) {
    Embedding* e = slot.embedding;
    const int64_t cols = e->cols();
    for (auto& [row, grad] : e->sparse_grads()) {
      float* value = e->table().data() + row * cols;
      float* m = slot.m.data() + row * cols;
      float* v = slot.v.data() + row * cols;
      const float* gj = grad.data();
      for (int64_t j = 0; j < cols; ++j) {
        const float mi = beta1 * m[j] + (1.0f - beta1) * gj[j];
        const float vi = beta2 * v[j] + (1.0f - beta2) * gj[j] * gj[j];
        m[j] = mi;
        v[j] = vi;
        value[j] -= lr * (mi / bc1) / (std::sqrt(vi / bc2) + eps);
      }
    }
    e->ZeroGrad();
  }
}

Sgd::Sgd(ParameterStore* store, float lr) : store_(store), lr_(lr) {
  for (const std::string& name : store->param_names()) {
    if (!store->IsFrozen(name)) dense_.push_back(store->GetParam(name));
  }
  for (const std::string& name : store->embedding_names()) {
    if (!store->IsFrozen(name)) sparse_.push_back(store->GetEmbedding(name));
  }
}

void Sgd::Step() {
  for (Var& p : dense_) {
    const Tensor& g = p.grad();
    if (g.empty()) continue;
    p.mutable_value().Axpy(-lr_, g);
    p.ZeroGrad();
  }
  for (Embedding* e : sparse_) {
    const int64_t cols = e->cols();
    for (auto& [row, grad] : e->sparse_grads()) {
      float* value = e->table().data() + row * cols;
      for (int64_t j = 0; j < cols; ++j) {
        value[j] -= lr_ * grad[static_cast<size_t>(j)];
      }
    }
    e->ZeroGrad();
  }
}

}  // namespace bootleg::nn
