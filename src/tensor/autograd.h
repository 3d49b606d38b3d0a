#ifndef BOOTLEG_TENSOR_AUTOGRAD_H_
#define BOOTLEG_TENSOR_AUTOGRAD_H_

#include <cstdint>
#include <functional>
#include <memory>
#include <unordered_map>
#include <vector>

#include "tensor/tensor.h"

namespace bootleg::tensor {

namespace internal_autograd {

/// One node of the dynamically-built computation tape.
struct Node {
  Tensor value;
  Tensor grad;  // allocated lazily by EnsureGrad()
  bool requires_grad = false;
  std::vector<std::shared_ptr<Node>> inputs;
  /// Accumulates input gradients from this node's grad. Set only when
  /// requires_grad is true and the op is differentiable.
  std::function<void(Node&)> backward;
  /// Set by Backward while it walks this node's tape, and cleared before
  /// it returns. Only op nodes are ever marked: leaves, which concurrent
  /// workers' tapes share, are never written by the walk.
  bool visited = false;

  void EnsureGrad() {
    if (grad.empty() && value.numel() > 0) grad = Tensor(value.shape());
  }
};

}  // namespace internal_autograd

/// Handle to a tape node. Vars are cheap shared references; the tape is the
/// graph of Vars reachable from a loss. Reverse-mode differentiation runs
/// with Backward(loss).
class Var {
 public:
  using Node = internal_autograd::Node;

  Var() = default;

  /// A leaf holding `value`. Leaves with requires_grad=true are parameters.
  static Var Leaf(Tensor value, bool requires_grad = false);

  /// A constant (no gradient ever flows into it).
  static Var Constant(Tensor value) { return Leaf(std::move(value), false); }

  bool defined() const { return node_ != nullptr; }
  const Tensor& value() const {
    BOOTLEG_CHECK(defined());
    return node_->value;
  }
  Tensor& mutable_value() {
    BOOTLEG_CHECK(defined());
    return node_->value;
  }
  const Tensor& grad() const {
    BOOTLEG_CHECK(defined());
    return node_->grad;
  }
  Tensor& mutable_grad() {
    BOOTLEG_CHECK(defined());
    node_->EnsureGrad();
    return node_->grad;
  }
  bool requires_grad() const { return defined() && node_->requires_grad; }

  void ZeroGrad() {
    if (defined() && !node_->grad.empty()) node_->grad.Fill(0.0f);
  }

  /// Internal: tape access for op implementations.
  const std::shared_ptr<Node>& node() const { return node_; }

  /// Internal: constructs from an existing node.
  static Var FromNode(std::shared_ptr<Node> node);

 private:
  std::shared_ptr<Node> node_;
};

/// Runs reverse-mode autodiff from scalar `loss` (numel()==1), accumulating
/// into the .grad of every reachable node with requires_grad. Op nodes run
/// their backward in reverse post-order of a depth-first walk that visits
/// each node's inputs in argument order, so a node shared by several
/// consumers receives their gradients in a fixed order. Safe to call
/// concurrently on tapes that share only leaves, each under its own
/// GradScope.
void Backward(const Var& loss);

/// Row-id → gradient row. The sparse-gradient map type shared by embedding
/// tables and gradient scopes.
using SparseRowGrads = std::unordered_map<int64_t, std::vector<float>>;

/// Per-worker gradient buffer for data-parallel training.
///
/// Intermediate tape nodes are private to the thread that built them, but
/// gradient *sinks* — parameter leaves and embedding sparse-grad maps — are
/// shared across workers. While a GradScope is active on a thread, Backward
/// deposits every sink gradient into that scope instead of the shared
/// storage. After all workers join, the trainer calls ReduceInto() on each
/// scope in fixed worker order, which reproduces a deterministic accumulation
/// order regardless of how worker threads were actually scheduled.
///
/// A scope may outlive the tapes it was filled from: it keys dense buffers by
/// leaf Node pointers, which the ParameterStore keeps alive.
class GradScope {
 public:
  GradScope() = default;
  GradScope(const GradScope&) = delete;
  GradScope& operator=(const GradScope&) = delete;
  GradScope(GradScope&&) = default;
  GradScope& operator=(GradScope&&) = default;

  /// RAII: makes `scope` the calling thread's active scope (nesting restores
  /// the previous scope on destruction).
  class Activation {
   public:
    explicit Activation(GradScope* scope);
    ~Activation();
    Activation(const Activation&) = delete;
    Activation& operator=(const Activation&) = delete;

   private:
    GradScope* prev_;
  };

  /// The calling thread's active scope, or nullptr.
  static GradScope* Current();

  /// Dense gradient buffer for a leaf node, zero-allocated on first touch.
  Tensor* DenseGrad(internal_autograd::Node* node);

  /// Buffered sparse row-gradients destined for `target` (an embedding's
  /// sparse_grads() map), allocated on first touch.
  SparseRowGrads* SparseGrad(SparseRowGrads* target);

  /// Adds every buffered gradient into its real sink — dense buffers into
  /// node->grad, sparse buffers into their target maps. Dense buffers are
  /// zeroed and retained (their keys are parameter nodes that outlive the
  /// scope), so a scope reused across batches pays no per-batch allocation.
  /// Call from one thread at a time, after the workers that filled the
  /// scope have joined.
  void ReduceInto();

  /// True when the scope has never buffered anything. Retained (zeroed)
  /// buffers from a previous ReduceInto still count as non-empty.
  bool empty() const { return dense_.empty() && sparse_.empty(); }

 private:
  std::unordered_map<internal_autograd::Node*, Tensor> dense_;
  std::unordered_map<SparseRowGrads*, SparseRowGrads> sparse_;
};

// --- Differentiable ops -----------------------------------------------------

Var MatMul(const Var& a, const Var& b);
/// a [m,k] · b [n,k]ᵀ → [m,n] without materializing the transpose (the
/// attention score path); gradients use MatMul / MatMulTransposedA directly.
Var MatMulTransposedB(const Var& a, const Var& b);
Var Add(const Var& a, const Var& b);
Var Sub(const Var& a, const Var& b);
Var Mul(const Var& a, const Var& b);
/// Elementwise multiply by a constant tensor (dropout / regularization masks).
Var MulConst(const Var& a, const Tensor& mask);
Var Scale(const Var& a, float alpha);
/// a [n,d] + bias [d].
Var AddRowBroadcast(const Var& a, const Var& bias);
Var Relu(const Var& a);
Var TanhV(const Var& a);
Var Gelu(const Var& a);
Var SoftmaxRows(const Var& a);
Var LogSoftmaxRows(const Var& a);
Var Transpose(const Var& a);
Var ConcatCols(const std::vector<Var>& parts);
Var ConcatRows(const std::vector<Var>& parts);
Var SliceCols(const Var& a, int64_t start, int64_t len);
Var SliceRows(const Var& a, int64_t start, int64_t len);
/// Differentiable row gather from a parameter table (dense scatter-add grad).
Var GatherRows(const Var& table, const std::vector<int64_t>& ids);
Var Sum(const Var& a);
Var Mean(const Var& a);
/// Elementwise max; gradient follows the winning element (ties go to `a`).
Var Max(const Var& a, const Var& b);
/// Row-wise layer normalization with learned gain/bias (both shape [d]).
Var LayerNorm(const Var& x, const Var& gamma, const Var& beta, float eps = 1e-5f);
/// Mean negative log-likelihood of `targets` under row-wise softmax(logits).
Var CrossEntropy(const Var& logits, const std::vector<int64_t>& targets);
/// K + w·I for constant square K and learned scalar w (shape [1]).
Var AddScaledIdentity(const Tensor& k, const Var& w);
/// Mean of the rows of a 2-D input → [1, d]. Used by additive attention.
Var MeanRows(const Var& a);

}  // namespace bootleg::tensor

#endif  // BOOTLEG_TENSOR_AUTOGRAD_H_
