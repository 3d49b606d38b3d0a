#include "tensor/autograd.h"

#include <cmath>

#include "backend/tanh_kernels.h"

namespace bootleg::tensor {

using internal_autograd::Node;

Var Var::Leaf(Tensor value, bool requires_grad) {
  auto node = std::make_shared<Node>();
  node->value = std::move(value);
  node->requires_grad = requires_grad;
  return FromNode(std::move(node));
}

Var Var::FromNode(std::shared_ptr<Node> node) {
  Var v;
  v.node_ = std::move(node);
  return v;
}

namespace {

/// Creates an op-output node. If no input requires grad, the backward closure
/// is dropped so the tape stays shallow for inference.
Var MakeOp(Tensor value, std::vector<Var> inputs, std::function<void(Node&)> backward) {
  auto node = std::make_shared<Node>();
  node->value = std::move(value);
  bool any = false;
  for (const Var& v : inputs) {
    BOOTLEG_CHECK(v.defined());
    any = any || v.requires_grad();
    node->inputs.push_back(v.node());
  }
  node->requires_grad = any;
  if (any) node->backward = std::move(backward);
  return Var::FromNode(std::move(node));
}

/// Post-order of the op nodes reachable from `root` through inputs that
/// require grad. Leaves are skipped: they have no backward to run, so the
/// order of the op nodes is the same as a walk that includes them. Each
/// visited node is marked in place; the caller clears the marks.
void TopoSort(Node* root, std::vector<Node*>* order) {
  // Iterative DFS (graphs can be thousands of nodes deep), reusing the
  // thread's stack storage across calls.
  thread_local std::vector<std::pair<Node*, size_t>> stack;
  stack.clear();
  stack.emplace_back(root, 0);
  root->visited = true;
  while (!stack.empty()) {
    auto& [node, idx] = stack.back();
    if (idx < node->inputs.size()) {
      Node* child = node->inputs[idx].get();
      ++idx;
      if (child->requires_grad && child->backward && !child->visited) {
        child->visited = true;
        stack.emplace_back(child, 0);
      }
    } else {
      order->push_back(node);
      stack.pop_back();
    }
  }
}

}  // namespace

void Backward(const Var& loss) {
  BOOTLEG_CHECK(loss.defined());
  BOOTLEG_CHECK_EQ(loss.value().numel(), 1);
  if (!loss.requires_grad()) return;
  Node* root = loss.node().get();
  root->EnsureGrad();
  root->grad.Fill(1.0f);
  if (!root->backward) return;  // the loss is itself a leaf

  thread_local std::vector<Node*> order;
  order.clear();
  TopoSort(root, &order);
  // Post-order yields inputs before outputs; reverse for backprop.
  for (auto it = order.rbegin(); it != order.rend(); ++it) {
    Node* node = *it;
    node->visited = false;
    if (!node->grad.empty()) node->backward(*node);
  }
}

namespace {
thread_local GradScope* t_grad_scope = nullptr;
}  // namespace

GradScope::Activation::Activation(GradScope* scope) : prev_(t_grad_scope) {
  t_grad_scope = scope;
}

GradScope::Activation::~Activation() { t_grad_scope = prev_; }

GradScope* GradScope::Current() { return t_grad_scope; }

Tensor* GradScope::DenseGrad(internal_autograd::Node* node) {
  auto [it, inserted] = dense_.try_emplace(node);
  if (inserted) it->second = Tensor(node->value.shape());
  return &it->second;
}

SparseRowGrads* GradScope::SparseGrad(SparseRowGrads* target) {
  return &sparse_[target];
}

void GradScope::ReduceInto() {
  // Buffers are retained (zeroed, not erased) between reductions: the dense
  // keys are parameter nodes that outlive the scope, and reusing the
  // allocation avoids a hash insert + Tensor allocation per parameter per
  // batch in the training loop.
  for (auto& [node, grad] : dense_) {
    node->EnsureGrad();
    node->grad.Add(grad);
    grad.Fill(0.0f);
  }
  for (auto& [target, rows] : sparse_) {
    for (auto& [row, grad] : rows) {
      auto [it, inserted] = target->try_emplace(row, std::move(grad));
      if (!inserted) {
        float* dst = it->second.data();
        const float* src = grad.data();
        for (size_t j = 0; j < it->second.size(); ++j) dst[j] += src[j];
      }
    }
    rows.clear();
  }
}

namespace {
/// True for gradient sinks: nodes backprop stops at (parameters and other
/// leaves). Their accumulation is redirected into the active GradScope so
/// concurrent Backward calls never write shared state.
bool IsLeaf(const Node* node) { return !node->backward; }

/// Accumulates `delta` into input slot `i` of `node` if that input wants grad.
void AccumInto(Node& node, size_t i, const Tensor& delta) {
  Node* in = node.inputs[i].get();
  if (!in->requires_grad) return;
  if (IsLeaf(in)) {
    if (GradScope* scope = GradScope::Current()) {
      scope->DenseGrad(in)->Add(delta);
      return;
    }
  }
  in->EnsureGrad();
  in->grad.Add(delta);
}
}  // namespace

Var MatMul(const Var& a, const Var& b) {
  Tensor out = MatMul(a.value(), b.value());
  return MakeOp(std::move(out), {a, b}, [](Node& n) {
    const Tensor& g = n.grad;
    const Tensor& av = n.inputs[0]->value;
    const Tensor& bv = n.inputs[1]->value;
    if (n.inputs[0]->requires_grad) {
      AccumInto(n, 0, MatMulTransposedB(g, bv));  // dA = dC · Bᵀ
    }
    if (n.inputs[1]->requires_grad) {
      AccumInto(n, 1, MatMulTransposedA(av, g));  // dB = Aᵀ · dC
    }
  });
}

Var MatMulTransposedB(const Var& a, const Var& b) {
  Tensor out = MatMulTransposedB(a.value(), b.value());
  return MakeOp(std::move(out), {a, b}, [](Node& n) {
    const Tensor& g = n.grad;
    const Tensor& av = n.inputs[0]->value;
    const Tensor& bv = n.inputs[1]->value;
    if (n.inputs[0]->requires_grad) {
      AccumInto(n, 0, MatMul(g, bv));  // dA = dC · B
    }
    if (n.inputs[1]->requires_grad) {
      AccumInto(n, 1, MatMulTransposedA(g, av));  // dB = dCᵀ · A
    }
  });
}

Var Add(const Var& a, const Var& b) {
  Tensor out = Add(a.value(), b.value());
  return MakeOp(std::move(out), {a, b}, [](Node& n) {
    AccumInto(n, 0, n.grad);
    AccumInto(n, 1, n.grad);
  });
}

Var Sub(const Var& a, const Var& b) {
  Tensor out = Sub(a.value(), b.value());
  return MakeOp(std::move(out), {a, b}, [](Node& n) {
    AccumInto(n, 0, n.grad);
    AccumInto(n, 1, Scale(n.grad, -1.0f));
  });
}

Var Mul(const Var& a, const Var& b) {
  Tensor out = Mul(a.value(), b.value());
  return MakeOp(std::move(out), {a, b}, [](Node& n) {
    AccumInto(n, 0, Mul(n.grad, n.inputs[1]->value));
    AccumInto(n, 1, Mul(n.grad, n.inputs[0]->value));
  });
}

Var MulConst(const Var& a, const Tensor& mask) {
  Tensor out = Mul(a.value(), mask);
  return MakeOp(std::move(out), {a}, [mask](Node& n) {
    AccumInto(n, 0, Mul(n.grad, mask));
  });
}

Var Scale(const Var& a, float alpha) {
  Tensor out = Scale(a.value(), alpha);
  return MakeOp(std::move(out), {a}, [alpha](Node& n) {
    AccumInto(n, 0, Scale(n.grad, alpha));
  });
}

Var AddRowBroadcast(const Var& a, const Var& bias) {
  Tensor out = AddRowBroadcast(a.value(), bias.value());
  return MakeOp(std::move(out), {a, bias}, [](Node& n) {
    AccumInto(n, 0, n.grad);
    if (n.inputs[1]->requires_grad) {
      const Tensor& g = n.grad;
      const int64_t rows = g.size(0), cols = g.size(1);
      Tensor db({cols});
      float* dbp = db.data();
      const float* gp = g.data();
      for (int64_t i = 0; i < rows; ++i) {
        const float* grow = gp + i * cols;
        for (int64_t j = 0; j < cols; ++j) dbp[j] += grow[j];
      }
      AccumInto(n, 1, db);
    }
  });
}

Var Relu(const Var& a) {
  Tensor out = Relu(a.value());
  return MakeOp(std::move(out), {a}, [](Node& n) {
    Tensor d = n.grad;
    float* dp = d.data();
    const float* xp = n.inputs[0]->value.data();
    const int64_t numel = d.numel();
    for (int64_t i = 0; i < numel; ++i) {
      if (xp[i] <= 0.0f) dp[i] = 0.0f;
    }
    AccumInto(n, 0, d);
  });
}

Var TanhV(const Var& a) {
  Tensor out = TanhT(a.value());
  return MakeOp(std::move(out), {a}, [](Node& n) {
    Tensor d = n.grad;
    float* dp = d.data();
    const float* yp = n.value.data();
    const int64_t numel = d.numel();
    for (int64_t i = 0; i < numel; ++i) dp[i] *= 1.0f - yp[i] * yp[i];
    AccumInto(n, 0, d);
  });
}

Var Gelu(const Var& a) {
  Tensor out = Gelu(a.value());
  return MakeOp(std::move(out), {a}, [](Node& n) {
    constexpr float kC = 0.7978845608f;  // sqrt(2/pi)
    Tensor d = n.grad;
    float* dp = d.data();
    const float* xp = n.inputs[0]->value.data();
    const int64_t numel = d.numel();
    std::vector<float> tanh_inner(static_cast<size_t>(numel));
    backend::GeluTanhRow(xp, tanh_inner.data(), numel);
    for (int64_t i = 0; i < numel; ++i) {
      const float v = xp[i];
      const float t = tanh_inner[i];
      const float dinner = kC * (1.0f + 3.0f * 0.044715f * v * v);
      const float dgelu = 0.5f * (1.0f + t) + 0.5f * v * (1.0f - t * t) * dinner;
      dp[i] *= dgelu;
    }
    AccumInto(n, 0, d);
  });
}

Var SoftmaxRows(const Var& a) {
  Tensor out = SoftmaxRows(a.value());
  return MakeOp(std::move(out), {a}, [](Node& n) {
    const Tensor& y = n.value;
    const Tensor& g = n.grad;
    const int64_t rows = y.size(0), cols = y.size(1);
    Tensor d({rows, cols});
    const float* yp = y.data();
    const float* gp = g.data();
    float* dp = d.data();
    for (int64_t i = 0; i < rows; ++i) {
      const float* yrow = yp + i * cols;
      const float* grow = gp + i * cols;
      float* drow = dp + i * cols;
      double dot = 0.0;
      for (int64_t j = 0; j < cols; ++j) dot += static_cast<double>(grow[j]) * yrow[j];
      const float dotf = static_cast<float>(dot);
      for (int64_t j = 0; j < cols; ++j) {
        drow[j] = (grow[j] - dotf) * yrow[j];
      }
    }
    AccumInto(n, 0, d);
  });
}

Var LogSoftmaxRows(const Var& a) {
  Tensor out = LogSoftmaxRows(a.value());
  return MakeOp(std::move(out), {a}, [](Node& n) {
    const Tensor& logp = n.value;
    const Tensor& g = n.grad;
    const int64_t rows = logp.size(0), cols = logp.size(1);
    Tensor d({rows, cols});
    const float* lp = logp.data();
    const float* gp = g.data();
    float* dp = d.data();
    for (int64_t i = 0; i < rows; ++i) {
      const float* lrow = lp + i * cols;
      const float* grow = gp + i * cols;
      float* drow = dp + i * cols;
      double gsum = 0.0;
      for (int64_t j = 0; j < cols; ++j) gsum += grow[j];
      const float gsumf = static_cast<float>(gsum);
      for (int64_t j = 0; j < cols; ++j) {
        drow[j] = grow[j] - gsumf * std::exp(lrow[j]);
      }
    }
    AccumInto(n, 0, d);
  });
}

Var Transpose(const Var& a) {
  Tensor out = Transpose(a.value());
  return MakeOp(std::move(out), {a}, [](Node& n) {
    AccumInto(n, 0, Transpose(n.grad));
  });
}

Var ConcatCols(const std::vector<Var>& parts) {
  std::vector<Tensor> vals;
  vals.reserve(parts.size());
  for (const Var& p : parts) vals.push_back(p.value());
  Tensor out = ConcatCols(vals);
  std::vector<int64_t> widths;
  widths.reserve(parts.size());
  for (const Var& p : parts) widths.push_back(p.value().size(1));
  return MakeOp(std::move(out), parts, [widths](Node& n) {
    int64_t off = 0;
    for (size_t i = 0; i < widths.size(); ++i) {
      AccumInto(n, i, SliceCols(n.grad, off, widths[i]));
      off += widths[i];
    }
  });
}

Var ConcatRows(const std::vector<Var>& parts) {
  std::vector<Tensor> vals;
  vals.reserve(parts.size());
  for (const Var& p : parts) vals.push_back(p.value());
  Tensor out = ConcatRows(vals);
  std::vector<int64_t> heights;
  heights.reserve(parts.size());
  for (const Var& p : parts) heights.push_back(p.value().size(0));
  return MakeOp(std::move(out), parts, [heights](Node& n) {
    int64_t off = 0;
    for (size_t i = 0; i < heights.size(); ++i) {
      AccumInto(n, i, SliceRows(n.grad, off, heights[i]));
      off += heights[i];
    }
  });
}

Var SliceCols(const Var& a, int64_t start, int64_t len) {
  Tensor out = SliceCols(a.value(), start, len);
  const int64_t rows = a.value().size(0), cols = a.value().size(1);
  return MakeOp(std::move(out), {a}, [start, len, rows, cols](Node& n) {
    Tensor d({rows, cols});
    float* dp = d.data();
    const float* gp = n.grad.data();
    for (int64_t i = 0; i < rows; ++i) {
      float* drow = dp + i * cols + start;
      const float* grow = gp + i * len;
      for (int64_t j = 0; j < len; ++j) drow[j] = grow[j];
    }
    AccumInto(n, 0, d);
  });
}

Var SliceRows(const Var& a, int64_t start, int64_t len) {
  Tensor out = SliceRows(a.value(), start, len);
  const int64_t rows = a.value().size(0), cols = a.value().size(1);
  return MakeOp(std::move(out), {a}, [start, len, rows, cols](Node& n) {
    Tensor d({rows, cols});
    std::copy(n.grad.data(), n.grad.data() + len * cols,
              d.data() + start * cols);
    AccumInto(n, 0, d);
  });
}

Var GatherRows(const Var& table, const std::vector<int64_t>& ids) {
  Tensor out = GatherRows(table.value(), ids);
  return MakeOp(std::move(out), {table}, [ids](Node& n) {
    if (!n.inputs[0]->requires_grad) return;
    Node* t = n.inputs[0].get();
    const int64_t cols = t->value.size(1);
    Tensor* sink = nullptr;
    if (IsLeaf(t)) {
      if (GradScope* scope = GradScope::Current()) sink = scope->DenseGrad(t);
    }
    if (sink == nullptr) {
      t->EnsureGrad();
      sink = &t->grad;
    }
    for (size_t i = 0; i < ids.size(); ++i) {
      float* dst = sink->data() + ids[i] * cols;
      const float* src = n.grad.data() + static_cast<int64_t>(i) * cols;
      for (int64_t j = 0; j < cols; ++j) dst[j] += src[j];
    }
  });
}

Var Sum(const Var& a) {
  Tensor out({1});
  out.at(0) = a.value().Sum();
  return MakeOp(std::move(out), {a}, [](Node& n) {
    Tensor d(n.inputs[0]->value.shape());
    d.Fill(n.grad.at(0));
    AccumInto(n, 0, d);
  });
}

Var Mean(const Var& a) {
  const int64_t count = a.value().numel();
  BOOTLEG_CHECK_GT(count, 0);
  Tensor out({1});
  out.at(0) = a.value().Sum() / static_cast<float>(count);
  return MakeOp(std::move(out), {a}, [count](Node& n) {
    Tensor d(n.inputs[0]->value.shape());
    d.Fill(n.grad.at(0) / static_cast<float>(count));
    AccumInto(n, 0, d);
  });
}

Var Max(const Var& a, const Var& b) {
  Tensor out = Max(a.value(), b.value());
  return MakeOp(std::move(out), {a, b}, [](Node& n) {
    const Tensor& av = n.inputs[0]->value;
    const Tensor& bv = n.inputs[1]->value;
    Tensor da(av.shape());
    Tensor db(bv.shape());
    for (int64_t i = 0; i < av.numel(); ++i) {
      if (av.at(i) >= bv.at(i)) {
        da.at(i) = n.grad.at(i);
      } else {
        db.at(i) = n.grad.at(i);
      }
    }
    AccumInto(n, 0, da);
    AccumInto(n, 1, db);
  });
}

Var LayerNorm(const Var& x, const Var& gamma, const Var& beta, float eps) {
  const Tensor& xv = x.value();
  BOOTLEG_CHECK_EQ(xv.dim(), 2);
  const int64_t rows = xv.size(0), cols = xv.size(1);
  BOOTLEG_CHECK_EQ(gamma.value().numel(), cols);
  BOOTLEG_CHECK_EQ(beta.value().numel(), cols);

  Tensor xhat;
  Tensor inv_std;
  Tensor out =
      LayerNormRows(xv, gamma.value(), beta.value(), eps, &xhat, &inv_std);

  return MakeOp(std::move(out), {x, gamma, beta},
                [xhat = std::move(xhat), inv_std = std::move(inv_std), rows,
                 cols](Node& n) {
                  const float* g = n.grad.data();
                  const float* gam = n.inputs[1]->value.data();
                  const float* xh = xhat.data();
                  const float* is = inv_std.data();
                  if (n.inputs[1]->requires_grad || n.inputs[2]->requires_grad) {
                    Tensor dgamma({cols});
                    Tensor dbeta({cols});
                    float* dg = dgamma.data();
                    float* db = dbeta.data();
                    for (int64_t i = 0; i < rows; ++i) {
                      const float* grow = g + i * cols;
                      const float* xhrow = xh + i * cols;
                      for (int64_t j = 0; j < cols; ++j) {
                        dg[j] += grow[j] * xhrow[j];
                        db[j] += grow[j];
                      }
                    }
                    AccumInto(n, 1, dgamma);
                    AccumInto(n, 2, dbeta);
                  }
                  if (n.inputs[0]->requires_grad) {
                    Tensor dx({rows, cols});
                    float* dxp = dx.data();
                    for (int64_t i = 0; i < rows; ++i) {
                      const float* grow = g + i * cols;
                      const float* xhrow = xh + i * cols;
                      float* dxrow = dxp + i * cols;
                      double m1 = 0.0, m2 = 0.0;
                      for (int64_t j = 0; j < cols; ++j) {
                        const float dxh = grow[j] * gam[j];
                        m1 += dxh;
                        m2 += static_cast<double>(dxh) * xhrow[j];
                      }
                      const float m1f = static_cast<float>(m1 / cols);
                      const float m2f = static_cast<float>(m2 / cols);
                      for (int64_t j = 0; j < cols; ++j) {
                        const float dxh = grow[j] * gam[j];
                        dxrow[j] = is[i] * (dxh - m1f - xhrow[j] * m2f);
                      }
                    }
                    AccumInto(n, 0, dx);
                  }
                });
}

Var CrossEntropy(const Var& logits, const std::vector<int64_t>& targets) {
  const Tensor& lv = logits.value();
  BOOTLEG_CHECK_EQ(lv.dim(), 2);
  const int64_t rows = lv.size(0), cols = lv.size(1);
  BOOTLEG_CHECK_EQ(rows, static_cast<int64_t>(targets.size()));
  Tensor probs = SoftmaxRows(lv);
  double loss = 0.0;
  for (int64_t i = 0; i < rows; ++i) {
    const int64_t t = targets[static_cast<size_t>(i)];
    BOOTLEG_CHECK(t >= 0 && t < cols);
    loss -= std::log(std::max(probs.at(i, t), 1e-12f));
  }
  Tensor out({1});
  out.at(0) = static_cast<float>(loss / rows);
  return MakeOp(std::move(out), {logits},
                [probs = std::move(probs), targets, rows, cols](Node& n) {
                  const float scale = n.grad.at(0) / static_cast<float>(rows);
                  Tensor d({rows, cols});
                  for (int64_t i = 0; i < rows; ++i) {
                    for (int64_t j = 0; j < cols; ++j) {
                      float v = probs.at(i, j);
                      if (j == targets[static_cast<size_t>(i)]) v -= 1.0f;
                      d.at(i, j) = v * scale;
                    }
                  }
                  AccumInto(n, 0, d);
                });
}

Var AddScaledIdentity(const Tensor& k, const Var& w) {
  BOOTLEG_CHECK_EQ(w.value().numel(), 1);
  const int64_t n_dim = k.size(0);
  Tensor out = AddScaledIdentity(k, w.value().at(0));
  return MakeOp(std::move(out), {w}, [n_dim](Node& n) {
    if (!n.inputs[0]->requires_grad) return;
    float tr = 0.0f;
    for (int64_t i = 0; i < n_dim; ++i) tr += n.grad.at(i, i);
    Tensor dw({1});
    dw.at(0) = tr;
    AccumInto(n, 0, dw);
  });
}

Var MeanRows(const Var& a) {
  const Tensor& av = a.value();
  BOOTLEG_CHECK_EQ(av.dim(), 2);
  const int64_t rows = av.size(0), cols = av.size(1);
  Tensor out({1, cols});
  for (int64_t i = 0; i < rows; ++i) {
    for (int64_t j = 0; j < cols; ++j) out.at(0, j) += av.at(i, j);
  }
  out.Scale(1.0f / static_cast<float>(rows));
  return MakeOp(std::move(out), {a}, [rows, cols](Node& n) {
    Tensor d({rows, cols});
    const float inv = 1.0f / static_cast<float>(rows);
    for (int64_t i = 0; i < rows; ++i) {
      for (int64_t j = 0; j < cols; ++j) d.at(i, j) = n.grad.at(0, j) * inv;
    }
    AccumInto(n, 0, d);
  });
}

}  // namespace bootleg::tensor
