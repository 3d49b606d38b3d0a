#include "tensor/autograd.h"

#include <cmath>
#include <thread>

#include <gtest/gtest.h>

#include "tensor/gradcheck.h"

namespace bootleg::tensor {
namespace {

Var Leaf(Shape shape, uint64_t seed, float stddev = 1.0f) {
  util::Rng rng(seed);
  return Var::Leaf(Tensor::Randn(shape, &rng, stddev), true);
}

TEST(AutogradTest, LeafProperties) {
  Var v = Var::Leaf(Tensor::FromVector({1, 2}), true);
  EXPECT_TRUE(v.requires_grad());
  EXPECT_TRUE(v.defined());
  Var c = Var::Constant(Tensor::FromVector({1}));
  EXPECT_FALSE(c.requires_grad());
}

TEST(AutogradTest, BackwardThroughSum) {
  Var x = Var::Leaf(Tensor::FromVector({1, 2, 3}), true);
  Var loss = Sum(x);
  Backward(loss);
  for (int64_t i = 0; i < 3; ++i) EXPECT_EQ(x.grad().at(i), 1.0f);
}

TEST(AutogradTest, BackwardThroughMean) {
  Var x = Var::Leaf(Tensor::FromVector({1, 2, 3, 4}), true);
  Backward(Mean(x));
  for (int64_t i = 0; i < 4; ++i) EXPECT_NEAR(x.grad().at(i), 0.25f, 1e-6f);
}

TEST(AutogradTest, GradientAccumulatesWhenVarReused) {
  // Diamond graph: loss = sum(x + x) → dx = 2.
  Var x = Var::Leaf(Tensor::FromVector({1, 2}), true);
  Backward(Sum(Add(x, x)));
  EXPECT_EQ(x.grad().at(0), 2.0f);
  EXPECT_EQ(x.grad().at(1), 2.0f);
}

TEST(AutogradTest, NoGradIntoConstants) {
  Var x = Var::Leaf(Tensor::FromVector({1, 2}), true);
  Var c = Var::Constant(Tensor::FromVector({3, 4}));
  Backward(Sum(Mul(x, c)));
  EXPECT_EQ(x.grad().at(0), 3.0f);
  EXPECT_TRUE(c.grad().empty());
}

TEST(AutogradTest, ZeroGradClears) {
  Var x = Var::Leaf(Tensor::FromVector({1}), true);
  Backward(Sum(x));
  EXPECT_EQ(x.grad().at(0), 1.0f);
  x.ZeroGrad();
  EXPECT_EQ(x.grad().at(0), 0.0f);
}

TEST(AutogradTest, MatMulGradientKnownValue) {
  // loss = sum(A·B); dA = 1·Bᵀ, dB = Aᵀ·1.
  Var a = Var::Leaf(Tensor({1, 2}, {1, 2}), true);
  Var b = Var::Leaf(Tensor({2, 1}, {3, 4}), true);
  Backward(Sum(MatMul(a, b)));
  EXPECT_EQ(a.grad().at(0), 3.0f);
  EXPECT_EQ(a.grad().at(1), 4.0f);
  EXPECT_EQ(b.grad().at(0), 1.0f);
  EXPECT_EQ(b.grad().at(1), 2.0f);
}

TEST(AutogradTest, CrossEntropyForwardValue) {
  // Uniform logits → loss = log(C).
  Var logits = Var::Leaf(Tensor({2, 4}), true);
  Var loss = CrossEntropy(logits, {0, 3});
  EXPECT_NEAR(loss.value().at(0), std::log(4.0f), 1e-5f);
}

TEST(AutogradTest, CrossEntropyGradientDirection) {
  Var logits = Var::Leaf(Tensor({1, 3}), true);
  Backward(CrossEntropy(logits, {1}));
  // Target logit grad negative, others positive.
  EXPECT_LT(logits.grad().at(0, 1), 0.0f);
  EXPECT_GT(logits.grad().at(0, 0), 0.0f);
  EXPECT_GT(logits.grad().at(0, 2), 0.0f);
}

TEST(AutogradTest, MaxRoutesGradientToWinner) {
  Var a = Var::Leaf(Tensor::FromVector({5, 1}), true);
  Var b = Var::Leaf(Tensor::FromVector({2, 3}), true);
  Backward(Sum(Max(a, b)));
  EXPECT_EQ(a.grad().at(0), 1.0f);
  EXPECT_EQ(a.grad().at(1), 0.0f);
  EXPECT_EQ(b.grad().at(0), 0.0f);
  EXPECT_EQ(b.grad().at(1), 1.0f);
}

TEST(AutogradTest, GatherRowsScattersGradient) {
  Var table = Var::Leaf(Tensor({3, 2}), true);
  Backward(Sum(GatherRows(table, {1, 1, 2})));
  EXPECT_EQ(table.grad().at(0, 0), 0.0f);
  EXPECT_EQ(table.grad().at(1, 0), 2.0f);  // gathered twice
  EXPECT_EQ(table.grad().at(2, 0), 1.0f);
}

TEST(AutogradTest, AddScaledIdentityForwardAndGrad) {
  Tensor k({2, 2}, {0, 1, 1, 0});
  Var w = Var::Leaf(Tensor::FromVector({0.5f}), true);
  Var out = AddScaledIdentity(k, w);
  EXPECT_EQ(out.value().at(0, 0), 0.5f);
  EXPECT_EQ(out.value().at(0, 1), 1.0f);
  Backward(Sum(out));
  EXPECT_EQ(w.grad().at(0), 2.0f);  // trace of the all-ones gradient
}

TEST(AutogradTest, InferenceGraphRecordsNoBackward) {
  Var c1 = Var::Constant(Tensor::FromVector({1, 2}));
  Var c2 = Var::Constant(Tensor::FromVector({3, 4}));
  Var out = Add(c1, c2);
  EXPECT_FALSE(out.requires_grad());
}

TEST(AutogradTest, SharedInputAccumulatesInReversePostOrder) {
  // h feeds three consumers whose gradients into h are 1e8, -1e8 and 1, in
  // an order float addition can tell apart: only (-1e8 + 1e8) + 1 keeps the
  // 1. Backward walks depth-first from the loss, inputs in argument order
  // (loss, s2, s1, a, h, then b, then c), and runs nodes in reverse
  // post-order: c, then b, then a add into h. Reverse creation order (a, c,
  // b) or a walk over inputs last-to-first (a, b, c) would give 0.
  Var x = Var::Leaf(Tensor::FromVector({1.0f}), true);
  Var h = Scale(x, 1.0f);
  Var b = Scale(h, 1e8f);
  Var c = Scale(h, -1e8f);
  Var a = Scale(h, 1.0f);
  Var s1 = Add(a, b);
  Var s2 = Add(s1, c);
  Backward(Sum(s2));
  EXPECT_EQ(x.grad().at(0), 1.0f);
}

TEST(AutogradTest, ConcurrentBackwardOnTapesSharingParameterLeaves) {
  // Two workers differentiate their own tapes over the same parameter
  // leaves, each into a private GradScope, as the data-parallel trainer
  // does; the walk must never write the shared leaves.
  Var w = Leaf({8, 8}, 11, 0.5f);
  Var bias = Leaf({8}, 12, 0.5f);
  Var table = Leaf({16, 8}, 13, 0.5f);
  const auto run = [&](int worker, GradScope* scope) {
    GradScope::Activation act(scope);
    for (int step = 0; step < 40; ++step) {
      Var x = Var::Constant(
          Tensor::Full({4, 8}, 0.01f * static_cast<float>(worker + step)));
      Var rows = GatherRows(table, {step % 16, (step + worker) % 16, 3, 3});
      Var y = TanhV(AddRowBroadcast(MatMul(Add(x, rows), w), bias));
      Backward(Mean(y));
    }
  };
  std::vector<GradScope> threaded(2);
  std::thread t0(run, 0, &threaded[0]);
  std::thread t1(run, 1, &threaded[1]);
  t0.join();
  t1.join();
  for (GradScope& scope : threaded) scope.ReduceInto();
  const Tensor threaded_w = w.grad();
  const Tensor threaded_table = table.grad();

  w.ZeroGrad();
  bias.ZeroGrad();
  table.ZeroGrad();
  std::vector<GradScope> serial(2);
  run(0, &serial[0]);
  run(1, &serial[1]);
  for (GradScope& scope : serial) scope.ReduceInto();
  ASSERT_EQ(threaded_w.numel(), w.grad().numel());
  for (int64_t i = 0; i < w.grad().numel(); ++i) {
    ASSERT_EQ(threaded_w.at(i), w.grad().at(i));
  }
  for (int64_t i = 0; i < table.grad().numel(); ++i) {
    ASSERT_EQ(threaded_table.at(i), table.grad().at(i));
  }
}

// ---------------------------------------------------------------------------
// Finite-difference gradient checks for every differentiable op. These are
// the property tests certifying the autograd engine.
// ---------------------------------------------------------------------------

using LossFn = std::function<Var(const std::vector<Var>&)>;

struct GradCase {
  const char* name;
  std::vector<Shape> shapes;
  LossFn loss;
};

class GradCheckTest : public ::testing::TestWithParam<GradCase> {};

TEST_P(GradCheckTest, AnalyticMatchesNumeric) {
  const GradCase& c = GetParam();
  std::vector<Var> leaves;
  for (size_t i = 0; i < c.shapes.size(); ++i) {
    leaves.push_back(Leaf(c.shapes[i], 100 + i, 0.5f));
  }
  const GradCheckResult result = CheckGradients(c.loss, &leaves);
  EXPECT_TRUE(result.ok) << c.name << " max rel err " << result.max_rel_error;
}

const GradCase kCases[] = {
    {"matmul", {{3, 4}, {4, 2}},
     [](const std::vector<Var>& v) { return Sum(MatMul(v[0], v[1])); }},
    {"add", {{2, 3}, {2, 3}},
     [](const std::vector<Var>& v) { return Sum(Mul(Add(v[0], v[1]), v[0])); }},
    {"sub", {{2, 3}, {2, 3}},
     [](const std::vector<Var>& v) { return Sum(Mul(Sub(v[0], v[1]), v[1])); }},
    {"mul", {{4}, {4}},
     [](const std::vector<Var>& v) { return Sum(Mul(v[0], v[1])); }},
    {"scale", {{5}},
     [](const std::vector<Var>& v) { return Sum(Scale(v[0], -2.5f)); }},
    {"add_row_broadcast", {{3, 4}, {4}},
     [](const std::vector<Var>& v) {
       return Sum(Mul(AddRowBroadcast(v[0], v[1]), v[0]));
     }},
    {"relu", {{8}},
     [](const std::vector<Var>& v) { return Sum(Mul(Relu(v[0]), v[0])); }},
    {"tanh", {{6}},
     [](const std::vector<Var>& v) { return Sum(TanhV(v[0])); }},
    {"gelu", {{6}},
     [](const std::vector<Var>& v) { return Sum(Gelu(v[0])); }},
    {"softmax", {{3, 5}},
     [](const std::vector<Var>& v) {
       // Weighted sum breaks the softmax's sum-to-one degeneracy.
       util::Rng rng(9);
       static const Tensor kW = Tensor::Randn({3, 5}, &rng);
       return Sum(MulConst(SoftmaxRows(v[0]), kW));
     }},
    {"log_softmax", {{2, 4}},
     [](const std::vector<Var>& v) {
       util::Rng rng(10);
       static const Tensor kW = Tensor::Randn({2, 4}, &rng);
       return Sum(MulConst(LogSoftmaxRows(v[0]), kW));
     }},
    {"transpose", {{3, 2}},
     [](const std::vector<Var>& v) {
       return Sum(MatMul(Transpose(v[0]), v[0]));
     }},
    {"concat_cols", {{2, 2}, {2, 3}},
     [](const std::vector<Var>& v) {
       Var c = ConcatCols({v[0], v[1]});
       return Sum(Mul(c, c));
     }},
    {"concat_rows", {{2, 3}, {1, 3}},
     [](const std::vector<Var>& v) {
       Var c = ConcatRows({v[0], v[1]});
       return Sum(Mul(c, c));
     }},
    {"slice_cols", {{3, 5}},
     [](const std::vector<Var>& v) {
       Var s = SliceCols(v[0], 1, 3);
       return Sum(Mul(s, s));
     }},
    {"slice_rows", {{5, 2}},
     [](const std::vector<Var>& v) {
       Var s = SliceRows(v[0], 2, 2);
       return Sum(Mul(s, s));
     }},
    {"gather_rows", {{4, 3}},
     [](const std::vector<Var>& v) {
       Var g = GatherRows(v[0], {0, 2, 2});
       return Sum(Mul(g, g));
     }},
    {"max", {{6}, {6}},
     [](const std::vector<Var>& v) { return Sum(Mul(Max(v[0], v[1]), v[0])); }},
    {"layer_norm", {{3, 6}, {6}, {6}},
     [](const std::vector<Var>& v) {
       util::Rng rng(11);
       static const Tensor kW = Tensor::Randn({3, 6}, &rng);
       return Sum(MulConst(LayerNorm(v[0], v[1], v[2]), kW));
     }},
    {"cross_entropy", {{3, 4}},
     [](const std::vector<Var>& v) { return CrossEntropy(v[0], {1, 0, 3}); }},
    {"add_scaled_identity", {{1}},
     [](const std::vector<Var>& v) {
       Tensor k({3, 3}, {0, 1, 0, 1, 0, 1, 0, 1, 0});
       Var attn = SoftmaxRows(AddScaledIdentity(k, v[0]));
       util::Rng rng(12);
       static const Tensor kW = Tensor::Randn({3, 3}, &rng);
       return Sum(MulConst(attn, kW));
     }},
    {"mean_rows", {{4, 3}},
     [](const std::vector<Var>& v) {
       Var m = MeanRows(v[0]);
       return Sum(Mul(m, m));
     }},
    {"composite_mlp", {{2, 4}, {4, 3}, {3}},
     [](const std::vector<Var>& v) {
       Var h = Relu(AddRowBroadcast(MatMul(v[0], v[1]), v[2]));
       return Mean(Mul(h, h));
     }},
    {"composite_attention", {{2, 4}, {3, 4}},
     [](const std::vector<Var>& v) {
       Var scores = Scale(MatMul(v[0], Transpose(v[1])), 0.5f);
       Var attn = SoftmaxRows(scores);
       return Sum(MatMul(attn, v[1]));
     }},
};

INSTANTIATE_TEST_SUITE_P(
    AllOps, GradCheckTest, ::testing::ValuesIn(kCases),
    [](const ::testing::TestParamInfo<GradCase>& info) {
      return std::string(info.param.name);
    });

}  // namespace
}  // namespace bootleg::tensor
