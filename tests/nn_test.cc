#include <cmath>
#include <cstring>
#include <filesystem>

#include <gtest/gtest.h>

#include "nn/attention.h"
#include "nn/embedding.h"
#include "nn/layers.h"
#include "nn/optimizer.h"
#include "nn/param_store.h"
#include "tensor/gradcheck.h"

namespace bootleg::nn {
namespace {

using tensor::Tensor;
using tensor::Var;

TEST(ParamStoreTest, CreateAndGet) {
  ParameterStore store;
  Var p = store.CreateParam("w", Tensor::FromVector({1, 2}));
  EXPECT_TRUE(p.requires_grad());
  EXPECT_EQ(store.GetParam("w").value().at(1), 2.0f);
  EXPECT_TRUE(store.HasParam("w"));
  EXPECT_FALSE(store.HasParam("nope"));
}

TEST(ParamStoreTest, ParamCounts) {
  ParameterStore store;
  util::Rng rng(1);
  store.CreateParam("a", Tensor({2, 3}));
  store.CreateParam("b", Tensor({5}));
  store.CreateEmbedding("e", 10, 4, &rng);
  EXPECT_EQ(store.DenseParamCount(), 11);
  EXPECT_EQ(store.EmbeddingParamCount(), 40);
}

TEST(ParamStoreTest, FreezeByPrefix) {
  ParameterStore store;
  store.CreateParam("encoder.w", Tensor({2}));
  store.CreateParam("head.w", Tensor({2}));
  store.Freeze("encoder");
  EXPECT_TRUE(store.IsFrozen("encoder.w"));
  EXPECT_FALSE(store.IsFrozen("head.w"));
}

TEST(ParamStoreTest, SaveLoadRoundTrip) {
  const std::string path =
      (std::filesystem::temp_directory_path() / "store_test.ckpt").string();
  util::Rng rng(2);
  ParameterStore a;
  a.CreateParam("w", Tensor::Randn({3, 3}, &rng));
  Embedding* ea = a.CreateEmbedding("e", 5, 2, &rng);
  ASSERT_TRUE(a.Save(path).ok());

  util::Rng rng2(99);  // different init
  ParameterStore b;
  b.CreateParam("w", Tensor::Randn({3, 3}, &rng2));
  Embedding* eb = b.CreateEmbedding("e", 5, 2, &rng2);
  ASSERT_TRUE(b.Load(path).ok());
  for (int64_t i = 0; i < 9; ++i) {
    EXPECT_EQ(a.GetParam("w").value().at(i), b.GetParam("w").value().at(i));
  }
  for (int64_t i = 0; i < 10; ++i) {
    EXPECT_EQ(ea->table().at(i), eb->table().at(i));
  }
  std::filesystem::remove(path);
}

TEST(ParamStoreTest, LoadRejectsShapeMismatch) {
  const std::string path =
      (std::filesystem::temp_directory_path() / "store_mismatch.ckpt").string();
  ParameterStore a;
  a.CreateParam("w", Tensor({2, 2}));
  ASSERT_TRUE(a.Save(path).ok());
  ParameterStore b;
  b.CreateParam("w", Tensor({3, 3}));
  EXPECT_FALSE(b.Load(path).ok());
  std::filesystem::remove(path);
}

TEST(EmbeddingTest, LookupValues) {
  util::Rng rng(3);
  Embedding emb("e", 4, 3, &rng);
  Var out = emb.Lookup({2, 0});
  EXPECT_EQ(out.value().size(0), 2);
  EXPECT_EQ(out.value().at(0, 1), emb.table().at(2, 1));
}

TEST(EmbeddingTest, SparseGradAccumulation) {
  util::Rng rng(4);
  Embedding emb("e", 6, 2, &rng);
  Var out = emb.Lookup({3, 3, 5});
  tensor::Backward(tensor::Sum(out));
  ASSERT_EQ(emb.sparse_grads().size(), 2u);
  EXPECT_EQ(emb.sparse_grads().at(3)[0], 2.0f);  // row 3 gathered twice
  EXPECT_EQ(emb.sparse_grads().at(5)[0], 1.0f);
  emb.ZeroGrad();
  EXPECT_TRUE(emb.sparse_grads().empty());
}

TEST(EmbeddingTest, InitConstantRows) {
  util::Rng rng(5);
  Embedding emb("e", 4, 3, &rng);
  emb.InitConstantRows(Tensor::FromVector({1, 2, 3}));
  for (int64_t r = 0; r < 4; ++r) {
    EXPECT_EQ(emb.table().at(r, 0), 1.0f);
    EXPECT_EQ(emb.table().at(r, 2), 3.0f);
  }
}

TEST(LinearTest, OutputShapeAndBias) {
  ParameterStore store;
  util::Rng rng(6);
  Linear linear(&store, "l", 3, 2, &rng);
  Var x = Var::Constant(Tensor({4, 3}));
  Var y = linear.Forward(x);
  EXPECT_EQ(y.value().size(0), 4);
  EXPECT_EQ(y.value().size(1), 2);
  // With zero input, the output equals the (zero-initialized) bias.
  EXPECT_EQ(y.value().at(0, 0), 0.0f);
}

TEST(LayerNormTest, NormalizesRows) {
  ParameterStore store;
  LayerNormLayer ln(&store, "ln", 4);
  util::Rng rng(7);
  Var x = Var::Constant(Tensor::Randn({3, 4}, &rng, 5.0f));
  Var y = ln.Forward(x);
  for (int64_t i = 0; i < 3; ++i) {
    double mean = 0.0, var = 0.0;
    for (int64_t j = 0; j < 4; ++j) mean += y.value().at(i, j);
    mean /= 4;
    for (int64_t j = 0; j < 4; ++j) {
      var += std::pow(y.value().at(i, j) - mean, 2);
    }
    EXPECT_NEAR(mean, 0.0, 1e-4);
    EXPECT_NEAR(var / 4, 1.0, 1e-2);
  }
}

TEST(DropoutTest, IdentityAtEval) {
  Dropout dropout(0.5f);
  util::Rng rng(8);
  Var x = Var::Constant(Tensor::Randn({5, 5}, &rng));
  Var y = dropout.Apply(x, &rng, /*train=*/false);
  for (int64_t i = 0; i < x.value().numel(); ++i) {
    EXPECT_EQ(x.value().at(i), y.value().at(i));
  }
}

TEST(DropoutTest, MasksAndRescalesAtTrain) {
  Dropout dropout(0.5f);
  util::Rng rng(9);
  Var x = Var::Constant(Tensor::Ones({100, 10}));
  Var y = dropout.Apply(x, &rng, /*train=*/true);
  int64_t zeros = 0;
  for (int64_t i = 0; i < y.value().numel(); ++i) {
    const float v = y.value().at(i);
    EXPECT_TRUE(v == 0.0f || std::abs(v - 2.0f) < 1e-6f);
    if (v == 0.0f) ++zeros;
  }
  // Roughly half masked.
  EXPECT_GT(zeros, 300);
  EXPECT_LT(zeros, 700);
}

TEST(MlpTest, ShapesAcrossDepths) {
  ParameterStore store;
  util::Rng rng(10);
  Mlp mlp(&store, "mlp", {6, 8, 4, 2}, &rng);
  Var x = Var::Constant(Tensor::Randn({3, 6}, &rng));
  Var y = mlp.Forward(x, &rng, /*train=*/false);
  EXPECT_EQ(y.value().size(1), 2);
}

TEST(AttentionTest, MhaOutputShape) {
  ParameterStore store;
  util::Rng rng(11);
  MultiHeadAttention mha(&store, "mha", 8, 2, &rng);
  Var q = Var::Constant(Tensor::Randn({3, 8}, &rng));
  Var k = Var::Constant(Tensor::Randn({5, 8}, &rng));
  Var out = mha.Attend(q, k, {{0, 3, 0, 5}});
  EXPECT_EQ(out.value().size(0), 3);
  EXPECT_EQ(out.value().size(1), 8);
}

TEST(AttentionTest, BlockPreservesShape) {
  ParameterStore store;
  util::Rng rng(12);
  AttentionBlock block(&store, "b", 8, 2, 16, &rng);
  Var x = Var::Constant(Tensor::Randn({4, 8}, &rng));
  Var out = block.Forward(x, x, {{0, 4, 0, 4}}, &rng, /*train=*/false);
  EXPECT_EQ(out.value().size(0), 4);
  EXPECT_EQ(out.value().size(1), 8);
  EXPECT_TRUE(tensor::AllFinite(out.value()));
}

TEST(AttentionTest, AdditiveAttentionPoolsToSingleRow) {
  ParameterStore store;
  util::Rng rng(13);
  AdditiveAttention pool(&store, "p", 4, 8, &rng);
  Var items = Var::Constant(Tensor::Randn({5, 4}, &rng));
  Var out = pool.Pool(items);
  EXPECT_EQ(out.value().size(0), 1);
  EXPECT_EQ(out.value().size(1), 4);
}

TEST(AttentionTest, AdditiveAttentionOfSingleItemIsIdentity) {
  ParameterStore store;
  util::Rng rng(14);
  AdditiveAttention pool(&store, "p", 4, 8, &rng);
  Tensor item = Tensor::Randn({1, 4}, &rng);
  Var out = pool.Pool(Var::Constant(item));
  for (int64_t j = 0; j < 4; ++j) {
    EXPECT_NEAR(out.value().at(0, j), item.at(0, j), 1e-5f);
  }
}

TEST(AttentionTest, GradientsFlowThroughBlock) {
  ParameterStore store;
  util::Rng rng(15);
  AttentionBlock block(&store, "b", 8, 2, 16, &rng);
  Var x = Var::Leaf(Tensor::Randn({3, 8}, &rng), true);
  tensor::Backward(
      tensor::Sum(block.Forward(x, x, {{0, 3, 0, 3}}, &rng, /*train=*/false)));
  EXPECT_FALSE(x.grad().empty());
  EXPECT_GT(tensor::Norm(x.grad()), 0.0f);
}

/// Three unequal segments tiling 6 query rows, over 8 key rows (cross) or
/// over the query rows themselves (self).
const std::vector<AttentionSegment> kCrossSegments = {
    {0, 2, 0, 3}, {2, 3, 3, 1}, {5, 1, 4, 4}};
const std::vector<AttentionSegment> kSelfSegments = {
    {0, 2, 0, 2}, {2, 3, 2, 3}, {5, 1, 5, 1}};

TEST(SegmentAttentionTest, GradientsMatchFiniteDifferences) {
  for (const bool self : {false, true}) {
    ParameterStore store;
    util::Rng rng(31);
    MultiHeadAttention mha(&store, "mha", 8, 2, &rng);
    const std::vector<AttentionSegment>& segments =
        self ? kSelfSegments : kCrossSegments;
    std::vector<Var> leaves = {Var::Leaf(Tensor::Randn({6, 8}, &rng), true),
                               Var::Leaf(Tensor::Randn({8, 8}, &rng), true),
                               store.GetParam("mha.wq.weight"),
                               store.GetParam("mha.wk.weight")};
    // Weights every output element differently, so no gradient cancels.
    const Tensor weights = Tensor::Randn({6, 8}, &rng);
    const auto loss = [&](const std::vector<Var>& v) {
      const Var& keys = self ? v[0] : v[1];
      return tensor::Sum(
          tensor::MulConst(mha.Attend(v[0], keys, segments), weights));
    };
    const tensor::GradCheckResult result =
        tensor::CheckGradients(loss, &leaves);
    EXPECT_TRUE(result.ok) << (self ? "self" : "cross")
                           << ": max_rel_error " << result.max_rel_error;
  }
}

TEST(SegmentAttentionTest, EachSegmentEqualsAttendingItAlone) {
  for (const bool self : {false, true}) {
    ParameterStore store;
    util::Rng rng(32);
    MultiHeadAttention mha(&store, "mha", 8, 2, &rng);
    const std::vector<AttentionSegment>& segments =
        self ? kSelfSegments : kCrossSegments;
    const Tensor queries = Tensor::Randn({6, 8}, &rng);
    const Tensor keys = self ? queries : Tensor::Randn({8, 8}, &rng);
    const Tensor taped =
        mha.Attend(Var::Constant(queries), Var::Constant(keys), segments)
            .value();
    const Tensor values = mha.Attend(queries, keys, segments);
    ASSERT_TRUE(taped.SameShape(values));
    EXPECT_EQ(std::memcmp(taped.data(), values.data(),
                          static_cast<size_t>(taped.numel()) * sizeof(float)),
              0)
        << "the Var and Tensor forms differ";
    for (const AttentionSegment& seg : segments) {
      const Tensor alone =
          mha.Attend(Var::Constant(tensor::SliceRows(queries, seg.q_offset,
                                                     seg.q_rows)),
                     Var::Constant(tensor::SliceRows(keys, seg.k_offset,
                                                     seg.k_rows)),
                     {{0, seg.q_rows, 0, seg.k_rows}})
              .value();
      EXPECT_EQ(std::memcmp(alone.data(), taped.data() + seg.q_offset * 8,
                            static_cast<size_t>(alone.numel()) * sizeof(float)),
                0)
          << (self ? "self" : "cross") << " segment at row " << seg.q_offset;
    }
  }
}

TEST(PositionalTest, SinusoidalTableProperties) {
  Tensor table = SinusoidalPositionTable(16, 8);
  EXPECT_EQ(table.size(0), 16);
  // Position 0: sin(0)=0 on even dims, cos(0)=1 on odd dims.
  EXPECT_EQ(table.at(0, 0), 0.0f);
  EXPECT_EQ(table.at(0, 1), 1.0f);
  // Distinct positions differ.
  bool differs = false;
  for (int64_t j = 0; j < 8; ++j) {
    if (table.at(1, j) != table.at(2, j)) differs = true;
  }
  EXPECT_TRUE(differs);
}

TEST(OptimizerTest, SgdFitsLinearRegression) {
  ParameterStore store;
  util::Rng rng(16);
  Var w = store.CreateParam("w", Tensor::Randn({2, 1}, &rng, 0.1f));
  Tensor x({8, 2}, {1, 0, 0, 1, 1, 1, 2, 1, 1, 2, 3, 0, 0, 3, 2, 2});
  // Target: y = 2*x0 - x1.
  Tensor target({8, 1});
  for (int64_t i = 0; i < 8; ++i) {
    target.at(i, 0) = 2 * x.at(i, 0) - x.at(i, 1);
  }
  Sgd sgd(&store, 0.05f);
  for (int step = 0; step < 300; ++step) {
    Var pred = tensor::MatMul(Var::Constant(x), w);
    Var diff = tensor::Sub(pred, Var::Constant(target));
    tensor::Backward(tensor::Mean(tensor::Mul(diff, diff)));
    sgd.Step();
  }
  EXPECT_NEAR(w.value().at(0, 0), 2.0f, 0.05f);
  EXPECT_NEAR(w.value().at(1, 0), -1.0f, 0.05f);
}

TEST(OptimizerTest, AdamFitsLinearRegression) {
  ParameterStore store;
  util::Rng rng(17);
  Var w = store.CreateParam("w", Tensor::Randn({2, 1}, &rng, 0.1f));
  Tensor x({4, 2}, {1, 0, 0, 1, 1, 1, 2, 1});
  Tensor target({4, 1}, {3, -1, 2, 5});  // y = 3*x0 - x1
  Adam::Options options;
  options.lr = 0.05f;
  Adam adam(&store, options);
  for (int step = 0; step < 500; ++step) {
    Var pred = tensor::MatMul(Var::Constant(x), w);
    Var diff = tensor::Sub(pred, Var::Constant(target));
    tensor::Backward(tensor::Mean(tensor::Mul(diff, diff)));
    adam.Step();
  }
  EXPECT_NEAR(w.value().at(0, 0), 3.0f, 0.1f);
  EXPECT_NEAR(w.value().at(1, 0), -1.0f, 0.1f);
}

TEST(OptimizerTest, AdamUpdatesOnlyTouchedEmbeddingRows) {
  ParameterStore store;
  util::Rng rng(18);
  Embedding* emb = store.CreateEmbedding("e", 5, 2, &rng);
  const Tensor before = emb->table();
  Adam adam(&store, {});
  Var out = emb->Lookup({1});
  tensor::Backward(tensor::Sum(out));
  adam.Step();
  for (int64_t r = 0; r < 5; ++r) {
    for (int64_t c = 0; c < 2; ++c) {
      if (r == 1) {
        EXPECT_NE(emb->table().at(r, c), before.at(r, c));
      } else {
        EXPECT_EQ(emb->table().at(r, c), before.at(r, c));
      }
    }
  }
}

TEST(OptimizerTest, FrozenParamsAreNotUpdated) {
  ParameterStore store;
  util::Rng rng(19);
  Var frozen = store.CreateParam("encoder.w", Tensor::Randn({2}, &rng));
  Var live = store.CreateParam("head.w", Tensor::Randn({2}, &rng));
  store.Freeze("encoder");
  const float frozen_before = frozen.value().at(0);
  Adam adam(&store, {});
  tensor::Backward(tensor::Sum(tensor::Mul(tensor::Add(frozen, live), live)));
  adam.Step();
  EXPECT_EQ(frozen.value().at(0), frozen_before);
}

TEST(OptimizerTest, GradientClippingBoundsUpdateScale) {
  ParameterStore store;
  Var w = store.CreateParam("w", Tensor::FromVector({0.0f}));
  Adam::Options options;
  options.clip_norm = 1.0f;
  options.lr = 1.0f;
  Adam adam(&store, options);
  // Enormous gradient; after clipping the Adam update is still ≈ lr.
  w.mutable_grad().at(0) = 1e6f;
  adam.Step();
  EXPECT_LT(std::abs(w.value().at(0)), 1.5f);
}

/// Parameterized sweep: MHA shape invariance over head counts and sizes.
class MhaShapeTest
    : public ::testing::TestWithParam<std::tuple<int64_t, int64_t, int64_t>> {};

TEST_P(MhaShapeTest, OutputMatchesQueryShape) {
  auto [hidden, heads, rows] = GetParam();
  ParameterStore store;
  util::Rng rng(20);
  MultiHeadAttention mha(&store, "mha", hidden, heads, &rng);
  Var q = Var::Constant(Tensor::Randn({rows, hidden}, &rng));
  Var k = Var::Constant(Tensor::Randn({7, hidden}, &rng));
  Var out = mha.Attend(q, k, {{0, rows, 0, 7}});
  EXPECT_EQ(out.value().size(0), rows);
  EXPECT_EQ(out.value().size(1), hidden);
  EXPECT_TRUE(tensor::AllFinite(out.value()));
}

INSTANTIATE_TEST_SUITE_P(Shapes, MhaShapeTest,
                         ::testing::Values(std::make_tuple(8, 1, 1),
                                           std::make_tuple(8, 2, 3),
                                           std::make_tuple(16, 4, 5),
                                           std::make_tuple(32, 8, 2)));

}  // namespace
}  // namespace bootleg::nn
