#include "tensor/tensor.h"

#include <malloc.h>

#include <cmath>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "tensor/storage.h"

#if defined(__SANITIZE_ADDRESS__)
#include <sanitizer/lsan_interface.h>
#endif

namespace bootleg::tensor {
namespace {

TEST(TensorTest, ZeroInitialized) {
  Tensor t({2, 3});
  EXPECT_EQ(t.numel(), 6);
  for (int64_t i = 0; i < t.numel(); ++i) EXPECT_EQ(t.at(i), 0.0f);
}

TEST(TensorTest, ShapeAccessors) {
  Tensor t({4, 5});
  EXPECT_EQ(t.dim(), 2);
  EXPECT_EQ(t.size(0), 4);
  EXPECT_EQ(t.size(1), 5);
  EXPECT_FALSE(t.empty());
  EXPECT_TRUE(Tensor().empty());
}

TEST(TensorTest, TwoDimensionalIndexingIsRowMajor) {
  Tensor t({2, 3});
  t.at(1, 2) = 7.0f;
  EXPECT_EQ(t.at(5), 7.0f);
}

TEST(TensorTest, FullAndOnes) {
  Tensor t = Tensor::Full({3}, 2.5f);
  EXPECT_EQ(t.at(2), 2.5f);
  EXPECT_EQ(Tensor::Ones({2}).Sum(), 2.0f);
}

TEST(TensorTest, EyeIsIdentity) {
  Tensor eye = Tensor::Eye(3);
  for (int64_t i = 0; i < 3; ++i) {
    for (int64_t j = 0; j < 3; ++j) {
      EXPECT_EQ(eye.at(i, j), i == j ? 1.0f : 0.0f);
    }
  }
}

TEST(TensorTest, FromVector) {
  Tensor t = Tensor::FromVector({1.0f, 2.0f, 3.0f});
  EXPECT_EQ(t.dim(), 1);
  EXPECT_EQ(t.at(1), 2.0f);
}

TEST(TensorTest, RandnIsDeterministicGivenSeed) {
  util::Rng a(5), b(5);
  Tensor ta = Tensor::Randn({8}, &a);
  Tensor tb = Tensor::Randn({8}, &b);
  for (int64_t i = 0; i < 8; ++i) EXPECT_EQ(ta.at(i), tb.at(i));
}

TEST(TensorTest, ReshapePreservesData) {
  Tensor t = Tensor::FromVector({1, 2, 3, 4, 5, 6});
  Tensor r = t.Reshape({2, 3});
  EXPECT_EQ(r.at(1, 0), 4.0f);
}

TEST(TensorTest, AddAxpyScale) {
  Tensor a = Tensor::FromVector({1, 2});
  Tensor b = Tensor::FromVector({3, 4});
  a.Add(b);
  EXPECT_EQ(a.at(0), 4.0f);
  a.Axpy(2.0f, b);
  EXPECT_EQ(a.at(1), 14.0f);
  a.Scale(0.5f);
  EXPECT_EQ(a.at(0), 5.0f);
}

TEST(TensorTest, MatMulKnownValues) {
  Tensor a({2, 2}, {1, 2, 3, 4});
  Tensor b({2, 2}, {5, 6, 7, 8});
  Tensor c = MatMul(a, b);
  EXPECT_EQ(c.at(0, 0), 19.0f);
  EXPECT_EQ(c.at(0, 1), 22.0f);
  EXPECT_EQ(c.at(1, 0), 43.0f);
  EXPECT_EQ(c.at(1, 1), 50.0f);
}

TEST(TensorTest, MatMulRectangular) {
  Tensor a({1, 3}, {1, 2, 3});
  Tensor b({3, 2}, {1, 0, 0, 1, 1, 1});
  Tensor c = MatMul(a, b);
  EXPECT_EQ(c.size(0), 1);
  EXPECT_EQ(c.size(1), 2);
  EXPECT_EQ(c.at(0, 0), 4.0f);
  EXPECT_EQ(c.at(0, 1), 5.0f);
}

TEST(TensorTest, FusedTransposedMatMulsAgreeWithExplicit) {
  util::Rng rng(3);
  Tensor a = Tensor::Randn({4, 6}, &rng);
  Tensor b = Tensor::Randn({5, 6}, &rng);
  Tensor via_fused = MatMulTransposedB(a, b);
  Tensor via_explicit = MatMul(a, Transpose(b));
  ASSERT_TRUE(via_fused.SameShape(via_explicit));
  for (int64_t i = 0; i < via_fused.numel(); ++i) {
    EXPECT_NEAR(via_fused.at(i), via_explicit.at(i), 1e-5f);
  }
  Tensor c = Tensor::Randn({6, 3}, &rng);
  Tensor ta_fused = MatMulTransposedA(a, MatMul(a, c));
  Tensor ta_explicit = MatMul(Transpose(a), MatMul(a, c));
  for (int64_t i = 0; i < ta_fused.numel(); ++i) {
    EXPECT_NEAR(ta_fused.at(i), ta_explicit.at(i), 1e-4f);
  }
}

TEST(TensorTest, TransposeRoundTrip) {
  util::Rng rng(4);
  Tensor a = Tensor::Randn({3, 5}, &rng);
  Tensor tt = Transpose(Transpose(a));
  for (int64_t i = 0; i < a.numel(); ++i) EXPECT_EQ(a.at(i), tt.at(i));
}

TEST(TensorTest, SoftmaxRowsSumToOne) {
  util::Rng rng(5);
  Tensor a = Tensor::Randn({4, 7}, &rng, 3.0f);
  Tensor s = SoftmaxRows(a);
  for (int64_t i = 0; i < 4; ++i) {
    float total = 0.0f;
    for (int64_t j = 0; j < 7; ++j) {
      EXPECT_GT(s.at(i, j), 0.0f);
      total += s.at(i, j);
    }
    EXPECT_NEAR(total, 1.0f, 1e-5f);
  }
}

TEST(TensorTest, SoftmaxIsShiftInvariant) {
  Tensor a({1, 3}, {1, 2, 3});
  Tensor b({1, 3}, {101, 102, 103});
  Tensor sa = SoftmaxRows(a), sb = SoftmaxRows(b);
  for (int64_t j = 0; j < 3; ++j) EXPECT_NEAR(sa.at(0, j), sb.at(0, j), 1e-6f);
}

TEST(TensorTest, LogSoftmaxMatchesLogOfSoftmax) {
  util::Rng rng(6);
  Tensor a = Tensor::Randn({3, 5}, &rng, 2.0f);
  Tensor ls = LogSoftmaxRows(a);
  Tensor s = SoftmaxRows(a);
  for (int64_t i = 0; i < a.numel(); ++i) {
    EXPECT_NEAR(ls.at(i), std::log(s.at(i)), 1e-5f);
  }
}

TEST(TensorTest, SoftmaxHandlesLargeValues) {
  Tensor a({1, 2}, {1000.0f, 1001.0f});
  Tensor s = SoftmaxRows(a);
  EXPECT_TRUE(AllFinite(s));
  EXPECT_GT(s.at(0, 1), s.at(0, 0));
}

TEST(TensorTest, ReluTanhGelu) {
  Tensor a = Tensor::FromVector({-1.0f, 0.0f, 2.0f});
  Tensor r = Relu(a);
  EXPECT_EQ(r.at(0), 0.0f);
  EXPECT_EQ(r.at(2), 2.0f);
  Tensor t = Tanh(a);
  EXPECT_NEAR(t.at(0), std::tanh(-1.0f), 1e-6f);
  Tensor g = Gelu(a);
  EXPECT_NEAR(g.at(1), 0.0f, 1e-6f);
  EXPECT_GT(g.at(2), 1.9f);  // GELU(2) ≈ 1.954
  EXPECT_LT(g.at(0), 0.0f);  // GELU(-1) ≈ -0.159
}

TEST(TensorTest, MaxElementwise) {
  Tensor a = Tensor::FromVector({1, 5, 3});
  Tensor b = Tensor::FromVector({2, 4, 3});
  Tensor m = Max(a, b);
  EXPECT_EQ(m.at(0), 2.0f);
  EXPECT_EQ(m.at(1), 5.0f);
  EXPECT_EQ(m.at(2), 3.0f);
}

TEST(TensorTest, ConcatAndSliceColsRoundTrip) {
  util::Rng rng(7);
  Tensor a = Tensor::Randn({3, 2}, &rng);
  Tensor b = Tensor::Randn({3, 4}, &rng);
  Tensor c = ConcatCols({a, b});
  EXPECT_EQ(c.size(1), 6);
  Tensor a2 = SliceCols(c, 0, 2);
  Tensor b2 = SliceCols(c, 2, 4);
  for (int64_t i = 0; i < a.numel(); ++i) EXPECT_EQ(a.at(i), a2.at(i));
  for (int64_t i = 0; i < b.numel(); ++i) EXPECT_EQ(b.at(i), b2.at(i));
}

TEST(TensorTest, ConcatAndSliceRowsRoundTrip) {
  util::Rng rng(8);
  Tensor a = Tensor::Randn({2, 3}, &rng);
  Tensor b = Tensor::Randn({4, 3}, &rng);
  Tensor c = ConcatRows({a, b});
  EXPECT_EQ(c.size(0), 6);
  Tensor b2 = SliceRows(c, 2, 4);
  for (int64_t i = 0; i < b.numel(); ++i) EXPECT_EQ(b.at(i), b2.at(i));
}

TEST(TensorTest, SliceZeroLength) {
  Tensor a({3, 3});
  Tensor s = SliceRows(a, 1, 0);
  EXPECT_EQ(s.size(0), 0);
  EXPECT_EQ(s.numel(), 0);
}

TEST(TensorTest, GatherRows) {
  Tensor table({3, 2}, {1, 2, 3, 4, 5, 6});
  Tensor g = GatherRows(table, {2, 0, 2});
  EXPECT_EQ(g.size(0), 3);
  EXPECT_EQ(g.at(0, 0), 5.0f);
  EXPECT_EQ(g.at(1, 1), 2.0f);
  EXPECT_EQ(g.at(2, 1), 6.0f);
}

TEST(TensorTest, AddRowBroadcast) {
  Tensor a({2, 2}, {1, 2, 3, 4});
  Tensor bias = Tensor::FromVector({10, 20});
  Tensor c = AddRowBroadcast(a, bias);
  EXPECT_EQ(c.at(0, 0), 11.0f);
  EXPECT_EQ(c.at(1, 1), 24.0f);
}

TEST(TensorTest, ArgMaxAndNorm) {
  Tensor a = Tensor::FromVector({1, 9, 3});
  EXPECT_EQ(ArgMax(a), 1);
  Tensor b = Tensor::FromVector({3, 4});
  EXPECT_NEAR(Norm(b), 5.0f, 1e-6f);
}

TEST(TensorTest, AllFiniteDetectsNan) {
  Tensor a = Tensor::FromVector({1.0f, 2.0f});
  EXPECT_TRUE(AllFinite(a));
  a.at(0) = std::nanf("");
  EXPECT_FALSE(AllFinite(a));
}

/// Property sweep: matmul associativity-ish checks across shapes.
class MatMulShapeTest
    : public ::testing::TestWithParam<std::tuple<int64_t, int64_t, int64_t>> {};

TEST_P(MatMulShapeTest, DistributesOverAddition) {
  auto [m, k, n] = GetParam();
  util::Rng rng(11);
  Tensor a = Tensor::Randn({m, k}, &rng);
  Tensor b1 = Tensor::Randn({k, n}, &rng);
  Tensor b2 = Tensor::Randn({k, n}, &rng);
  Tensor lhs = MatMul(a, Add(b1, b2));
  Tensor rhs = Add(MatMul(a, b1), MatMul(a, b2));
  ASSERT_TRUE(lhs.SameShape(rhs));
  for (int64_t i = 0; i < lhs.numel(); ++i) {
    EXPECT_NEAR(lhs.at(i), rhs.at(i), 1e-4f);
  }
}

TEST_P(MatMulShapeTest, IdentityIsNeutral) {
  auto [m, k, n] = GetParam();
  (void)n;
  util::Rng rng(12);
  Tensor a = Tensor::Randn({m, k}, &rng);
  Tensor c = MatMul(a, Tensor::Eye(k));
  for (int64_t i = 0; i < a.numel(); ++i) EXPECT_NEAR(a.at(i), c.at(i), 1e-6f);
}

INSTANTIATE_TEST_SUITE_P(Shapes, MatMulShapeTest,
                         ::testing::Values(std::make_tuple(1, 1, 1),
                                           std::make_tuple(2, 3, 4),
                                           std::make_tuple(5, 1, 7),
                                           std::make_tuple(8, 8, 8),
                                           std::make_tuple(1, 16, 2)));

// --- Recycled storage ----------------------------------------------------
// Each test runs its allocations on a fresh thread, whose cache starts empty.

TEST(TensorStorageTest, BurstOfFreesStaysUnderTheThreadCap) {
  std::thread([] {
    std::vector<Tensor> live;
    int64_t bytes = 0;
    for (int i = 0; bytes < 3 * storage::kThreadCacheBytes; ++i) {
      const int64_t numel = storage::kMinClassFloats << (i % 10);
      live.emplace_back(Shape{numel});
      bytes += numel * static_cast<int64_t>(sizeof(float));
    }
    EXPECT_EQ(storage::ThreadCachedBytes(), 0);
    while (!live.empty()) {
      live.pop_back();
      ASSERT_LE(storage::ThreadCachedBytes(), storage::kThreadCacheBytes);
    }
    EXPECT_GT(storage::ThreadCachedBytes(), storage::kThreadCacheBytes / 2);
    // Parked blocks serve new tensors, zero-filled like fresh ones.
    const int64_t parked = storage::ThreadCachedBytes();
    Tensor reused({32, 32});
    EXPECT_LT(storage::ThreadCachedBytes(), parked);
    for (int64_t i = 0; i < reused.numel(); ++i) ASSERT_EQ(reused.at(i), 0.0f);
  }).join();
}

TEST(TensorStorageTest, TensorBuiltOnOneThreadIsDestroyedOnAnother) {
  std::vector<Tensor> made;
  std::thread([&made] {
    for (int i = 0; i < 64; ++i) {
      made.push_back(Tensor::Full({i + 1, 8}, static_cast<float>(i)));
    }
  }).join();
  std::thread([&made] {
    for (size_t i = 0; i < made.size(); ++i) {
      ASSERT_EQ(made[i].at(static_cast<int64_t>(i), 7), static_cast<float>(i));
    }
    made.clear();  // the blocks join this thread's cache
    EXPECT_GT(storage::ThreadCachedBytes(), 0);
  }).join();
}

TEST(TensorStorageTest, ThreadCacheIsReleasedAtThreadExit) {
  const size_t in_use_before = mallinfo2().uordblks;
  int64_t parked = 0;
  std::thread([&parked] {
    {
      std::vector<Tensor> tensors;
      for (int i = 0; i < 256; ++i) tensors.emplace_back(Shape{1024});
    }
    parked = storage::ThreadCachedBytes();
  }).join();
  EXPECT_EQ(parked, 256 * 1024 * static_cast<int64_t>(sizeof(float)));
#if defined(__SANITIZE_ADDRESS__)
  // Blocks still parked after the thread is gone would be unreachable.
  EXPECT_EQ(__lsan_do_recoverable_leak_check(), 0);
#elif !defined(__SANITIZE_THREAD__)
  const auto grown = static_cast<int64_t>(mallinfo2().uordblks) -
                     static_cast<int64_t>(in_use_before);
  EXPECT_LT(grown, parked / 4);
#endif
  (void)in_use_before;
}

/// A thread_local constructed before its thread's cache, so destroyed after
/// it: the block it frees then must go to the heap.
struct LateTensor {
  Tensor tensor;
  int64_t* parked_after_release = nullptr;

  LateTensor() = default;
  LateTensor(const LateTensor&) = delete;
  LateTensor& operator=(const LateTensor&) = delete;
  ~LateTensor() {
    tensor = Tensor();
    *parked_after_release = storage::ThreadCachedBytes();
  }
};

TEST(TensorStorageTest, BlockFreedAfterItsThreadCacheGoesToTheHeap) {
  int64_t parked_after_release = -1;
  std::thread([&parked_after_release] {
    thread_local LateTensor late;
    late.parked_after_release = &parked_after_release;
    late.tensor = Tensor({64});  // the first allocation creates the cache
  }).join();
  EXPECT_EQ(parked_after_release, 0);
}

// Destroyed by the static destructors at exit, after the main thread's
// cache: its block goes to the heap (under ASan, anything else reports).
Tensor g_static_tensor;

TEST(TensorStorageTest, StaticTensorOutlivesTheMainThreadCache) {
  g_static_tensor = Tensor::Full({256}, 2.0f);
  EXPECT_EQ(g_static_tensor.Sum(), 512.0f);
}

#if defined(__SANITIZE_ADDRESS__)
TEST(TensorStorageDeathTest, ReadThroughAFreedTensorReports) {
  ::testing::GTEST_FLAG(death_test_style) = "threadsafe";
  EXPECT_DEATH(
      {
        const float* stale = nullptr;
        {
          Tensor t({64});
          stale = t.data();
        }
        // The block is parked in this thread's cache, poisoned.
        volatile float v = stale[3];
        (void)v;
      },
      "use-after-poison");
}
#endif

}  // namespace
}  // namespace bootleg::tensor
