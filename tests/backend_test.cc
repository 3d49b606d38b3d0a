// The one float kernel path: tensor::MatMul, MatMulTransposedA and
// MatMulTransposedB run the SIMD tiles of backend/simd_kernels.h wherever
// the probe selects them, and must then equal the portable loops bit for bit
// on every tile branch and at every thread count. The probe must select the
// tiles wherever they can run, so a change that silently loses them fails.

#include <cstring>

#include <gtest/gtest.h>

#include "backend/simd_primitives.h"
#include "tensor/tensor.h"
#include "util/rng.h"
#include "util/thread_pool.h"

namespace bootleg {
namespace {

bool BitEqual(const tensor::Tensor& a, const tensor::Tensor& b) {
  return a.shape() == b.shape() &&
         std::memcmp(a.data(), b.data(),
                     sizeof(float) * static_cast<size_t>(a.numel())) == 0;
}

// Shape triples {m, k, n} covering every tile branch: 32-, 16- and 8-wide
// column blocks and scalar column tails, 8-, 6-, 4- and 1-row blocks, k
// tails, the k < 16 transposed-B branch that keeps the portable loop, and
// the n = 1 matvec the scorer uses. The last shape is large enough for the
// kernels to fan out over the pool, so the row partition is exercised too.
const int64_t kShapes[][3] = {
    {1, 16, 40},  {2, 5, 3},  {3, 33, 7},  {4, 64, 16},    {5, 67, 35},
    {6, 130, 24}, {9, 64, 1}, {8, 21, 56}, {13, 128, 128}, {130, 96, 200},
};

TEST(KernelPathTest, MatMulsBitIdenticalToPortableLoopsAcrossThreadCounts) {
  SCOPED_TRACE(tensor::SimdTilesActive() ? "SIMD tiles" : "portable loops");
  util::Rng rng(321);
  for (const int threads : {1, 4}) {
    util::ThreadPool::ResetGlobal(threads);
    for (const auto& shape : kShapes) {
      const int64_t m = shape[0], k = shape[1], n = shape[2];
      const tensor::Tensor a = tensor::Tensor::Randn({m, k}, &rng, 1.0f);
      const tensor::Tensor b = tensor::Tensor::Randn({k, n}, &rng, 1.0f);
      tensor::Tensor want({m, n});
      tensor::portable::MatMulRows(a.data(), b.data(), want.data(), 0, m, k,
                                   n);
      EXPECT_TRUE(BitEqual(tensor::MatMul(a, b), want))
          << "MatMul " << m << "x" << k << "x" << n << " threads=" << threads;

      const tensor::Tensor at = tensor::Tensor::Randn({k, m}, &rng, 1.0f);
      want = tensor::Tensor({m, n});
      tensor::portable::MatMulTARows(at.data(), b.data(), want.data(), 0, m, k,
                                     m, n);
      EXPECT_TRUE(BitEqual(tensor::MatMulTransposedA(at, b), want))
          << "MatMulTA " << m << "x" << k << "x" << n
          << " threads=" << threads;

      const tensor::Tensor bt = tensor::Tensor::Randn({n, k}, &rng, 1.0f);
      want = tensor::Tensor({m, n});
      tensor::portable::MatMulTBRows(a.data(), bt.data(), want.data(), 0, m, k,
                                     n);
      EXPECT_TRUE(BitEqual(tensor::MatMulTransposedB(a, bt), want))
          << "MatMulTB " << m << "x" << k << "x" << n
          << " threads=" << threads;
    }
  }
  util::ThreadPool::ResetGlobal(1);
}

TEST(KernelPathTest, ProbeSelectsTilesWhereverTheyCanRun) {
#ifdef BOOTLEG_SANITIZER_BUILD
  // Sanitizer builds compile at -O1, where the compiler does not contract the
  // portable loops' multiply-adds into FMA, so the probe rightly keeps them.
  GTEST_SKIP() << "sanitizer build: the tiles cannot match the loops";
#endif
  EXPECT_EQ(tensor::SimdTilesActive(), backend::CpuHasAvx2Fma());
}

}  // namespace
}  // namespace bootleg
