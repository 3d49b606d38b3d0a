// The one float kernel path: tensor::MatMul, MatMulTransposedA and
// MatMulTransposedB run the SIMD tiles of backend/simd_kernels.h wherever
// the probe selects them, and must then equal the portable loops bit for bit
// on every tile branch and at every thread count. The probe must select the
// tiles wherever they can run, so a change that silently loses them fails.
// tensor::Tanh, tensor::Gelu and the Gelu backward run the vector tanh of
// backend/tanh_kernels.h, which must equal the scalar fdlibm port bit for
// bit; on glibc 2.36 the port must equal the libm tanhf it replaced.

#include <bit>
#include <cmath>
#include <cstring>
#include <vector>

#include <gtest/gtest.h>

#include "backend/simd_primitives.h"
#include "backend/tanh_kernels.h"
#include "tensor/autograd.h"
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

// Shape triples {m, k, n} covering every tile branch: 64-, 32-, 16- and
// 8-wide column blocks and scalar column tails, 8-, 6-, 4-, 2- and 1-row
// blocks, k tails, the k < 16 transposed-B branch that keeps the portable
// loop, and the n = 1 matvec the scorer uses. The last shape is large enough
// for the kernels to fan out over the pool, so the row partition is
// exercised too.
const int64_t kShapes[][3] = {
    {1, 16, 40},  {2, 5, 3},     {3, 33, 7},   {4, 64, 16},
    {5, 67, 35},  {6, 130, 24},  {9, 64, 1},   {8, 21, 56},
    {7, 64, 128}, {3, 64, 80},   {2, 33, 48},  {13, 128, 128},
    {130, 96, 200},
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

// Equal bits, or both NaN: NaN payloads are not part of the contract.
bool SameFloat(float a, float b) {
  return std::bit_cast<uint32_t>(a) == std::bit_cast<uint32_t>(b) ||
         (std::isnan(a) && std::isnan(b));
}

// Inputs that reach every branch of the port, both signs of each: the tanh
// and expm1 thresholds and the expm1 reduction's k boundaries with their
// neighbouring floats, ±0, denormals, ±inf, NaNs, and a strided sweep of
// about 10^6 of the 2^32 bit patterns.
std::vector<float> TanhInputs() {
  std::vector<uint32_t> bits;
  auto around = [&bits](uint32_t center, uint32_t radius) {
    for (uint32_t d = 0; d <= 2 * radius; ++d) {
      bits.push_back(center - radius + d);
    }
  };
  // |x| at 2^-55, 1 and 22 (tanh), and at 2^-26, ln2/4 and 3·ln2/4, where
  // expm1's argument -2|x| crosses 2^-25, ln2/2 and 3·ln2/2.
  for (const uint32_t t : {0x24000000u, 0x3f800000u, 0x41b00000u, 0x32800000u,
                           0x3e317218u, 0x3f051592u}) {
    around(t, 16);
  }
  // Where expm1's k = int(u/ln2 ± 1/2) steps, for u = ±2|x|.
  for (int k = 1; k <= 64; ++k) {
    const float x = (static_cast<float>(k) - 0.5f) * 0.69314718f / 2.0f;
    around(std::bit_cast<uint32_t>(x), 64);
  }
  for (const uint32_t special :
       {0x00000000u, 0x00000001u, 0x00000002u, 0x003fffffu, 0x00400000u,
        0x007fffffu, 0x00800000u, 0x7f7fffffu, 0x7f800000u, 0x7f800001u,
        0x7fc00000u, 0x7fffffffu}) {
    bits.push_back(special);
  }
  for (uint64_t b = 12345; b < (uint64_t{1} << 32); b += 4099) {
    bits.push_back(static_cast<uint32_t>(b));
  }
  std::vector<float> xs;
  xs.reserve(2 * bits.size());
  for (const uint32_t b : bits) {
    xs.push_back(std::bit_cast<float>(b & 0x7fffffffu));
    xs.push_back(std::bit_cast<float>(b | 0x80000000u));
  }
  return xs;
}

// Gelu's inner step exactly as the kernels write it; no contraction applies.
float GeluInner(float v) {
  return 0.7978845608f * std::fmaf((0.044715f * v) * v, v, v);
}

TEST(TanhKernelTest, VectorKernelsEqualScalarPortBitForBit) {
  SCOPED_TRACE(backend::CpuHasAvx2Fma() ? "AVX2 kernels" : "scalar port");
  const std::vector<float> xs = TanhInputs();
  const int64_t n = static_cast<int64_t>(xs.size());
  for (const int threads : {1, 4}) {
    util::ThreadPool::ResetGlobal(threads);
    const tensor::Tensor x({n}, xs);
    const tensor::Tensor tanh = tensor::Tanh(x);
    const tensor::Tensor gelu = tensor::Gelu(x);
    const tensor::Var leaf = tensor::Var::Leaf(x, /*requires_grad=*/true);
    tensor::Backward(tensor::Sum(tensor::Gelu(leaf)));
    const tensor::Tensor& dgelu = leaf.grad();
    int64_t bad_tanh = 0, bad_gelu = 0, bad_dgelu = 0;
    for (int64_t i = 0; i < n; ++i) {
      const float v = xs[static_cast<size_t>(i)];
      const float t = backend::Tanh(GeluInner(v));
      bad_tanh += !SameFloat(tanh.at(i), backend::Tanh(v));
      bad_gelu += !SameFloat(gelu.at(i), (0.5f * v) * (1.0f + t));
      // The backward's own arithmetic around t, as autograd.cc writes it.
      constexpr float kC = 0.7978845608f;
      const float dinner = kC * (1.0f + 3.0f * 0.044715f * v * v);
      const float want =
          0.5f * (1.0f + t) + 0.5f * v * (1.0f - t * t) * dinner;
      bad_dgelu += !SameFloat(dgelu.at(i), want);
    }
    EXPECT_EQ(bad_tanh, 0) << "Tanh, threads=" << threads << ", n=" << n;
    EXPECT_EQ(bad_gelu, 0) << "Gelu, threads=" << threads;
    EXPECT_EQ(bad_dgelu, 0) << "Gelu backward, threads=" << threads;
  }
  util::ThreadPool::ResetGlobal(1);
}

TEST(TanhKernelTest, PortEqualsTheGlibcTanhfItReplaced) {
#if defined(__GLIBC__) && __GLIBC__ == 2 && __GLIBC_MINOR__ == 36
  const std::vector<float> xs = TanhInputs();
  int64_t bad = 0;
  float first = 0.0f;
  for (const float x : xs) {
    if (!SameFloat(backend::Tanh(x), std::tanh(x)) && bad++ == 0) first = x;
  }
  EXPECT_EQ(bad, 0) << "first at bits 0x" << std::hex
                    << std::bit_cast<uint32_t>(first);
#else
  GTEST_SKIP() << "the port replicates glibc 2.36's tanhf; this libm differs";
#endif
}

}  // namespace
}  // namespace bootleg
