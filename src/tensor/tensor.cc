#include "tensor/tensor.h"

#include <algorithm>
#include <cmath>
#include <cstring>
#include <sstream>
#include <utility>

#include "backend/simd_kernels.h"
#include "backend/simd_primitives.h"
#include "backend/tanh_kernels.h"
#include "tensor/storage.h"
#include "util/thread_pool.h"

namespace bootleg::tensor {

namespace {
int64_t NumelOf(const Shape& shape) {
  int64_t n = 1;
  for (int64_t d : shape) {
    BOOTLEG_CHECK_GE(d, 0);
    n *= d;
  }
  return n;
}

// --- Parallel kernel plumbing ------------------------------------------------
// Every kernel below partitions its output rows (or flat index range) onto
// the global pool. Each output element is computed by exactly one thread with
// a fixed, partition-independent accumulation order, so results are
// bit-identical at every thread count (see docs/ARCHITECTURE.md, "Execution
// model").

/// Rows of the B panel kept hot in cache while sweeping A rows.
constexpr int64_t kKTile = 64;

/// Minimum scalar ops worth shipping to another thread. A dispatch costs a
/// queue round-trip plus a wakeup (~10µs); chunks below ~250k scalar ops
/// lose more to that than they gain, so training-sized tensors stay serial
/// and only genuinely large kernels (inference batches, benchmarks) fan out.
constexpr int64_t kParallelWork = 1 << 18;

/// ParallelFor grain: rows per chunk so a chunk costs >= kParallelWork.
int64_t RowGrain(int64_t work_per_row) {
  return std::max<int64_t>(1, kParallelWork / std::max<int64_t>(1, work_per_row));
}

/// Runs fn(lo, hi) over [0, n): fans out to the global pool only when the
/// range is large enough to amortize dispatch; otherwise invokes the functor
/// directly, paying neither the std::function conversion (which heap-allocates
/// for capturing lambdas) nor a queue round-trip. Small tensors dominate call
/// counts here, so the serial path must be free.
template <typename F>
void Dispatch(int64_t n, int64_t grain, F&& fn) {
  util::ThreadPool* pool = util::ThreadPool::Global();
  if (pool->WouldParallelize(n, grain)) {
    pool->ParallelFor(0, n, grain, fn);
  } else if (n > 0) {
    fn(0, n);
  }
}

/// Dot products of MatMulTransposedB accumulate into this many lanes (see
/// portable::MatMulTBRows).
constexpr int64_t kTBLanes = 16;

}  // namespace

namespace portable {

/// k-tiled so each B panel is reused across the row block. Per output element
/// the k-accumulation order is ascending, matching MatMulReference on finite
/// data.
void MatMulRows(const float* pa, const float* pb, float* pc, int64_t i0,
                int64_t i1, int64_t k, int64_t n) {
  for (int64_t kk0 = 0; kk0 < k; kk0 += kKTile) {
    const int64_t kk1 = std::min(k, kk0 + kKTile);
    for (int64_t i = i0; i < i1; ++i) {
      const float* arow = pa + i * k;
      float* crow = pc + i * n;
      int64_t kk = kk0;
      // 4-way k-unroll: the four adds into crow[j] chain in the same
      // ascending order as four separate iterations (identical rounding),
      // but crow is loaded and stored once instead of four times.
      for (; kk + 4 <= kk1; kk += 4) {
        const float a0 = arow[kk], a1 = arow[kk + 1];
        const float a2 = arow[kk + 2], a3 = arow[kk + 3];
        const float* b0 = pb + kk * n;
        const float* b1 = b0 + n;
        const float* b2 = b1 + n;
        const float* b3 = b2 + n;
        for (int64_t j = 0; j < n; ++j) {
          crow[j] = (((crow[j] + a0 * b0[j]) + a1 * b1[j]) + a2 * b2[j]) +
                    a3 * b3[j];
        }
      }
      for (; kk < kk1; ++kk) {
        const float av = arow[kk];
        const float* brow = pb + kk * n;
        for (int64_t j = 0; j < n; ++j) crow[j] += av * brow[j];
      }
    }
  }
}

/// A plain dot-product loop is a serial FP dependency chain the compiler may
/// not vectorize (FP addition is not associative), so each dot product
/// accumulates into kTBLanes independent lanes — lane l sums terms
/// kk ≡ l (mod kTBLanes) — and folds the lanes in fixed index order. The order
/// depends only on k, never on the thread partition, so results stay
/// bit-identical at every thread count.
void MatMulTBRows(const float* pa, const float* pb, float* pc, int64_t i0,
                  int64_t i1, int64_t k, int64_t n) {
  if (k < kTBLanes) {
    // Short reductions (backward of vector-valued heads has k as small as 1):
    // every lane would be zero, so the fold is pure overhead. The branch
    // depends only on k, never on the thread partition.
    for (int64_t i = i0; i < i1; ++i) {
      const float* arow = pa + i * k;
      float* crow = pc + i * n;
      for (int64_t j = 0; j < n; ++j) {
        const float* brow = pb + j * k;
        float acc = 0.0f;
        for (int64_t kk = 0; kk < k; ++kk) acc += arow[kk] * brow[kk];
        crow[j] = acc;
      }
    }
    return;
  }
  for (int64_t i = i0; i < i1; ++i) {
    const float* arow = pa + i * k;
    float* crow = pc + i * n;
    for (int64_t j = 0; j < n; ++j) {
      const float* brow = pb + j * k;
      float lanes[kTBLanes] = {0.0f};
      int64_t kk = 0;
      for (; kk + kTBLanes <= k; kk += kTBLanes) {
        for (int64_t l = 0; l < kTBLanes; ++l) {
          lanes[l] += arow[kk + l] * brow[kk + l];
        }
      }
      float tail = 0.0f;
      for (; kk < k; ++kk) tail += arow[kk] * brow[kk];
      // Tree fold: fixed halving order (16→8→4→2→1) so the result depends
      // only on k, and the upper-half adds vectorize instead of forming a
      // 16-deep serial add chain per output element.
      for (int64_t l = 0; l < 8; ++l) lanes[l] += lanes[l + 8];
      for (int64_t l = 0; l < 4; ++l) lanes[l] += lanes[l + 4];
      lanes[0] += lanes[2];
      lanes[1] += lanes[3];
      crow[j] = (lanes[0] + lanes[1]) + tail;
    }
  }
}

/// The reduction axis walks A down a column (stride m), k-tiled so B panels
/// stay hot across the row block.
void MatMulTARows(const float* pa, const float* pb, float* pc, int64_t i0,
                  int64_t i1, int64_t k, int64_t m, int64_t n) {
  for (int64_t kk0 = 0; kk0 < k; kk0 += kKTile) {
    const int64_t kk1 = std::min(k, kk0 + kKTile);
    for (int64_t i = i0; i < i1; ++i) {
      float* crow = pc + i * n;
      int64_t kk = kk0;
      // Same 4-way unroll as MatMulRows: ascending adds, one crow
      // round-trip per four reduction steps.
      for (; kk + 4 <= kk1; kk += 4) {
        const float a0 = pa[kk * m + i], a1 = pa[(kk + 1) * m + i];
        const float a2 = pa[(kk + 2) * m + i], a3 = pa[(kk + 3) * m + i];
        const float* b0 = pb + kk * n;
        const float* b1 = b0 + n;
        const float* b2 = b1 + n;
        const float* b3 = b2 + n;
        for (int64_t j = 0; j < n; ++j) {
          crow[j] = (((crow[j] + a0 * b0[j]) + a1 * b1[j]) + a2 * b2[j]) +
                    a3 * b3[j];
        }
      }
      for (; kk < kk1; ++kk) {
        const float av = pa[kk * m + i];
        const float* brow = pb + kk * n;
        for (int64_t j = 0; j < n; ++j) crow[j] += av * brow[j];
      }
    }
  }
}

}  // namespace portable

namespace {

bool BitEqual(const Tensor& a, const Tensor& b) {
  return std::memcmp(a.data(), b.data(),
                     sizeof(float) * static_cast<size_t>(a.numel())) == 0;
}

/// The bit-identity probe behind SimdTilesActive(): runs the SIMD tiles
/// against the portable loops on shapes that reach every tile branch — 64-,
/// 32-, 16- and 8-wide column blocks and scalar column tails, 8-, 6-, 4-, 2-
/// and 1-row blocks, k tails, the n = 1 matvec the scorer uses, and
/// transposed-B k tails and 4-column blocks. Any bitwise mismatch keeps the
/// portable loops: in a -O1 sanitizer build, for one, the compiler does not
/// contract the portable multiply-adds into FMA.
bool ProbeSimdTiles() {
  if (!backend::CpuHasAvx2Fma()) return false;
  // Every process pays for this once, at its first matmul: keep the shapes
  // small and the data cheap to draw.
  util::Rng rng(20260808);
  const int64_t shapes[][3] = {
      {1, 16, 40}, {2, 5, 3},    {3, 33, 7}, {4, 64, 16},
      {5, 67, 35}, {6, 130, 24}, {9, 64, 1}, {8, 21, 56},
      {7, 64, 128}, {3, 64, 80}, {2, 33, 48},
  };
  for (const auto& shape : shapes) {
    const int64_t m = shape[0], k = shape[1], n = shape[2];
    const Tensor a = Tensor::RandUniform({m, k}, &rng, 1.0f);
    const Tensor b = Tensor::RandUniform({k, n}, &rng, 1.0f);
    Tensor tiles({m, n}), loops({m, n});
    backend::simd::MatMulRows(a.data(), b.data(), tiles.data(), 0, m, k, n);
    portable::MatMulRows(a.data(), b.data(), loops.data(), 0, m, k, n);
    if (!BitEqual(tiles, loops)) return false;

    const Tensor at = Tensor::RandUniform({k, m}, &rng, 1.0f);
    tiles = Tensor({m, n});
    loops = Tensor({m, n});
    backend::simd::MatMulTARows(at.data(), b.data(), tiles.data(), 0, m, k, m,
                                n);
    portable::MatMulTARows(at.data(), b.data(), loops.data(), 0, m, k, m, n);
    if (!BitEqual(tiles, loops)) return false;

    if (k < kTBLanes) continue;  // MatMulTransposedB keeps its loops there
    const Tensor bt = Tensor::RandUniform({n, k}, &rng, 1.0f);
    tiles = Tensor({m, n});
    loops = Tensor({m, n});
    backend::simd::MatMulTBRows(a.data(), bt.data(), tiles.data(), 0, m, k, n);
    portable::MatMulTBRows(a.data(), bt.data(), loops.data(), 0, m, k, n);
    if (!BitEqual(tiles, loops)) return false;
  }
  return true;
}

}  // namespace

bool SimdTilesActive() {
  static const bool active = ProbeSimdTiles();
  return active;
}

Shape::Shape(std::initializer_list<int64_t> dims) : rank_(dims.size()) {
  BOOTLEG_CHECK_LE(rank_, kMaxRank);
  std::copy(dims.begin(), dims.end(), dims_);
}

Tensor::Tensor(Shape shape)
    : shape_(shape),
      numel_(NumelOf(shape_)),
      data_(storage::Allocate(numel_)) {
  if (numel_ > 0) std::memset(data_, 0, sizeof(float) * numel_);
}

Tensor::Tensor(Shape shape, const std::vector<float>& data)
    : shape_(shape), numel_(NumelOf(shape_)) {
  BOOTLEG_CHECK_EQ(numel_, static_cast<int64_t>(data.size()));
  data_ = storage::Allocate(numel_);
  if (numel_ > 0) std::memcpy(data_, data.data(), sizeof(float) * numel_);
}

Tensor::Tensor(const Tensor& other)
    : shape_(other.shape_),
      numel_(other.numel_),
      data_(storage::Allocate(numel_)) {
  if (numel_ > 0) std::memcpy(data_, other.data_, sizeof(float) * numel_);
}

Tensor::Tensor(Tensor&& other) noexcept
    : shape_(std::exchange(other.shape_, Shape())),
      numel_(std::exchange(other.numel_, 0)),
      data_(std::exchange(other.data_, nullptr)) {}

Tensor& Tensor::operator=(const Tensor& other) {
  if (this == &other) return *this;
  if (numel_ != other.numel_) {
    storage::Release(data_, numel_);
    numel_ = other.numel_;
    data_ = storage::Allocate(numel_);
  }
  shape_ = other.shape_;
  if (numel_ > 0) std::memcpy(data_, other.data_, sizeof(float) * numel_);
  return *this;
}

Tensor& Tensor::operator=(Tensor&& other) noexcept {
  if (this == &other) return *this;
  storage::Release(data_, numel_);
  shape_ = std::exchange(other.shape_, Shape());
  numel_ = std::exchange(other.numel_, 0);
  data_ = std::exchange(other.data_, nullptr);
  return *this;
}

Tensor::~Tensor() { storage::Release(data_, numel_); }

Tensor Tensor::Full(Shape shape, float value) {
  Tensor t(shape);
  t.Fill(value);
  return t;
}

Tensor Tensor::Randn(Shape shape, util::Rng* rng, float stddev) {
  Tensor t(shape);
  for (int64_t i = 0; i < t.numel_; ++i) {
    t.data_[i] = static_cast<float>(rng->Normal(0.0, stddev));
  }
  return t;
}

Tensor Tensor::RandUniform(Shape shape, util::Rng* rng, float limit) {
  Tensor t(shape);
  for (int64_t i = 0; i < t.numel_; ++i) {
    t.data_[i] = static_cast<float>(rng->Uniform(-limit, limit));
  }
  return t;
}

Tensor Tensor::Eye(int64_t n) {
  Tensor t({n, n});
  for (int64_t i = 0; i < n; ++i) t.at(i, i) = 1.0f;
  return t;
}

Tensor Tensor::FromVector(const std::vector<float>& values) {
  return Tensor({static_cast<int64_t>(values.size())}, values);
}

Tensor Tensor::Reshape(Shape shape) const {
  BOOTLEG_CHECK_EQ(NumelOf(shape), numel());
  Tensor t = *this;
  t.shape_ = shape;
  return t;
}

void Tensor::Fill(float value) { std::fill(data_, data_ + numel_, value); }

void Tensor::Add(const Tensor& other) {
  BOOTLEG_CHECK(SameShape(other));
  const float* src = other.data();
  float* dst = data();
  Dispatch(numel(), 1 << 15, [dst, src](int64_t lo, int64_t hi) {
        for (int64_t i = lo; i < hi; ++i) dst[i] += src[i];
      });
}

void Tensor::Axpy(float alpha, const Tensor& other) {
  BOOTLEG_CHECK(SameShape(other));
  const float* src = other.data();
  float* dst = data();
  Dispatch(numel(), 1 << 15, [dst, src, alpha](int64_t lo, int64_t hi) {
        for (int64_t i = lo; i < hi; ++i) dst[i] += alpha * src[i];
      });
}

void Tensor::Scale(float alpha) {
  for (int64_t i = 0; i < numel_; ++i) data_[i] *= alpha;
}

float Tensor::Sum() const {
  double acc = 0.0;
  for (int64_t i = 0; i < numel_; ++i) acc += data_[i];
  return static_cast<float>(acc);
}

std::string Tensor::ToString(int64_t max_elems) const {
  std::ostringstream ss;
  ss << "[";
  for (size_t i = 0; i < shape_.size(); ++i) {
    if (i > 0) ss << ",";
    ss << shape_[i];
  }
  ss << "] {";
  const int64_t n = std::min<int64_t>(numel(), max_elems);
  for (int64_t i = 0; i < n; ++i) {
    if (i > 0) ss << ", ";
    ss << data_[i];
  }
  if (numel() > n) ss << ", ...";
  ss << "}";
  return ss.str();
}

Tensor MatMul(const Tensor& a, const Tensor& b) {
  BOOTLEG_CHECK_EQ(a.dim(), 2);
  BOOTLEG_CHECK_EQ(b.dim(), 2);
  const int64_t m = a.size(0), k = a.size(1), n = b.size(1);
  BOOTLEG_CHECK_EQ(k, b.size(0));
  Tensor c({m, n});
  if (m == 0 || k == 0 || n == 0) return c;
  const float* pa = a.data();
  const float* pb = b.data();
  float* pc = c.data();
  const bool tiles = SimdTilesActive();
  Dispatch(m, RowGrain(k * n),
           [pa, pb, pc, k, n, tiles](int64_t i0, int64_t i1) {
             if (tiles) {
               backend::simd::MatMulRows(pa, pb, pc, i0, i1, k, n);
             } else {
               portable::MatMulRows(pa, pb, pc, i0, i1, k, n);
             }
           });
  return c;
}

Tensor MatMulReference(const Tensor& a, const Tensor& b) {
  BOOTLEG_CHECK_EQ(a.dim(), 2);
  BOOTLEG_CHECK_EQ(b.dim(), 2);
  const int64_t m = a.size(0), k = a.size(1), n = b.size(1);
  BOOTLEG_CHECK_EQ(k, b.size(0));
  Tensor c({m, n});
  const float* pa = a.data();
  const float* pb = b.data();
  float* pc = c.data();
  // ikj loop order keeps the inner loop streaming over contiguous memory.
  for (int64_t i = 0; i < m; ++i) {
    for (int64_t kk = 0; kk < k; ++kk) {
      const float av = pa[i * k + kk];
      if (av == 0.0f) continue;
      const float* brow = pb + kk * n;
      float* crow = pc + i * n;
      for (int64_t j = 0; j < n; ++j) crow[j] += av * brow[j];
    }
  }
  return c;
}

Tensor MatMulTransposedB(const Tensor& a, const Tensor& b) {
  BOOTLEG_CHECK_EQ(a.dim(), 2);
  BOOTLEG_CHECK_EQ(b.dim(), 2);
  const int64_t m = a.size(0), k = a.size(1), n = b.size(0);
  BOOTLEG_CHECK_EQ(k, b.size(1));
  Tensor c({m, n});
  if (m == 0 || k == 0 || n == 0) return c;
  const float* pa = a.data();
  const float* pb = b.data();
  float* pc = c.data();
  // The tiles skip the short-reduction branch (k < kTBLanes), whose rounding
  // sequence is a compiler artifact not worth replicating; attention scores
  // have k = head_dim >= 16.
  const bool tiles = k >= kTBLanes && SimdTilesActive();
  Dispatch(m, RowGrain(k * n),
           [pa, pb, pc, k, n, tiles](int64_t i0, int64_t i1) {
             if (tiles) {
               backend::simd::MatMulTBRows(pa, pb, pc, i0, i1, k, n);
             } else {
               portable::MatMulTBRows(pa, pb, pc, i0, i1, k, n);
             }
           });
  return c;
}

Tensor MatMulTransposedBReference(const Tensor& a, const Tensor& b) {
  BOOTLEG_CHECK_EQ(a.dim(), 2);
  BOOTLEG_CHECK_EQ(b.dim(), 2);
  const int64_t m = a.size(0), k = a.size(1), n = b.size(0);
  BOOTLEG_CHECK_EQ(k, b.size(1));
  Tensor c({m, n});
  const float* pa = a.data();
  const float* pb = b.data();
  float* pc = c.data();
  for (int64_t i = 0; i < m; ++i) {
    const float* arow = pa + i * k;
    for (int64_t j = 0; j < n; ++j) {
      const float* brow = pb + j * k;
      float acc = 0.0f;
      for (int64_t kk = 0; kk < k; ++kk) acc += arow[kk] * brow[kk];
      pc[i * n + j] = acc;
    }
  }
  return c;
}

Tensor MatMulTransposedA(const Tensor& a, const Tensor& b) {
  BOOTLEG_CHECK_EQ(a.dim(), 2);
  BOOTLEG_CHECK_EQ(b.dim(), 2);
  const int64_t k = a.size(0), m = a.size(1), n = b.size(1);
  BOOTLEG_CHECK_EQ(k, b.size(0));
  Tensor c({m, n});
  if (m == 0 || k == 0 || n == 0) return c;
  const float* pa = a.data();
  const float* pb = b.data();
  float* pc = c.data();
  const bool tiles = SimdTilesActive();
  Dispatch(m, RowGrain(k * n),
           [pa, pb, pc, k, m, n, tiles](int64_t i0, int64_t i1) {
             if (tiles) {
               backend::simd::MatMulTARows(pa, pb, pc, i0, i1, k, m, n);
             } else {
               portable::MatMulTARows(pa, pb, pc, i0, i1, k, m, n);
             }
           });
  return c;
}

Tensor MatMulTransposedAReference(const Tensor& a, const Tensor& b) {
  BOOTLEG_CHECK_EQ(a.dim(), 2);
  BOOTLEG_CHECK_EQ(b.dim(), 2);
  const int64_t k = a.size(0), m = a.size(1), n = b.size(1);
  BOOTLEG_CHECK_EQ(k, b.size(0));
  Tensor c({m, n});
  const float* pa = a.data();
  const float* pb = b.data();
  float* pc = c.data();
  for (int64_t kk = 0; kk < k; ++kk) {
    const float* arow = pa + kk * m;
    const float* brow = pb + kk * n;
    for (int64_t i = 0; i < m; ++i) {
      const float av = arow[i];
      if (av == 0.0f) continue;
      float* crow = pc + i * n;
      for (int64_t j = 0; j < n; ++j) crow[j] += av * brow[j];
    }
  }
  return c;
}

Tensor Transpose(const Tensor& a) {
  BOOTLEG_CHECK_EQ(a.dim(), 2);
  const int64_t m = a.size(0), n = a.size(1);
  Tensor t({n, m});
  for (int64_t i = 0; i < m; ++i) {
    for (int64_t j = 0; j < n; ++j) t.at(j, i) = a.at(i, j);
  }
  return t;
}

Tensor Add(const Tensor& a, const Tensor& b) {
  Tensor c = a;
  c.Add(b);
  return c;
}

Tensor Sub(const Tensor& a, const Tensor& b) {
  Tensor c = a;
  c.Axpy(-1.0f, b);
  return c;
}

Tensor Mul(const Tensor& a, const Tensor& b) {
  BOOTLEG_CHECK(a.SameShape(b));
  Tensor c = a;
  float* pc = c.data();
  const float* pb = b.data();
  Dispatch(c.numel(), 1 << 15, [pc, pb](int64_t lo, int64_t hi) {
        for (int64_t i = lo; i < hi; ++i) pc[i] *= pb[i];
      });
  return c;
}

Tensor Scale(const Tensor& a, float alpha) {
  Tensor c = a;
  c.Scale(alpha);
  return c;
}

Tensor AddRowBroadcast(const Tensor& a, const Tensor& bias) {
  BOOTLEG_CHECK_EQ(a.dim(), 2);
  BOOTLEG_CHECK_EQ(bias.dim(), 1);
  BOOTLEG_CHECK_EQ(a.size(1), bias.size(0));
  Tensor c = a;
  const int64_t rows = a.size(0), cols = a.size(1);
  float* pc = c.data();
  const float* pb = bias.data();
  Dispatch(rows, RowGrain(cols), [pc, pb, cols](int64_t i0, int64_t i1) {
        for (int64_t i = i0; i < i1; ++i) {
          for (int64_t j = 0; j < cols; ++j) pc[i * cols + j] += pb[j];
        }
      });
  return c;
}

Tensor SoftmaxRows(const Tensor& a) {
  BOOTLEG_CHECK_EQ(a.dim(), 2);
  const int64_t rows = a.size(0), cols = a.size(1);
  Tensor c({rows, cols});
  if (rows == 0 || cols == 0) return c;
  const float* pa = a.data();
  float* pc = c.data();
  Dispatch(// exp dominates; treat each element as ~8 scalar ops when sizing chunks.
      rows, RowGrain(cols * 8), [pa, pc, cols](int64_t i0, int64_t i1) {
        for (int64_t i = i0; i < i1; ++i) {
          const float* src = pa + i * cols;
          float* dst = pc + i * cols;
          float mx = src[0];
          for (int64_t j = 1; j < cols; ++j) mx = std::max(mx, src[j]);
          double total = 0.0;
          for (int64_t j = 0; j < cols; ++j) {
            dst[j] = std::exp(src[j] - mx);
            total += dst[j];
          }
          const float inv = static_cast<float>(1.0 / total);
          for (int64_t j = 0; j < cols; ++j) dst[j] *= inv;
        }
      });
  return c;
}

Tensor LogSoftmaxRows(const Tensor& a) {
  BOOTLEG_CHECK_EQ(a.dim(), 2);
  const int64_t rows = a.size(0), cols = a.size(1);
  Tensor c({rows, cols});
  if (rows == 0 || cols == 0) return c;
  const float* pa = a.data();
  float* pc = c.data();
  Dispatch(rows, RowGrain(cols * 8), [pa, pc, cols](int64_t i0, int64_t i1) {
        for (int64_t i = i0; i < i1; ++i) {
          const float* src = pa + i * cols;
          float* dst = pc + i * cols;
          float mx = src[0];
          for (int64_t j = 1; j < cols; ++j) mx = std::max(mx, src[j]);
          double total = 0.0;
          for (int64_t j = 0; j < cols; ++j) total += std::exp(src[j] - mx);
          const float lse = mx + static_cast<float>(std::log(total));
          for (int64_t j = 0; j < cols; ++j) dst[j] = src[j] - lse;
        }
      });
  return c;
}

Tensor Max(const Tensor& a, const Tensor& b) {
  BOOTLEG_CHECK(a.SameShape(b));
  Tensor c = a;
  float* pc = c.data();
  const float* pb = b.data();
  Dispatch(c.numel(), 1 << 15, [pc, pb](int64_t lo, int64_t hi) {
        for (int64_t i = lo; i < hi; ++i) pc[i] = std::max(pc[i], pb[i]);
      });
  return c;
}

Tensor Relu(const Tensor& a) {
  Tensor c = a;
  float* pc = c.data();
  Dispatch(c.numel(), 1 << 15, [pc](int64_t lo, int64_t hi) {
        for (int64_t i = lo; i < hi; ++i) pc[i] = pc[i] > 0.0f ? pc[i] : 0.0f;
      });
  return c;
}

Tensor TanhT(const Tensor& a) {
  Tensor c = a;
  float* pc = c.data();
  Dispatch(c.numel(), 1 << 12, [pc](int64_t lo, int64_t hi) {
        backend::TanhRow(pc + lo, pc + lo, hi - lo);
      });
  return c;
}

Tensor Gelu(const Tensor& a) {
  Tensor c = a;
  float* pc = c.data();
  Dispatch(c.numel(), 1 << 12, [pc](int64_t lo, int64_t hi) {
        backend::GeluRow(pc + lo, pc + lo, hi - lo);
      });
  return c;
}

Tensor ConcatCols(const std::vector<Tensor>& parts) {
  BOOTLEG_CHECK(!parts.empty());
  const int64_t rows = parts[0].size(0);
  int64_t total_cols = 0;
  for (const Tensor& p : parts) {
    BOOTLEG_CHECK_EQ(p.dim(), 2);
    BOOTLEG_CHECK_EQ(p.size(0), rows);
    total_cols += p.size(1);
  }
  Tensor c({rows, total_cols});
  int64_t off = 0;
  for (const Tensor& p : parts) {
    const int64_t cols = p.size(1);
    for (int64_t i = 0; i < rows; ++i) {
      const float* src = p.data() + i * cols;
      float* dst = c.data() + i * total_cols + off;
      for (int64_t j = 0; j < cols; ++j) dst[j] = src[j];
    }
    off += cols;
  }
  return c;
}

Tensor ConcatRows(const std::vector<Tensor>& parts) {
  BOOTLEG_CHECK(!parts.empty());
  const int64_t cols = parts[0].size(1);
  int64_t total_rows = 0;
  for (const Tensor& p : parts) {
    BOOTLEG_CHECK_EQ(p.dim(), 2);
    BOOTLEG_CHECK_EQ(p.size(1), cols);
    total_rows += p.size(0);
  }
  Tensor c({total_rows, cols});
  int64_t off = 0;
  for (const Tensor& p : parts) {
    const int64_t n = p.numel();
    float* dst = c.data() + off;
    for (int64_t i = 0; i < n; ++i) dst[i] = p.data()[i];
    off += n;
  }
  return c;
}

Tensor SliceCols(const Tensor& a, int64_t start, int64_t len) {
  BOOTLEG_CHECK_EQ(a.dim(), 2);
  BOOTLEG_CHECK(start >= 0 && len >= 0 && start + len <= a.size(1));
  const int64_t rows = a.size(0), cols = a.size(1);
  Tensor c({rows, len});
  for (int64_t i = 0; i < rows; ++i) {
    const float* src = a.data() + i * cols + start;
    float* dst = c.data() + i * len;
    for (int64_t j = 0; j < len; ++j) dst[j] = src[j];
  }
  return c;
}

Tensor SliceRows(const Tensor& a, int64_t start, int64_t len) {
  BOOTLEG_CHECK_EQ(a.dim(), 2);
  BOOTLEG_CHECK(start >= 0 && len >= 0 && start + len <= a.size(0));
  const int64_t cols = a.size(1);
  Tensor c({len, cols});
  const float* src = a.data() + start * cols;
  float* dst = c.data();
  for (int64_t i = 0; i < len * cols; ++i) dst[i] = src[i];
  return c;
}

Tensor GatherRows(const Tensor& table, const std::vector<int64_t>& ids) {
  BOOTLEG_CHECK_EQ(table.dim(), 2);
  const int64_t cols = table.size(1);
  Tensor c({static_cast<int64_t>(ids.size()), cols});
  for (size_t i = 0; i < ids.size(); ++i) {
    const int64_t id = ids[i];
    BOOTLEG_CHECK(id >= 0 && id < table.size(0));
    const float* src = table.data() + id * cols;
    float* dst = c.data() + static_cast<int64_t>(i) * cols;
    for (int64_t j = 0; j < cols; ++j) dst[j] = src[j];
  }
  return c;
}

Tensor LayerNormRows(const Tensor& x, const Tensor& gamma, const Tensor& beta,
                     float eps, Tensor* xhat, Tensor* inv_std) {
  BOOTLEG_CHECK_EQ(x.dim(), 2);
  const int64_t rows = x.size(0), cols = x.size(1);
  BOOTLEG_CHECK_EQ(gamma.numel(), cols);
  BOOTLEG_CHECK_EQ(beta.numel(), cols);
  if (xhat != nullptr) *xhat = Tensor({rows, cols});
  if (inv_std != nullptr) *inv_std = Tensor({rows});
  Tensor out({rows, cols});
  const float* xp = x.data();
  const float* gp = gamma.data();
  const float* bp = beta.data();
  float* xhp = xhat != nullptr ? xhat->data() : nullptr;
  float* isp = inv_std != nullptr ? inv_std->data() : nullptr;
  float* op = out.data();
  for (int64_t i = 0; i < rows; ++i) {
    const float* xrow = xp + i * cols;
    double mean = 0.0;
    for (int64_t j = 0; j < cols; ++j) mean += xrow[j];
    mean /= cols;
    double var = 0.0;
    for (int64_t j = 0; j < cols; ++j) {
      const double d = xrow[j] - mean;
      var += d * d;
    }
    var /= cols;
    const float is = static_cast<float>(1.0 / std::sqrt(var + eps));
    if (isp != nullptr) isp[i] = is;
    const float meanf = static_cast<float>(mean);
    float* orow = op + i * cols;
    for (int64_t j = 0; j < cols; ++j) {
      const float xh = (xrow[j] - meanf) * is;
      if (xhp != nullptr) xhp[i * cols + j] = xh;
      orow[j] = xh * gp[j] + bp[j];
    }
  }
  return out;
}

Tensor AddScaledIdentity(const Tensor& k, float w) {
  BOOTLEG_CHECK_EQ(k.dim(), 2);
  BOOTLEG_CHECK_EQ(k.size(0), k.size(1));
  Tensor out = k;
  const int64_t n = k.size(0);
  for (int64_t i = 0; i < n; ++i) out.at(i, i) += w;
  return out;
}

int64_t ArgMax(const Tensor& a) {
  BOOTLEG_CHECK_GT(a.numel(), 0);
  int64_t best = 0;
  for (int64_t i = 1; i < a.numel(); ++i) {
    if (a.at(i) > a.at(best)) best = i;
  }
  return best;
}

float Norm(const Tensor& a) {
  const float* p = a.data();
  double acc = 0.0;
  for (int64_t i = 0; i < a.numel(); ++i) acc += static_cast<double>(p[i]) * p[i];
  return static_cast<float>(std::sqrt(acc));
}

bool AllFinite(const Tensor& a) {
  const float* p = a.data();
  for (int64_t i = 0; i < a.numel(); ++i) {
    if (!std::isfinite(p[i])) return false;
  }
  return true;
}

}  // namespace bootleg::tensor
