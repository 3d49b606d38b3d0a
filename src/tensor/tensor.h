#ifndef BOOTLEG_TENSOR_TENSOR_H_
#define BOOTLEG_TENSOR_TENSOR_H_

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <initializer_list>
#include <string>
#include <vector>

#include "util/logging.h"
#include "util/rng.h"

namespace bootleg::tensor {

/// A tensor's dimensions, held inline: building or copying a Shape never
/// touches the heap. The model builds rank 1 and rank 2 only; kMaxRank
/// leaves headroom. Loaders compare a declared shape with ToVector(), so a
/// file can never make them build a Shape of unsupported rank.
class Shape {
 public:
  static constexpr size_t kMaxRank = 4;

  Shape() = default;
  /// CHECKs dims.size() <= kMaxRank.
  Shape(std::initializer_list<int64_t> dims);

  size_t size() const { return rank_; }
  int64_t operator[](size_t axis) const { return dims_[axis]; }
  const int64_t* begin() const { return dims_; }
  const int64_t* end() const { return dims_ + rank_; }
  std::vector<int64_t> ToVector() const { return {begin(), end()}; }

  friend bool operator==(const Shape& a, const Shape& b) {
    return a.rank_ == b.rank_ && std::equal(a.begin(), a.end(), b.begin());
  }
  friend bool operator!=(const Shape& a, const Shape& b) { return !(a == b); }

 private:
  int64_t dims_[kMaxRank] = {};
  size_t rank_ = 0;
};

/// Dense row-major float tensor. This is the value type of the training
/// substrate: all model math runs on 1-D and 2-D instances (per-sentence
/// batching keeps higher ranks unnecessary). Copyable and movable; copies
/// are deep. The shape lives inline and the floats come from the recycled
/// per-thread storage of tensor/storage.h, so a small tensor costs no
/// malloc once its thread has freed one of the same size class.
class Tensor {
 public:
  Tensor() = default;

  /// Allocates a zero-filled tensor of the given shape.
  explicit Tensor(Shape shape);

  /// Builds a tensor from explicit shape and data; sizes must agree.
  Tensor(Shape shape, const std::vector<float>& data);

  Tensor(const Tensor& other);
  Tensor(Tensor&& other) noexcept;
  Tensor& operator=(const Tensor& other);
  Tensor& operator=(Tensor&& other) noexcept;
  ~Tensor();

  static Tensor Zeros(Shape shape) { return Tensor(shape); }
  static Tensor Full(Shape shape, float value);
  static Tensor Ones(Shape shape) { return Full(shape, 1.0f); }

  /// Gaussian initialization with the given standard deviation.
  static Tensor Randn(Shape shape, util::Rng* rng, float stddev = 1.0f);

  /// Uniform initialization in [-limit, limit].
  static Tensor RandUniform(Shape shape, util::Rng* rng, float limit);

  /// Identity matrix of size n×n.
  static Tensor Eye(int64_t n);

  /// 1-D tensor from values.
  static Tensor FromVector(const std::vector<float>& values);

  const Shape& shape() const { return shape_; }
  int64_t dim() const { return static_cast<int64_t>(shape_.size()); }
  int64_t size(int64_t axis) const {
    BOOTLEG_CHECK(axis >= 0 && axis < dim());
    return shape_[static_cast<size_t>(axis)];
  }
  int64_t numel() const { return numel_; }
  bool empty() const { return numel_ == 0; }

  /// The numel() floats, row-major. Null when the tensor is empty.
  float* data() { return data_; }
  const float* data() const { return data_; }

  /// 1-D element access.
  float& at(int64_t i) {
    BOOTLEG_CHECK(i >= 0 && i < numel());
    return data_[i];
  }
  float at(int64_t i) const {
    BOOTLEG_CHECK(i >= 0 && i < numel());
    return data_[i];
  }

  /// 2-D element access; tensor must be rank 2.
  float& at(int64_t r, int64_t c) {
    BOOTLEG_CHECK_EQ(dim(), 2);
    BOOTLEG_CHECK(r >= 0 && r < shape_[0] && c >= 0 && c < shape_[1]);
    return data_[r * shape_[1] + c];
  }
  float at(int64_t r, int64_t c) const {
    BOOTLEG_CHECK_EQ(dim(), 2);
    BOOTLEG_CHECK(r >= 0 && r < shape_[0] && c >= 0 && c < shape_[1]);
    return data_[r * shape_[1] + c];
  }

  bool SameShape(const Tensor& other) const { return shape_ == other.shape_; }

  /// Returns a copy reshaped to `shape` (numel must be preserved).
  Tensor Reshape(Shape shape) const;

  /// In-place fill.
  void Fill(float value);

  /// In-place accumulate: this += other (same shape).
  void Add(const Tensor& other);

  /// In-place axpy: this += alpha * other (same shape).
  void Axpy(float alpha, const Tensor& other);

  /// In-place scale.
  void Scale(float alpha);

  /// Sum of all elements.
  float Sum() const;

  /// Debug rendering, e.g. "[2,3] {1.0, 2.0, ...}".
  std::string ToString(int64_t max_elems = 8) const;

 private:
  Shape shape_;
  int64_t numel_ = 0;
  float* data_ = nullptr;
};

// ---------------------------------------------------------------------------
// Free-function kernels over plain tensors. These carry no autograd; the
// autograd layer (autograd.h) composes them and supplies backward rules.
// ---------------------------------------------------------------------------

/// C = A·B for 2-D A [m,k] and B [k,n]. Blocked and (above a size threshold)
/// threaded over output rows; bit-identical at every thread count.
Tensor MatMul(const Tensor& a, const Tensor& b);

/// C = A·Bᵀ for 2-D A [m,k] and B [n,k]. Fused to avoid materializing Bᵀ.
Tensor MatMulTransposedB(const Tensor& a, const Tensor& b);

/// C = Aᵀ·B for 2-D A [k,m] and B [k,n].
Tensor MatMulTransposedA(const Tensor& a, const Tensor& b);

/// True when the three kernels above run the AVX2/AVX-512 register tiles of
/// backend/simd_kernels.h (MatMulTransposedB only at k >= 16) instead of the
/// portable loops below. A probe decides once per process: the tiles must be
/// compiled in, run on this CPU, and reproduce the portable loops bit for
/// bit. Results are the same either way; only speed differs.
bool SimdTilesActive();

/// The portable loops behind MatMul, MatMulTransposedA and MatMulTransposedB:
/// rows [i0, i1) of a zero-initialized row-major C. They run wherever the
/// probe rejects the tiles (no AVX2, BOOTLEG_PORTABLE, -O1 sanitizer builds).
namespace portable {
/// A [m,k], B [k,n].
void MatMulRows(const float* pa, const float* pb, float* pc, int64_t i0,
                int64_t i1, int64_t k, int64_t n);
/// A [k,m], B [k,n].
void MatMulTARows(const float* pa, const float* pb, float* pc, int64_t i0,
                  int64_t i1, int64_t k, int64_t m, int64_t n);
/// A [m,k], B [n,k].
void MatMulTBRows(const float* pa, const float* pb, float* pc, int64_t i0,
                  int64_t i1, int64_t k, int64_t n);
}  // namespace portable

/// Naive single-threaded kernels preserved verbatim from before the blocked
/// rewrite. The equivalence tests pin the production kernels to these, and
/// the bench harness reports the blocked speedup against them.
Tensor MatMulReference(const Tensor& a, const Tensor& b);
Tensor MatMulTransposedBReference(const Tensor& a, const Tensor& b);
Tensor MatMulTransposedAReference(const Tensor& a, const Tensor& b);

/// 2-D transpose.
Tensor Transpose(const Tensor& a);

/// Elementwise sum of same-shape tensors.
Tensor Add(const Tensor& a, const Tensor& b);

/// Elementwise difference of same-shape tensors.
Tensor Sub(const Tensor& a, const Tensor& b);

/// Elementwise product of same-shape tensors.
Tensor Mul(const Tensor& a, const Tensor& b);

/// alpha * A.
Tensor Scale(const Tensor& a, float alpha);

/// A [n,d] + bias [d] broadcast over rows.
Tensor AddRowBroadcast(const Tensor& a, const Tensor& bias);

/// Row-wise softmax of a 2-D tensor.
Tensor SoftmaxRows(const Tensor& a);

/// Row-wise log-softmax of a 2-D tensor.
Tensor LogSoftmaxRows(const Tensor& a);

/// Elementwise max.
Tensor Max(const Tensor& a, const Tensor& b);

/// Elementwise ReLU / tanh / GELU (tanh approximation). tanh is
/// backend::Tanh, glibc's fdlibm tanhf ported bit for bit
/// (backend/tanh_kernels.h), on every host.
Tensor Relu(const Tensor& a);
Tensor TanhT(const Tensor& a);
Tensor Gelu(const Tensor& a);

/// Concatenates 2-D tensors with equal row counts along columns.
Tensor ConcatCols(const std::vector<Tensor>& parts);

/// Concatenates 2-D tensors with equal column counts along rows.
Tensor ConcatRows(const std::vector<Tensor>& parts);

/// Copies `len` columns starting at `start` from a 2-D tensor.
Tensor SliceCols(const Tensor& a, int64_t start, int64_t len);

/// Copies `len` rows starting at `start` from a 2-D tensor.
Tensor SliceRows(const Tensor& a, int64_t start, int64_t len);

/// Gathers rows of a 2-D table by index.
Tensor GatherRows(const Tensor& table, const std::vector<int64_t>& ids);

/// Row-wise layer normalization y = (x - mean) / sqrt(var + eps) * gamma +
/// beta. This is the forward computation of the autograd LayerNorm op; when
/// `xhat` / `inv_std` are non-null they receive the normalized rows and the
/// per-row 1/std that the backward pass needs. Keeping both paths on this one
/// kernel is what makes the no-tape inference path bit-identical to training.
Tensor LayerNormRows(const Tensor& x, const Tensor& gamma, const Tensor& beta,
                     float eps = 1e-5f, Tensor* xhat = nullptr,
                     Tensor* inv_std = nullptr);

/// K + w·I for square K (value-path form of the autograd op).
Tensor AddScaledIdentity(const Tensor& k, float w);

/// Row index of the maximum in a 1-D tensor.
int64_t ArgMax(const Tensor& a);

/// Frobenius / L2 norm.
float Norm(const Tensor& a);

/// True if all finite.
bool AllFinite(const Tensor& a);

}  // namespace bootleg::tensor

#endif  // BOOTLEG_TENSOR_TENSOR_H_
