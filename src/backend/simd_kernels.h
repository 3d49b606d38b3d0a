// AVX2/FMA (and AVX-512) register tiles for the three dense matmul kernels
// of tensor/tensor.cc, as raw-pointer row-range functions over row-major
// buffers. Each tile reproduces the per-element accumulation order of the
// portable loop it replaces (ascending-k fused multiply-add chains; the
// 16-lane tree-fold for transposed-B dots), so on a Release build — where
// the compiler contracts the portable loops' mul+add into FMA — the results
// are bit-identical at every shape and thread count. tensor:: verifies that
// property once per process with a probe and runs the portable loops where
// it does not hold (portable builds, sanitizer builds compiled at -O1, CPUs
// without AVX2).
#ifndef BOOTLEG_BACKEND_SIMD_KERNELS_H_
#define BOOTLEG_BACKEND_SIMD_KERNELS_H_

#include <cstdint>

namespace bootleg::backend::simd {

// The functions below may only run where backend::CpuHasAvx2Fma() holds
// (simd_primitives.h). That does not imply bit-identity with the portable
// loops — that is the probe's job.

/// Rows [i0, i1) of C = A·B. A [m,k], B [k,n], C [m,n].
void MatMulRows(const float* pa, const float* pb, float* pc, int64_t i0,
                int64_t i1, int64_t k, int64_t n);

/// Rows [i0, i1) of C = Aᵀ·B. A [k,m], B [k,n], C [m,n].
void MatMulTARows(const float* pa, const float* pb, float* pc, int64_t i0,
                  int64_t i1, int64_t k, int64_t m, int64_t n);

/// Rows [i0, i1) of C = A·Bᵀ. A [m,k], B [n,k], C [m,n]. Requires k >= 16:
/// the portable loop's short-reduction branch is not reproduced.
void MatMulTBRows(const float* pa, const float* pb, float* pc, int64_t i0,
                  int64_t i1, int64_t k, int64_t n);

}  // namespace bootleg::backend::simd

#endif  // BOOTLEG_BACKEND_SIMD_KERNELS_H_
