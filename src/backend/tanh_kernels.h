// The one tanh of the repo: a port of glibc's fdlibm `__tanhf` (and the part
// of `__expm1f` it reaches) that equals glibc 2.36 tanhf bit for bit on all
// 2^32 inputs, plus row kernels that run it 8 lanes at a time under AVX2 for
// the Gelu activation (forward and backward) and tensor::Tanh.
//
// The AVX2 kernels evaluate every branch in every lane and blend each lane's
// result, so they equal the scalar port bit for bit; CPUs without AVX2/FMA run
// a loop over the scalar port. Results therefore do not depend on the host's
// libm, its vector width or the compiler's FMA contraction (see
// docs/ARCHITECTURE.md, "Dense kernels").
#ifndef BOOTLEG_BACKEND_TANH_KERNELS_H_
#define BOOTLEG_BACKEND_TANH_KERNELS_H_

#include <cstdint>

namespace bootleg::backend {

/// tanhf as glibc 2.36 computes it (fdlibm's __tanhf).
float Tanh(float x);

/// y[i] = Tanh(x[i]) for i in [0, n). y may alias x.
void TanhRow(const float* x, float* y, int64_t n);

/// The tanh-approximation Gelu, y[i] = (0.5f·v)·(1 + Tanh(inner)) with
/// inner = 0.7978845608f · fmaf((0.044715f·v)·v, v, v). y may alias x.
void GeluRow(const float* x, float* y, int64_t n);

/// t[i] = Tanh(inner) of GeluRow for x[i]: the t the Gelu backward needs.
void GeluTanhRow(const float* x, float* t, int64_t n);

}  // namespace bootleg::backend

#endif  // BOOTLEG_BACKEND_TANH_KERNELS_H_
