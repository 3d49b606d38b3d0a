// Header-only SIMD primitives shared by the matmul tiles and the embedding
// store. Deliberately dependency-free (no tensor/, no util/): the store
// library sits below tensor in the link order and must be able to use the
// fused dequant core without growing a link edge to the backend library.
//
// Two layers live here:
//   * runtime CPU detection (AVX2+FMA, AVX-512F) — kernels are compiled
//     whenever the build targets those ISAs (`-march=native` on such hosts)
//     and selected at runtime, so a portable build or an older CPU falls back
//     to scalar bodies that compute the exact same values;
//   * DequantRow, the int8 row dequantization core of the store's int8 view.
//
// DequantRow is element-wise exact across the SIMD and scalar paths (an exact
// int8→f32 widening plus one correctly-rounded multiply per element), so
// an int8 gather through it stays bit-identical to the scalar
// store::DequantizeRow on every machine.
#ifndef BOOTLEG_BACKEND_SIMD_PRIMITIVES_H_
#define BOOTLEG_BACKEND_SIMD_PRIMITIVES_H_

#include <cstdint>

#if defined(__AVX2__) && defined(__FMA__)
#define BOOTLEG_SIMD_AVX2 1
#include <immintrin.h>
#else
#define BOOTLEG_SIMD_AVX2 0
#endif

// Width upgrade for the float matmul tiles and the dequant row core:
// compiled whenever the target ISA has the foundation subset, picked at
// runtime. The transposed products stay 256-bit — those cores are load- or
// latency-bound, not FMA-width-bound.
#if BOOTLEG_SIMD_AVX2 && defined(__AVX512F__)
#define BOOTLEG_SIMD_AVX512 1
#else
#define BOOTLEG_SIMD_AVX512 0
#endif

namespace bootleg {
namespace backend {

/// Runtime check: the binary carries the AVX2/FMA kernels (the matmul tiles
/// included) AND the CPU can run them.
inline bool CpuHasAvx2Fma() {
#if BOOTLEG_SIMD_AVX2
  static const bool ok =
      __builtin_cpu_supports("avx2") && __builtin_cpu_supports("fma");
  return ok;
#else
  return false;
#endif
}

/// Runtime check for the 512-bit matmul tiles.
inline bool CpuHasAvx512() {
#if BOOTLEG_SIMD_AVX512
  static const bool ok = CpuHasAvx2Fma() && __builtin_cpu_supports("avx512f");
  return ok;
#else
  return false;
#endif
}

/// dst[j] = float(q[j]) * scale. int8→f32 conversion is exact and the single
/// multiply is correctly rounded, so the vector and scalar paths agree
/// bitwise; the mapped store view's int8 GatherRows funnels through this.
inline void DequantRow(const int8_t* q, int64_t n, float scale, float* dst) {
#if BOOTLEG_SIMD_AVX512
  if (CpuHasAvx512()) {
    // 16 int8 -> 16 int32 -> 16 f32 per iteration; same exact int8→f32
    // widening and one rounded multiply per lane as the narrower paths.
    const __m512 vs512 = _mm512_set1_ps(scale);
    int64_t j = 0;
    for (; j + 16 <= n; j += 16) {
      const __m128i q8 =
          _mm_loadu_si128(reinterpret_cast<const __m128i*>(q + j));
      const __m512i q32 = _mm512_cvtepi8_epi32(q8);
      _mm512_storeu_ps(dst + j,
                       _mm512_mul_ps(_mm512_cvtepi32_ps(q32), vs512));
    }
    for (; j < n; ++j) dst[j] = static_cast<float>(q[j]) * scale;
    return;
  }
#endif
#if BOOTLEG_SIMD_AVX2
  if (CpuHasAvx2Fma()) {
    const __m256 vs = _mm256_set1_ps(scale);
    int64_t j = 0;
    for (; j + 8 <= n; j += 8) {
      // 8 int8 -> 8 int32 -> 8 f32, then one rounded multiply per lane.
      const __m128i q8 =
          _mm_loadl_epi64(reinterpret_cast<const __m128i*>(q + j));
      const __m256i q32 = _mm256_cvtepi8_epi32(q8);
      _mm256_storeu_ps(dst + j,
                       _mm256_mul_ps(_mm256_cvtepi32_ps(q32), vs));
    }
    for (; j < n; ++j) dst[j] = static_cast<float>(q[j]) * scale;
    return;
  }
#endif
  for (int64_t j = 0; j < n; ++j) dst[j] = static_cast<float>(q[j]) * scale;
}

}  // namespace backend
}  // namespace bootleg

#endif  // BOOTLEG_BACKEND_SIMD_PRIMITIVES_H_
