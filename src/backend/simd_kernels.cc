#include "backend/simd_kernels.h"

#include <cmath>
#include <cstdlib>

#include "backend/simd_primitives.h"

namespace bootleg::backend::simd {

#if BOOTLEG_SIMD_AVX2

namespace {

/// All n output columns for rows [i, i+RB) of C = A·B.
/// Register tile: RB rows × 16 columns (2 ymm accumulators per row), one
/// ascending-k FMA chain per element — the same chain the contracted
/// portable loop produces, without its per-k-tile memory round-trips.
/// Column tails drop to one ymm, then to std::fmaf scalar chains (fmaf is
/// correctly rounded, i.e. exactly vfmadd's scalar form). RB > 1 scalar
/// tails interleave independent row chains for ILP; per-element order is
/// untouched. Handles n < 8 entirely in the scalar tail (matvec scoring).
template <int RB>
void MatMulTile(const float* pa, const float* pb, float* pc, int64_t i,
                int64_t k, int64_t n) {
  const float* arow[RB];
  float* crow[RB];
  for (int r = 0; r < RB; ++r) {
    arow[r] = pa + (i + r) * k;
    crow[r] = pc + (i + r) * n;
  }
  int64_t j = 0;
  for (; j + 16 <= n; j += 16) {
    __m256 acc0[RB], acc1[RB];
    for (int r = 0; r < RB; ++r) {
      acc0[r] = _mm256_setzero_ps();
      acc1[r] = _mm256_setzero_ps();
    }
    for (int64_t kk = 0; kk < k; ++kk) {
      const float* brow = pb + kk * n + j;
      const __m256 b0 = _mm256_loadu_ps(brow);
      const __m256 b1 = _mm256_loadu_ps(brow + 8);
      for (int r = 0; r < RB; ++r) {
        const __m256 av = _mm256_set1_ps(arow[r][kk]);
        acc0[r] = _mm256_fmadd_ps(av, b0, acc0[r]);
        acc1[r] = _mm256_fmadd_ps(av, b1, acc1[r]);
      }
    }
    for (int r = 0; r < RB; ++r) {
      _mm256_storeu_ps(crow[r] + j, acc0[r]);
      _mm256_storeu_ps(crow[r] + j + 8, acc1[r]);
    }
  }
  if (j + 8 <= n) {
    __m256 acc[RB];
    for (int r = 0; r < RB; ++r) acc[r] = _mm256_setzero_ps();
    for (int64_t kk = 0; kk < k; ++kk) {
      const __m256 b0 = _mm256_loadu_ps(pb + kk * n + j);
      for (int r = 0; r < RB; ++r) {
        acc[r] = _mm256_fmadd_ps(_mm256_set1_ps(arow[r][kk]), b0, acc[r]);
      }
    }
    for (int r = 0; r < RB; ++r) _mm256_storeu_ps(crow[r] + j, acc[r]);
    j += 8;
  }
  for (; j < n; ++j) {
    float acc[RB] = {};
    for (int64_t kk = 0; kk < k; ++kk) {
      const float bv = pb[kk * n + j];
      for (int r = 0; r < RB; ++r) acc[r] = std::fmaf(arow[r][kk], bv, acc[r]);
    }
    for (int r = 0; r < RB; ++r) crow[r][j] = acc[r];
  }
}

/// 6 rows × 16 columns with individually named accumulators: the array form
/// above makes GCC spill the accumulator file to the stack inside the k loop;
/// 12 named __m256 + two B panels + one broadcast fit the 16 ymm registers
/// exactly and sustain ~2 FMA/cycle. Same ascending-k chains as the template.
void MatMulTile6x16(const float* pa, const float* pb, float* pc, int64_t i,
                    int64_t j, int64_t k, int64_t n) {
  const float* a0 = pa + i * k;
  const float* a1 = a0 + k;
  const float* a2 = a1 + k;
  const float* a3 = a2 + k;
  const float* a4 = a3 + k;
  const float* a5 = a4 + k;
  __m256 c00 = _mm256_setzero_ps(), c01 = _mm256_setzero_ps();
  __m256 c10 = _mm256_setzero_ps(), c11 = _mm256_setzero_ps();
  __m256 c20 = _mm256_setzero_ps(), c21 = _mm256_setzero_ps();
  __m256 c30 = _mm256_setzero_ps(), c31 = _mm256_setzero_ps();
  __m256 c40 = _mm256_setzero_ps(), c41 = _mm256_setzero_ps();
  __m256 c50 = _mm256_setzero_ps(), c51 = _mm256_setzero_ps();
  for (int64_t kk = 0; kk < k; ++kk) {
    const float* brow = pb + kk * n + j;
    const __m256 b0 = _mm256_loadu_ps(brow);
    const __m256 b1 = _mm256_loadu_ps(brow + 8);
    __m256 av;
    av = _mm256_set1_ps(a0[kk]);
    c00 = _mm256_fmadd_ps(av, b0, c00);
    c01 = _mm256_fmadd_ps(av, b1, c01);
    av = _mm256_set1_ps(a1[kk]);
    c10 = _mm256_fmadd_ps(av, b0, c10);
    c11 = _mm256_fmadd_ps(av, b1, c11);
    av = _mm256_set1_ps(a2[kk]);
    c20 = _mm256_fmadd_ps(av, b0, c20);
    c21 = _mm256_fmadd_ps(av, b1, c21);
    av = _mm256_set1_ps(a3[kk]);
    c30 = _mm256_fmadd_ps(av, b0, c30);
    c31 = _mm256_fmadd_ps(av, b1, c31);
    av = _mm256_set1_ps(a4[kk]);
    c40 = _mm256_fmadd_ps(av, b0, c40);
    c41 = _mm256_fmadd_ps(av, b1, c41);
    av = _mm256_set1_ps(a5[kk]);
    c50 = _mm256_fmadd_ps(av, b0, c50);
    c51 = _mm256_fmadd_ps(av, b1, c51);
  }
  float* crow = pc + i * n + j;
  _mm256_storeu_ps(crow, c00);
  _mm256_storeu_ps(crow + 8, c01);
  crow += n;
  _mm256_storeu_ps(crow, c10);
  _mm256_storeu_ps(crow + 8, c11);
  crow += n;
  _mm256_storeu_ps(crow, c20);
  _mm256_storeu_ps(crow + 8, c21);
  crow += n;
  _mm256_storeu_ps(crow, c30);
  _mm256_storeu_ps(crow + 8, c31);
  crow += n;
  _mm256_storeu_ps(crow, c40);
  _mm256_storeu_ps(crow + 8, c41);
  crow += n;
  _mm256_storeu_ps(crow, c50);
  _mm256_storeu_ps(crow + 8, c51);
}

/// Columns [j0, n) of rows [i, i+RB): the 8-wide and scalar column tails of
/// the template tile, run after a row block's wider tiles.
template <int RB>
void MatMulColsTail(const float* pa, const float* pb, float* pc, int64_t i,
                    int64_t j0, int64_t k, int64_t n) {
  const float* arow[RB];
  float* crow[RB];
  for (int r = 0; r < RB; ++r) {
    arow[r] = pa + (i + r) * k;
    crow[r] = pc + (i + r) * n;
  }
  int64_t j = j0;
  if (j + 8 <= n) {
    __m256 acc[RB];
    for (int r = 0; r < RB; ++r) acc[r] = _mm256_setzero_ps();
    for (int64_t kk = 0; kk < k; ++kk) {
      const __m256 b0 = _mm256_loadu_ps(pb + kk * n + j);
      for (int r = 0; r < RB; ++r) {
        acc[r] = _mm256_fmadd_ps(_mm256_set1_ps(arow[r][kk]), b0, acc[r]);
      }
    }
    for (int r = 0; r < RB; ++r) _mm256_storeu_ps(crow[r] + j, acc[r]);
    j += 8;
  }
  for (; j < n; ++j) {
    float acc[RB] = {};
    for (int64_t kk = 0; kk < k; ++kk) {
      const float bv = pb[kk * n + j];
      for (int r = 0; r < RB; ++r) acc[r] = std::fmaf(arow[r][kk], bv, acc[r]);
    }
    for (int r = 0; r < RB; ++r) crow[r][j] = acc[r];
  }
}

void MatMulRowsYmm(const float* pa, const float* pb, float* pc, int64_t i0,
                   int64_t i1, int64_t k, int64_t n) {
  int64_t i = i0;
  for (; i + 6 <= i1; i += 6) {
    int64_t j = 0;
    for (; j + 16 <= n; j += 16) MatMulTile6x16(pa, pb, pc, i, j, k, n);
    if (j < n) MatMulColsTail<6>(pa, pb, pc, i, j, k, n);
  }
  for (; i + 4 <= i1; i += 4) MatMulTile<4>(pa, pb, pc, i, k, n);
  for (; i < i1; ++i) MatMulTile<1>(pa, pb, pc, i, k, n);
}

#if BOOTLEG_SIMD_AVX512

/// 8 rows × 32 columns in zmm registers (16 named accumulators + 2 B panels
/// + 1 broadcast = 19 of 32 zmm). Vector width does not touch rounding:
/// each element is still one ascending-k FMA chain, so 512-bit results
/// equal the 256-bit and contracted-scalar ones bitwise. With two 512-bit
/// FMA pipes this roughly doubles flops/cycle over the ymm tile; 16 FMAs
/// per two B-panel loads keeps the loop FMA-bound even when the unaligned
/// 64-byte loads split cache lines, and 8-row blocks tile the common
/// power-of-two row counts exactly (no scalar row tail at m = 128).
void MatMulTile8x32(const float* pa, const float* pb, float* pc, int64_t i,
                    int64_t j, int64_t k, int64_t n) {
  const float* a0 = pa + i * k;
  const float* a1 = a0 + k;
  const float* a2 = a1 + k;
  const float* a3 = a2 + k;
  const float* a4 = a3 + k;
  const float* a5 = a4 + k;
  const float* a6 = a5 + k;
  const float* a7 = a6 + k;
  __m512 c00 = _mm512_setzero_ps(), c01 = _mm512_setzero_ps();
  __m512 c10 = _mm512_setzero_ps(), c11 = _mm512_setzero_ps();
  __m512 c20 = _mm512_setzero_ps(), c21 = _mm512_setzero_ps();
  __m512 c30 = _mm512_setzero_ps(), c31 = _mm512_setzero_ps();
  __m512 c40 = _mm512_setzero_ps(), c41 = _mm512_setzero_ps();
  __m512 c50 = _mm512_setzero_ps(), c51 = _mm512_setzero_ps();
  __m512 c60 = _mm512_setzero_ps(), c61 = _mm512_setzero_ps();
  __m512 c70 = _mm512_setzero_ps(), c71 = _mm512_setzero_ps();
  for (int64_t kk = 0; kk < k; ++kk) {
    const float* brow = pb + kk * n + j;
    const __m512 b0 = _mm512_loadu_ps(brow);
    const __m512 b1 = _mm512_loadu_ps(brow + 16);
    __m512 av;
    av = _mm512_set1_ps(a0[kk]);
    c00 = _mm512_fmadd_ps(av, b0, c00);
    c01 = _mm512_fmadd_ps(av, b1, c01);
    av = _mm512_set1_ps(a1[kk]);
    c10 = _mm512_fmadd_ps(av, b0, c10);
    c11 = _mm512_fmadd_ps(av, b1, c11);
    av = _mm512_set1_ps(a2[kk]);
    c20 = _mm512_fmadd_ps(av, b0, c20);
    c21 = _mm512_fmadd_ps(av, b1, c21);
    av = _mm512_set1_ps(a3[kk]);
    c30 = _mm512_fmadd_ps(av, b0, c30);
    c31 = _mm512_fmadd_ps(av, b1, c31);
    av = _mm512_set1_ps(a4[kk]);
    c40 = _mm512_fmadd_ps(av, b0, c40);
    c41 = _mm512_fmadd_ps(av, b1, c41);
    av = _mm512_set1_ps(a5[kk]);
    c50 = _mm512_fmadd_ps(av, b0, c50);
    c51 = _mm512_fmadd_ps(av, b1, c51);
    av = _mm512_set1_ps(a6[kk]);
    c60 = _mm512_fmadd_ps(av, b0, c60);
    c61 = _mm512_fmadd_ps(av, b1, c61);
    av = _mm512_set1_ps(a7[kk]);
    c70 = _mm512_fmadd_ps(av, b0, c70);
    c71 = _mm512_fmadd_ps(av, b1, c71);
  }
  float* crow = pc + i * n + j;
  _mm512_storeu_ps(crow, c00);
  _mm512_storeu_ps(crow + 16, c01);
  crow += n;
  _mm512_storeu_ps(crow, c10);
  _mm512_storeu_ps(crow + 16, c11);
  crow += n;
  _mm512_storeu_ps(crow, c20);
  _mm512_storeu_ps(crow + 16, c21);
  crow += n;
  _mm512_storeu_ps(crow, c30);
  _mm512_storeu_ps(crow + 16, c31);
  crow += n;
  _mm512_storeu_ps(crow, c40);
  _mm512_storeu_ps(crow + 16, c41);
  crow += n;
  _mm512_storeu_ps(crow, c50);
  _mm512_storeu_ps(crow + 16, c51);
  crow += n;
  _mm512_storeu_ps(crow, c60);
  _mm512_storeu_ps(crow + 16, c61);
  crow += n;
  _mm512_storeu_ps(crow, c70);
  _mm512_storeu_ps(crow + 16, c71);
}

/// 8 rows × 16 columns, one zmm accumulator per row.
void MatMulTile8x16z(const float* pa, const float* pb, float* pc, int64_t i,
                     int64_t j, int64_t k, int64_t n) {
  const float* a0 = pa + i * k;
  const float* a1 = a0 + k;
  const float* a2 = a1 + k;
  const float* a3 = a2 + k;
  const float* a4 = a3 + k;
  const float* a5 = a4 + k;
  const float* a6 = a5 + k;
  const float* a7 = a6 + k;
  __m512 c0 = _mm512_setzero_ps();
  __m512 c1 = _mm512_setzero_ps();
  __m512 c2 = _mm512_setzero_ps();
  __m512 c3 = _mm512_setzero_ps();
  __m512 c4 = _mm512_setzero_ps();
  __m512 c5 = _mm512_setzero_ps();
  __m512 c6 = _mm512_setzero_ps();
  __m512 c7 = _mm512_setzero_ps();
  for (int64_t kk = 0; kk < k; ++kk) {
    const __m512 b0 = _mm512_loadu_ps(pb + kk * n + j);
    c0 = _mm512_fmadd_ps(_mm512_set1_ps(a0[kk]), b0, c0);
    c1 = _mm512_fmadd_ps(_mm512_set1_ps(a1[kk]), b0, c1);
    c2 = _mm512_fmadd_ps(_mm512_set1_ps(a2[kk]), b0, c2);
    c3 = _mm512_fmadd_ps(_mm512_set1_ps(a3[kk]), b0, c3);
    c4 = _mm512_fmadd_ps(_mm512_set1_ps(a4[kk]), b0, c4);
    c5 = _mm512_fmadd_ps(_mm512_set1_ps(a5[kk]), b0, c5);
    c6 = _mm512_fmadd_ps(_mm512_set1_ps(a6[kk]), b0, c6);
    c7 = _mm512_fmadd_ps(_mm512_set1_ps(a7[kk]), b0, c7);
  }
  _mm512_storeu_ps(pc + (i + 0) * n + j, c0);
  _mm512_storeu_ps(pc + (i + 1) * n + j, c1);
  _mm512_storeu_ps(pc + (i + 2) * n + j, c2);
  _mm512_storeu_ps(pc + (i + 3) * n + j, c3);
  _mm512_storeu_ps(pc + (i + 4) * n + j, c4);
  _mm512_storeu_ps(pc + (i + 5) * n + j, c5);
  _mm512_storeu_ps(pc + (i + 6) * n + j, c6);
  _mm512_storeu_ps(pc + (i + 7) * n + j, c7);
}

/// RB rows × 16·CB columns, one zmm accumulator per row and 16 columns: the
/// short-row tiles for the row blocks below 8 that batch-1 serving runs. One
/// row here keeps CB 16-lane FMA chains in flight where the ymm MatMulTile<1>
/// keeps two 8-lane ones. Each element is still one ascending-k FMA chain.
template <int RB, int CB>
void MatMulTileZ(const float* pa, const float* pb, float* pc, int64_t i,
                 int64_t j, int64_t k, int64_t n) {
  const float* arow[RB];
  for (int r = 0; r < RB; ++r) arow[r] = pa + (i + r) * k;
  __m512 acc[RB][CB];
  for (int r = 0; r < RB; ++r) {
    for (int c = 0; c < CB; ++c) acc[r][c] = _mm512_setzero_ps();
  }
  for (int64_t kk = 0; kk < k; ++kk) {
    const float* brow = pb + kk * n + j;
    __m512 b[CB];
    for (int c = 0; c < CB; ++c) b[c] = _mm512_loadu_ps(brow + 16 * c);
    for (int r = 0; r < RB; ++r) {
      const __m512 av = _mm512_set1_ps(arow[r][kk]);
      for (int c = 0; c < CB; ++c) {
        acc[r][c] = _mm512_fmadd_ps(av, b[c], acc[r][c]);
      }
    }
  }
  for (int r = 0; r < RB; ++r) {
    for (int c = 0; c < CB; ++c) {
      _mm512_storeu_ps(pc + (i + r) * n + j + 16 * c, acc[r][c]);
    }
  }
}

/// All n >= 16 columns of rows [i, i+RB), RB in {4, 2, 1}: 64-, 32- and
/// 16-wide zmm tiles, then the ymm and scalar column tails.
template <int RB>
void MatMulRowsZmmShort(const float* pa, const float* pb, float* pc, int64_t i,
                        int64_t k, int64_t n) {
  int64_t j = 0;
  for (; j + 64 <= n; j += 64) MatMulTileZ<RB, 4>(pa, pb, pc, i, j, k, n);
  if (j + 32 <= n) {
    MatMulTileZ<RB, 2>(pa, pb, pc, i, j, k, n);
    j += 32;
  }
  if (j + 16 <= n) {
    MatMulTileZ<RB, 1>(pa, pb, pc, i, j, k, n);
    j += 16;
  }
  if (j < n) MatMulColsTail<RB>(pa, pb, pc, i, j, k, n);
}

void MatMulRowsZmm(const float* pa, const float* pb, float* pc, int64_t i0,
                   int64_t i1, int64_t k, int64_t n) {
  int64_t i = i0;
  for (; i + 8 <= i1; i += 8) {
    int64_t j = 0;
    for (; j + 32 <= n; j += 32) MatMulTile8x32(pa, pb, pc, i, j, k, n);
    if (j + 16 <= n) {
      MatMulTile8x16z(pa, pb, pc, i, j, k, n);
      j += 16;
    }
    if (j < n) MatMulColsTail<8>(pa, pb, pc, i, j, k, n);
  }
  if (i + 4 <= i1) {
    MatMulRowsZmmShort<4>(pa, pb, pc, i, k, n);
    i += 4;
  }
  if (i + 2 <= i1) {
    MatMulRowsZmmShort<2>(pa, pb, pc, i, k, n);
    i += 2;
  }
  if (i < i1) MatMulRowsZmmShort<1>(pa, pb, pc, i, k, n);
}
#endif  // BOOTLEG_SIMD_AVX512

/// Rows [i, i+RB) of C = Aᵀ·B for A [k,m]: MatMulTile with the reduction
/// walking A down a column (stride m).
template <int RB>
void MatMulTATile(const float* pa, const float* pb, float* pc, int64_t i,
                  int64_t k, int64_t m, int64_t n) {
  float* crow[RB];
  for (int r = 0; r < RB; ++r) crow[r] = pc + (i + r) * n;
  int64_t j = 0;
  for (; j + 8 <= n; j += 8) {
    __m256 acc[RB];
    for (int r = 0; r < RB; ++r) acc[r] = _mm256_setzero_ps();
    for (int64_t kk = 0; kk < k; ++kk) {
      const __m256 b0 = _mm256_loadu_ps(pb + kk * n + j);
      const float* acol = pa + kk * m + i;
      for (int r = 0; r < RB; ++r) {
        acc[r] = _mm256_fmadd_ps(_mm256_set1_ps(acol[r]), b0, acc[r]);
      }
    }
    for (int r = 0; r < RB; ++r) _mm256_storeu_ps(crow[r] + j, acc[r]);
  }
  for (; j < n; ++j) {
    float acc[RB] = {};
    for (int64_t kk = 0; kk < k; ++kk) {
      const float bv = pb[kk * n + j];
      const float* acol = pa + kk * m + i;
      for (int r = 0; r < RB; ++r) acc[r] = std::fmaf(acol[r], bv, acc[r]);
    }
    for (int r = 0; r < RB; ++r) crow[r][j] = acc[r];
  }
}

/// One output row of C = A·Bᵀ, k >= 16, JB columns at a time. Mirrors the
/// portable 16-lane accumulator exactly: acc_lo lane p sums kk ≡ p (mod 16),
/// acc_hi lane p sums kk ≡ p+8, the fold below is the portable loop's fixed
/// 16→8→4→2→1 halving expressed as vector adds, and the k-tail is a scalar
/// FMA chain folded in last.
template <int JB>
void MatMulTBTile(const float* arow, const float* pb, float* crow, int64_t j,
                  int64_t k) {
  const float* brow[JB];
  for (int c = 0; c < JB; ++c) brow[c] = pb + (j + c) * k;
  __m256 lo[JB], hi[JB];
  for (int c = 0; c < JB; ++c) {
    lo[c] = _mm256_setzero_ps();
    hi[c] = _mm256_setzero_ps();
  }
  int64_t kk = 0;
  for (; kk + 16 <= k; kk += 16) {
    const __m256 a0 = _mm256_loadu_ps(arow + kk);
    const __m256 a1 = _mm256_loadu_ps(arow + kk + 8);
    for (int c = 0; c < JB; ++c) {
      lo[c] = _mm256_fmadd_ps(a0, _mm256_loadu_ps(brow[c] + kk), lo[c]);
      hi[c] = _mm256_fmadd_ps(a1, _mm256_loadu_ps(brow[c] + kk + 8), hi[c]);
    }
  }
  for (int c = 0; c < JB; ++c) {
    float tail = 0.0f;
    for (int64_t kt = kk; kt < k; ++kt) {
      tail = std::fmaf(arow[kt], brow[c][kt], tail);
    }
    const __m256 v = _mm256_add_ps(lo[c], hi[c]);  // lanes[l] += lanes[l+8]
    __m128 x = _mm_add_ps(_mm256_castps256_ps128(v),
                          _mm256_extractf128_ps(v, 1));  // += lanes[l+4]
    x = _mm_add_ps(x, _mm_movehl_ps(x, x));              // += lanes[l+2]
    const float pair0 = _mm_cvtss_f32(x);
    const float pair1 = _mm_cvtss_f32(_mm_shuffle_ps(x, x, 0x1));
    crow[j + c] = (pair0 + pair1) + tail;
  }
}

}  // namespace

/// Picks the widest tile the CPU supports. The choice is cached process-wide
/// and cannot affect results — only speed.
void MatMulRows(const float* pa, const float* pb, float* pc, int64_t i0,
                int64_t i1, int64_t k, int64_t n) {
#if BOOTLEG_SIMD_AVX512
  if (CpuHasAvx512() && n >= 16) {
    MatMulRowsZmm(pa, pb, pc, i0, i1, k, n);
    return;
  }
#endif
  MatMulRowsYmm(pa, pb, pc, i0, i1, k, n);
}

void MatMulTARows(const float* pa, const float* pb, float* pc, int64_t i0,
                  int64_t i1, int64_t k, int64_t m, int64_t n) {
  int64_t i = i0;
  for (; i + 4 <= i1; i += 4) MatMulTATile<4>(pa, pb, pc, i, k, m, n);
  for (; i < i1; ++i) MatMulTATile<1>(pa, pb, pc, i, k, m, n);
}

void MatMulTBRows(const float* pa, const float* pb, float* pc, int64_t i0,
                  int64_t i1, int64_t k, int64_t n) {
  for (int64_t i = i0; i < i1; ++i) {
    const float* arow = pa + i * k;
    float* crow = pc + i * n;
    int64_t j = 0;
    for (; j + 4 <= n; j += 4) MatMulTBTile<4>(arow, pb, crow, j, k);
    for (; j < n; ++j) MatMulTBTile<1>(arow, pb, crow, j, k);
  }
}

#else  // !BOOTLEG_SIMD_AVX2

// Never reached: CpuHasAvx2Fma() is false in a build without the tiles.
void MatMulRows(const float*, const float*, float*, int64_t, int64_t, int64_t,
                int64_t) {
  std::abort();
}
void MatMulTARows(const float*, const float*, float*, int64_t, int64_t,
                  int64_t, int64_t, int64_t) {
  std::abort();
}
void MatMulTBRows(const float*, const float*, float*, int64_t, int64_t,
                  int64_t, int64_t) {
  std::abort();
}

#endif  // BOOTLEG_SIMD_AVX2

}  // namespace bootleg::backend::simd
