// Compiled with -ffp-contract=off (src/backend/CMakeLists.txt). Every float
// expression below is fdlibm's and must round once per operation, as glibc's
// own build evaluates it. GCC implements _mm256_mul_ps and _mm256_sub_ps as
// plain vector `*` and `-`, so under its default -ffp-contract=fast it would
// fuse them into FMAs and the vector kernel would drift from glibc on about
// 150k of the 2^32 inputs. The only FMAs here are the explicit ones in Gelu's
// inner step.
#include "backend/tanh_kernels.h"

#include <bit>
#include <cmath>
#include <cstring>

#include "backend/simd_primitives.h"

namespace bootleg::backend {

namespace {

constexpr float FromBits(uint32_t u) { return std::bit_cast<float>(u); }
constexpr uint32_t BitsOf(float f) { return std::bit_cast<uint32_t>(f); }

// fdlibm's expm1f constants.
constexpr float kLn2Hi = FromBits(0x3f317180);
constexpr float kLn2Lo = FromBits(0x3717f7d1);
constexpr float kInvLn2 = FromBits(0x3fb8aa3b);
constexpr float kQ1 = FromBits(0xbd088889);
constexpr float kQ2 = FromBits(0x3ad00d01);
constexpr float kQ3 = FromBits(0xb8a670cd);
constexpr float kQ4 = FromBits(0x36867e54);
constexpr float kQ5 = FromBits(0xb457edbb);

// Branch thresholds on the bit pattern of |x|.
constexpr int32_t kExpm1Tiny = 0x33000000;      // 2^-25
constexpr int32_t kHalfLn2 = 0x3eb17218;        // ln2 / 2
constexpr int32_t kThreeHalfLn2 = 0x3f851592;   // 3 ln2 / 2
constexpr int32_t kTinyInput = 0x24000000;      // 2^-55
constexpr int32_t kTanhOne = 0x3f800000;        // 1
constexpr int32_t kTanhHuge = 0x41b00000;       // 22
constexpr int32_t kInf = 0x7f800000;

constexpr float kSqrt2OverPi = 0.7978845608f;
constexpr float kGeluCubic = 0.044715f;

/// y·2^k by adding k to y's biased exponent, as fdlibm does.
float AddExponent(float y, int32_t k) {
  return FromBits(BitsOf(y) + (static_cast<uint32_t>(k) << 23));
}

/// fdlibm's __expm1f on the arguments Tanh passes it: 2|x| in [2, 44) and
/// -2|x| in (-2, -2^-54]. The overflow and non-finite filter and the k = 1
/// and k = 128 reductions lie outside that domain and are not ported.
float Expm1(float x) {
  const int32_t hx = static_cast<int32_t>(BitsOf(x) & 0x7fffffff);
  if (hx < kExpm1Tiny) return x;
  int32_t k = 0;
  float c = 0.0f;
  if (hx > kHalfLn2) {
    // fdlibm writes the k = -1 reduction as x + ln2_hi and -ln2_lo; the
    // general form below performs the same operations at t = -1.
    if (hx < kThreeHalfLn2) {
      k = -1;  // only negative arguments are this small
    } else {
      k = static_cast<int32_t>(kInvLn2 * x + (x < 0.0f ? -0.5f : 0.5f));
    }
    const float t = static_cast<float>(k);
    const float hi = x - t * kLn2Hi;
    const float lo = t * kLn2Lo;
    x = hi - lo;
    c = (hi - x) - lo;
  }
  const float hfx = 0.5f * x;
  const float hxs = x * hfx;
  const float r1 =
      1.0f + hxs * (kQ1 + hxs * (kQ2 + hxs * (kQ3 + hxs * (kQ4 + hxs * kQ5))));
  const float t = 3.0f - r1 * hfx;
  float e = hxs * ((r1 - t) / (6.0f - x * t));
  if (k == 0) return x - (x * e - hxs);
  e = x * (e - c) - c;
  e -= hxs;
  if (k == -1) return 0.5f * (x - e) - 0.5f;
  if (k <= -2 || k > 56) return AddExponent(1.0f - (e - x), k) - 1.0f;
  if (k < 23) {
    const float t_lo = FromBits(0x3f800000u - (0x1000000u >> k));  // 1 - 2^-k
    return AddExponent(t_lo - (e - x), k);
  }
  const float t_hi = FromBits(static_cast<uint32_t>(0x7f - k) << 23);  // 2^-k
  return AddExponent(x - (e + t_hi) + 1.0f, k);
}

float GeluInner(float v) {
  return kSqrt2OverPi * std::fmaf((kGeluCubic * v) * v, v, v);
}

float GeluOne(float v) { return (0.5f * v) * (1.0f + Tanh(GeluInner(v))); }
float GeluTanhOne(float v) { return Tanh(GeluInner(v)); }

#if BOOTLEG_SIMD_AVX2

__m256 Splat(float v) { return _mm256_set1_ps(v); }
__m256i SplatI(int32_t v) { return _mm256_set1_epi32(v); }
/// mask ? b : a, per lane.
__m256 Pick(__m256 a, __m256 b, __m256i mask) {
  return _mm256_blendv_ps(a, b, _mm256_castsi256_ps(mask));
}
// Signed compares: every operand here is either k or the bit pattern of a
// non-negative float, which orders like the unsigned compare fdlibm makes.
__m256i Less(__m256i a, int32_t b) { return _mm256_cmpgt_epi32(SplatI(b), a); }
__m256i Greater(__m256i a, int32_t b) {
  return _mm256_cmpgt_epi32(a, SplatI(b));
}
__m256 AddExponent8(__m256 y, __m256i k_shifted) {
  return _mm256_castsi256_ps(
      _mm256_add_epi32(_mm256_castps_si256(y), k_shifted));
}

/// Tanh on 8 lanes: each lane runs every branch of Tanh and Expm1 above, and
/// blends pick the one the scalar code would have taken.
__m256 Tanh8(__m256 x) {
  const __m256i jx = _mm256_castps_si256(x);
  const __m256i ix = _mm256_and_si256(jx, SplatI(0x7fffffff));
  const __m256 sign = _mm256_castsi256_ps(_mm256_xor_si256(jx, ix));
  const __m256 ax = _mm256_castsi256_ps(ix);
  const __m256i ge_one = Greater(ix, kTanhOne - 1);

  // u = expm1's argument: 2|x| at |x| >= 1, else -2|x|; hu = bits of |u|.
  const __m256 two_ax = _mm256_mul_ps(Splat(2.0f), ax);
  const __m256 u = Pick(_mm256_mul_ps(Splat(-2.0f), ax), two_ax, ge_one);
  const __m256i hu = _mm256_castps_si256(two_ax);

  // Reduction u = k·ln2 + r (with r's rounding error in c).
  const __m256 half = Pick(Splat(-0.5f), Splat(0.5f), ge_one);
  __m256i k = _mm256_cvttps_epi32(
      _mm256_add_ps(_mm256_mul_ps(Splat(kInvLn2), u), half));
  k = _mm256_blendv_epi8(k, SplatI(-1), Less(hu, kThreeHalfLn2));
  k = _mm256_and_si256(k, Greater(hu, kHalfLn2));
  const __m256 kf = _mm256_cvtepi32_ps(k);
  const __m256 hi = _mm256_sub_ps(u, _mm256_mul_ps(kf, Splat(kLn2Hi)));
  const __m256 lo = _mm256_mul_ps(kf, Splat(kLn2Lo));
  const __m256 r = _mm256_sub_ps(hi, lo);
  const __m256 c = _mm256_sub_ps(_mm256_sub_ps(hi, r), lo);

  const __m256 hfx = _mm256_mul_ps(Splat(0.5f), r);
  const __m256 hxs = _mm256_mul_ps(r, hfx);
  __m256 r1 = _mm256_add_ps(Splat(kQ4), _mm256_mul_ps(hxs, Splat(kQ5)));
  r1 = _mm256_add_ps(Splat(kQ3), _mm256_mul_ps(hxs, r1));
  r1 = _mm256_add_ps(Splat(kQ2), _mm256_mul_ps(hxs, r1));
  r1 = _mm256_add_ps(Splat(kQ1), _mm256_mul_ps(hxs, r1));
  r1 = _mm256_add_ps(Splat(1.0f), _mm256_mul_ps(hxs, r1));
  const __m256 t = _mm256_sub_ps(Splat(3.0f), _mm256_mul_ps(r1, hfx));
  __m256 e = _mm256_mul_ps(
      hxs, _mm256_div_ps(_mm256_sub_ps(r1, t),
                         _mm256_sub_ps(Splat(6.0f), _mm256_mul_ps(r, t))));
  const __m256 em1_k0 =
      _mm256_sub_ps(r, _mm256_sub_ps(_mm256_mul_ps(r, e), hxs));
  e = _mm256_sub_ps(_mm256_mul_ps(r, _mm256_sub_ps(e, c)), c);
  e = _mm256_sub_ps(e, hxs);
  const __m256 e_minus_r = _mm256_sub_ps(e, r);
  const __m256i k_shifted = _mm256_slli_epi32(k, 23);
  const __m256 em1_km1 = _mm256_sub_ps(
      _mm256_mul_ps(Splat(0.5f), _mm256_sub_ps(r, e)), Splat(0.5f));
  const __m256 em1_far = _mm256_sub_ps(
      AddExponent8(_mm256_sub_ps(Splat(1.0f), e_minus_r), k_shifted),
      Splat(1.0f));
  const __m256 t_lo = _mm256_castsi256_ps(_mm256_sub_epi32(
      SplatI(0x3f800000), _mm256_srlv_epi32(SplatI(0x1000000), k)));
  const __m256 em1_lo = AddExponent8(_mm256_sub_ps(t_lo, e_minus_r), k_shifted);
  const __m256 t_hi = _mm256_castsi256_ps(
      _mm256_slli_epi32(_mm256_sub_epi32(SplatI(0x7f), k), 23));
  const __m256 em1_hi = AddExponent8(
      _mm256_add_ps(_mm256_sub_ps(r, _mm256_add_ps(e, t_hi)), Splat(1.0f)),
      k_shifted);
  __m256 em1 = Pick(em1_hi, em1_lo, Less(k, 23));
  em1 = Pick(em1, em1_far,
             _mm256_or_si256(Greater(k, 56), Less(k, -1)));
  em1 = Pick(em1, em1_km1, _mm256_cmpeq_epi32(k, SplatI(-1)));
  em1 = Pick(em1, em1_k0, _mm256_cmpeq_epi32(k, _mm256_setzero_si256()));
  em1 = Pick(em1, u, Less(hu, kExpm1Tiny));

  // z = 1 - 2/(t+2) at |x| >= 1, -t/(t+2) below; one division serves both.
  const __m256 q = _mm256_div_ps(Pick(_mm256_xor_ps(em1, Splat(-0.0f)),
                                      Splat(2.0f), ge_one),
                                 _mm256_add_ps(em1, Splat(2.0f)));
  __m256 z = Pick(q, _mm256_sub_ps(Splat(1.0f), q), ge_one);
  z = Pick(z, Splat(1.0f), Greater(ix, kTanhHuge - 1));
  z = _mm256_xor_ps(z, sign);
  z = Pick(z, _mm256_mul_ps(x, _mm256_add_ps(Splat(1.0f), x)),
           Less(ix, kTinyInput));
  const __m256i non_finite = Greater(ix, kInf - 1);
  if (_mm256_movemask_ps(_mm256_castsi256_ps(non_finite)) != 0) {
    const __m256 inv = _mm256_div_ps(Splat(1.0f), x);
    const __m256 special =
        Pick(_mm256_add_ps(inv, Splat(1.0f)), _mm256_sub_ps(inv, Splat(1.0f)),
             _mm256_castps_si256(sign));
    z = Pick(z, special, non_finite);
  }
  return z;
}

__m256 GeluInner8(__m256 v) {
  const __m256 cubic =
      _mm256_mul_ps(_mm256_mul_ps(Splat(kGeluCubic), v), v);
  return _mm256_mul_ps(Splat(kSqrt2OverPi), _mm256_fmadd_ps(cubic, v, v));
}

__m256 Gelu8(__m256 v) {
  return _mm256_mul_ps(_mm256_mul_ps(Splat(0.5f), v),
                       _mm256_add_ps(Splat(1.0f), Tanh8(GeluInner8(v))));
}

__m256 GeluTanh8(__m256 v) { return Tanh8(GeluInner8(v)); }

/// y[i] = f(x[i]) over all n, 8 lanes at a time; the last partial vector
/// runs through a zero-padded copy.
template <__m256 (*F)(__m256)>
void Map8(const float* x, float* y, int64_t n) {
  int64_t i = 0;
  for (; i + 8 <= n; i += 8) _mm256_storeu_ps(y + i, F(_mm256_loadu_ps(x + i)));
  if (i < n) {
    const size_t rest = sizeof(float) * static_cast<size_t>(n - i);
    float buf[8] = {};
    std::memcpy(buf, x + i, rest);
    _mm256_storeu_ps(buf, F(_mm256_loadu_ps(buf)));
    std::memcpy(y + i, buf, rest);
  }
}

#endif  // BOOTLEG_SIMD_AVX2

}  // namespace

float Tanh(float x) {
  const int32_t jx = std::bit_cast<int32_t>(x);
  const int32_t ix = jx & 0x7fffffff;
  if (ix >= kInf) return jx >= 0 ? 1.0f / x + 1.0f : 1.0f / x - 1.0f;
  if (ix < kTinyInput) return x * (1.0f + x);  // ±0 included: x·(1+x) is x
  float z;
  if (ix >= kTanhHuge) {
    z = 1.0f;  // fdlibm's one - tiny, rounded
  } else if (ix >= kTanhOne) {
    const float t = Expm1(2.0f * std::fabs(x));
    z = 1.0f - 2.0f / (t + 2.0f);
  } else {
    const float t = Expm1(-2.0f * std::fabs(x));
    z = -t / (t + 2.0f);
  }
  return jx >= 0 ? z : -z;
}

void TanhRow(const float* x, float* y, int64_t n) {
#if BOOTLEG_SIMD_AVX2
  if (CpuHasAvx2Fma()) return Map8<Tanh8>(x, y, n);
#endif
  for (int64_t i = 0; i < n; ++i) y[i] = Tanh(x[i]);
}

void GeluRow(const float* x, float* y, int64_t n) {
#if BOOTLEG_SIMD_AVX2
  if (CpuHasAvx2Fma()) return Map8<Gelu8>(x, y, n);
#endif
  for (int64_t i = 0; i < n; ++i) y[i] = GeluOne(x[i]);
}

void GeluTanhRow(const float* x, float* t, int64_t n) {
#if BOOTLEG_SIMD_AVX2
  if (CpuHasAvx2Fma()) return Map8<GeluTanh8>(x, t, n);
#endif
  for (int64_t i = 0; i < n; ++i) t[i] = GeluTanhOne(x[i]);
}

}  // namespace bootleg::backend
