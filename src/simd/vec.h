#pragma once
// SIMD lane wrappers for the batch math kernels. Each wrapper exposes
// the same static interface (broadcast/load/store, arithmetic
// operators, masks-as-lanes compare/blend, and the two bit-level
// primitives the exp/log kernels need), so vmath.h and
// kernels_impl.h are written once as templates and instantiated per
// ISA in kernels_sse2.cpp / kernels_avx2.cpp.
//
// This header is only included from the kernel translation units:
// kernels_sse2.cpp (baseline x86-64 — SSE2 is unconditional there),
// kernels_avx2.cpp (compiled with -mavx2 -mfma, guarded by __AVX2__
// so other build targets simply skip the type) and, through the
// shared M-step body in kernels_impl.h, kernels_scalar.cpp, which
// instantiates no lane type (each wrapper is guarded by its ISA
// macro, so that TU builds on any target). Nothing here may leak into
// baseline TUs: per-TU -march flags must not generate inline code
// reachable from the portable binary.
//
// Two-product policy: mul_add() fuses on AVX2 (vfmadd) and falls
// back to separate multiply+add on SSE2; two_prod() is an *exact*
// product on both tiers — native FMA on AVX2, a Veltkamp split on
// SSE2 — because the double-double correction steps in vmath.h need
// the true residual, not a faster rounding.

#include <cstdint>

#if defined(__SSE2__)
#include <immintrin.h>
#endif

namespace lvf2::simd {

#if defined(__SSE2__)

struct VecSse2 {
  __m128d v;
  static constexpr int kLanes = 2;

  static VecSse2 broadcast(double x) { return {_mm_set1_pd(x)}; }
  static VecSse2 load(const double* p) { return {_mm_loadu_pd(p)}; }
  static VecSse2 zero() { return {_mm_setzero_pd()}; }
  void store(double* p) const { _mm_storeu_pd(p, v); }
};

inline VecSse2 operator+(VecSse2 a, VecSse2 b) {
  return {_mm_add_pd(a.v, b.v)};
}
inline VecSse2 operator-(VecSse2 a, VecSse2 b) {
  return {_mm_sub_pd(a.v, b.v)};
}
inline VecSse2 operator*(VecSse2 a, VecSse2 b) {
  return {_mm_mul_pd(a.v, b.v)};
}
inline VecSse2 operator/(VecSse2 a, VecSse2 b) {
  return {_mm_div_pd(a.v, b.v)};
}
inline VecSse2 neg(VecSse2 a) {
  return {_mm_xor_pd(a.v, _mm_set1_pd(-0.0))};
}
inline VecSse2 abs_v(VecSse2 a) {
  return {_mm_andnot_pd(_mm_set1_pd(-0.0), a.v)};
}
inline VecSse2 sqrt_v(VecSse2 a) { return {_mm_sqrt_pd(a.v)}; }
inline VecSse2 max_v(VecSse2 a, VecSse2 b) {
  return {_mm_max_pd(a.v, b.v)};
}
inline VecSse2 min_v(VecSse2 a, VecSse2 b) {
  return {_mm_min_pd(a.v, b.v)};
}
inline VecSse2 cmp_lt(VecSse2 a, VecSse2 b) {
  return {_mm_cmplt_pd(a.v, b.v)};
}
inline VecSse2 cmp_le(VecSse2 a, VecSse2 b) {
  return {_mm_cmple_pd(a.v, b.v)};
}
inline VecSse2 cmp_ge(VecSse2 a, VecSse2 b) {
  return {_mm_cmpge_pd(a.v, b.v)};
}
inline VecSse2 cmp_eq(VecSse2 a, VecSse2 b) {
  return {_mm_cmpeq_pd(a.v, b.v)};
}
/// Lanes where a is NaN (unordered with itself).
inline VecSse2 cmp_nan(VecSse2 a) { return {_mm_cmpunord_pd(a.v, a.v)}; }
inline VecSse2 and_v(VecSse2 a, VecSse2 b) {
  return {_mm_and_pd(a.v, b.v)};
}
inline VecSse2 or_v(VecSse2 a, VecSse2 b) { return {_mm_or_pd(a.v, b.v)}; }
/// a & ~mask.
inline VecSse2 andnot_v(VecSse2 mask, VecSse2 a) {
  return {_mm_andnot_pd(mask.v, a.v)};
}
/// a where mask lanes are all-ones, else b.
inline VecSse2 blend_v(VecSse2 mask, VecSse2 a, VecSse2 b) {
  return {_mm_or_pd(_mm_and_pd(mask.v, a.v), _mm_andnot_pd(mask.v, b.v))};
}
inline bool any(VecSse2 mask) { return _mm_movemask_pd(mask.v) != 0; }
inline int mask_bits(VecSse2 mask) { return _mm_movemask_pd(mask.v); }

/// a*b + c; SSE2 has no FMA, so two roundings.
inline VecSse2 mul_add(VecSse2 a, VecSse2 b, VecSse2 c) {
  return {_mm_add_pd(_mm_mul_pd(a.v, b.v), c.v)};
}

/// Exact product: hi + lo == a*b exactly. Veltkamp split (no FMA on
/// SSE2); exact as long as no intermediate overflows, which holds for
/// every call site in vmath.h (|a*b| < 1e300).
inline void two_prod(VecSse2 a, VecSse2 b, VecSse2& hi, VecSse2& lo) {
  const __m128d split = _mm_set1_pd(134217729.0);  // 2^27 + 1
  __m128d p = _mm_mul_pd(a.v, b.v);
  __m128d ta = _mm_mul_pd(a.v, split);
  __m128d ahi = _mm_sub_pd(ta, _mm_sub_pd(ta, a.v));
  __m128d alo = _mm_sub_pd(a.v, ahi);
  __m128d tb = _mm_mul_pd(b.v, split);
  __m128d bhi = _mm_sub_pd(tb, _mm_sub_pd(tb, b.v));
  __m128d blo = _mm_sub_pd(b.v, bhi);
  __m128d err = _mm_add_pd(
      _mm_add_pd(
          _mm_add_pd(_mm_sub_pd(_mm_mul_pd(ahi, bhi), p),
                     _mm_mul_pd(ahi, blo)),
          _mm_mul_pd(alo, bhi)),
      _mm_mul_pd(alo, blo));
  hi = {p};
  lo = {err};
}

/// Round to nearest integer, result as double lanes. cvtpd_epi32
/// rounds to nearest-even, which is all the exp reduction needs.
inline VecSse2 round_nearest(VecSse2 a) {
  return {_mm_cvtepi32_pd(_mm_cvtpd_epi32(a.v))};
}

/// y * 2^n for integral-valued double lanes n with n in [-1021, 1021]
/// (callers split larger scalings in two). Builds 2^n as a value and
/// multiplies, so results that underflow to subnormal round correctly.
inline VecSse2 ldexp_small(VecSse2 y, VecSse2 n) {
  __m128i ni = _mm_cvtpd_epi32(n.v);              // [n0 n1 * *] as i32
  __m128i wide = _mm_unpacklo_epi32(ni, _mm_srai_epi32(ni, 31));
  __m128i bits =
      _mm_slli_epi64(_mm_add_epi64(wide, _mm_set1_epi64x(1023)), 52);
  return {_mm_mul_pd(y.v, _mm_castsi128_pd(bits))};
}

/// fdlibm log argument split for strictly normal positive x:
/// x = m * 2^k with m in [sqrt(2)/2, sqrt(2)).
inline void log_split(VecSse2 x, VecSse2& m, VecSse2& k) {
  const __m128i mant_mask = _mm_set1_epi64x(0x000FFFFFFFFFFFFFLL);
  const __m128i magic = _mm_set1_epi64x(0x00095F6400000000LL);
  const __m128i top = _mm_set1_epi64x(0x0010000000000000LL);
  const __m128i bias = _mm_set1_epi64x(1023);
  __m128i bits = _mm_castpd_si128(x.v);
  __m128i e = _mm_sub_epi64(_mm_srli_epi64(bits, 52), bias);
  __m128i frac = _mm_and_si128(bits, mant_mask);
  __m128i i = _mm_and_si128(_mm_add_epi64(frac, magic), top);
  e = _mm_add_epi64(e, _mm_srli_epi64(i, 52));
  __m128i mbits = _mm_or_si128(
      frac, _mm_xor_si128(_mm_set1_epi64x(0x3FF0000000000000LL), i));
  m = {_mm_castsi128_pd(mbits)};
  // Exponents fit in 32 bits; compress the low halves and convert.
  __m128i lo32 = _mm_shuffle_epi32(e, _MM_SHUFFLE(3, 1, 2, 0));
  k = {_mm_cvtepi32_pd(lo32)};
}

#endif  // __SSE2__

#if defined(__AVX2__) && defined(__FMA__)

struct VecAvx2 {
  __m256d v;
  static constexpr int kLanes = 4;

  static VecAvx2 broadcast(double x) { return {_mm256_set1_pd(x)}; }
  static VecAvx2 load(const double* p) { return {_mm256_loadu_pd(p)}; }
  static VecAvx2 zero() { return {_mm256_setzero_pd()}; }
  void store(double* p) const { _mm256_storeu_pd(p, v); }
};

inline VecAvx2 operator+(VecAvx2 a, VecAvx2 b) {
  return {_mm256_add_pd(a.v, b.v)};
}
inline VecAvx2 operator-(VecAvx2 a, VecAvx2 b) {
  return {_mm256_sub_pd(a.v, b.v)};
}
inline VecAvx2 operator*(VecAvx2 a, VecAvx2 b) {
  return {_mm256_mul_pd(a.v, b.v)};
}
inline VecAvx2 operator/(VecAvx2 a, VecAvx2 b) {
  return {_mm256_div_pd(a.v, b.v)};
}
inline VecAvx2 neg(VecAvx2 a) {
  return {_mm256_xor_pd(a.v, _mm256_set1_pd(-0.0))};
}
inline VecAvx2 abs_v(VecAvx2 a) {
  return {_mm256_andnot_pd(_mm256_set1_pd(-0.0), a.v)};
}
inline VecAvx2 sqrt_v(VecAvx2 a) { return {_mm256_sqrt_pd(a.v)}; }
inline VecAvx2 max_v(VecAvx2 a, VecAvx2 b) {
  return {_mm256_max_pd(a.v, b.v)};
}
inline VecAvx2 min_v(VecAvx2 a, VecAvx2 b) {
  return {_mm256_min_pd(a.v, b.v)};
}
inline VecAvx2 cmp_lt(VecAvx2 a, VecAvx2 b) {
  return {_mm256_cmp_pd(a.v, b.v, _CMP_LT_OQ)};
}
inline VecAvx2 cmp_le(VecAvx2 a, VecAvx2 b) {
  return {_mm256_cmp_pd(a.v, b.v, _CMP_LE_OQ)};
}
inline VecAvx2 cmp_ge(VecAvx2 a, VecAvx2 b) {
  return {_mm256_cmp_pd(a.v, b.v, _CMP_GE_OQ)};
}
inline VecAvx2 cmp_eq(VecAvx2 a, VecAvx2 b) {
  return {_mm256_cmp_pd(a.v, b.v, _CMP_EQ_OQ)};
}
inline VecAvx2 cmp_nan(VecAvx2 a) {
  return {_mm256_cmp_pd(a.v, a.v, _CMP_UNORD_Q)};
}
inline VecAvx2 and_v(VecAvx2 a, VecAvx2 b) {
  return {_mm256_and_pd(a.v, b.v)};
}
inline VecAvx2 or_v(VecAvx2 a, VecAvx2 b) {
  return {_mm256_or_pd(a.v, b.v)};
}
inline VecAvx2 andnot_v(VecAvx2 mask, VecAvx2 a) {
  return {_mm256_andnot_pd(mask.v, a.v)};
}
inline VecAvx2 blend_v(VecAvx2 mask, VecAvx2 a, VecAvx2 b) {
  return {_mm256_blendv_pd(b.v, a.v, mask.v)};
}
inline bool any(VecAvx2 mask) { return _mm256_movemask_pd(mask.v) != 0; }
inline int mask_bits(VecAvx2 mask) { return _mm256_movemask_pd(mask.v); }

inline VecAvx2 mul_add(VecAvx2 a, VecAvx2 b, VecAvx2 c) {
  return {_mm256_fmadd_pd(a.v, b.v, c.v)};
}

inline void two_prod(VecAvx2 a, VecAvx2 b, VecAvx2& hi, VecAvx2& lo) {
  __m256d p = _mm256_mul_pd(a.v, b.v);
  hi = {p};
  lo = {_mm256_fmsub_pd(a.v, b.v, p)};
}

inline VecAvx2 round_nearest(VecAvx2 a) {
  return {_mm256_round_pd(a.v,
                          _MM_FROUND_TO_NEAREST_INT | _MM_FROUND_NO_EXC)};
}

inline VecAvx2 ldexp_small(VecAvx2 y, VecAvx2 n) {
  __m128i ni = _mm256_cvtpd_epi32(n.v);
  __m256i wide = _mm256_cvtepi32_epi64(ni);
  __m256i bits = _mm256_slli_epi64(
      _mm256_add_epi64(wide, _mm256_set1_epi64x(1023)), 52);
  return {_mm256_mul_pd(y.v, _mm256_castsi256_pd(bits))};
}

inline void log_split(VecAvx2 x, VecAvx2& m, VecAvx2& k) {
  const __m256i mant_mask = _mm256_set1_epi64x(0x000FFFFFFFFFFFFFLL);
  const __m256i magic = _mm256_set1_epi64x(0x00095F6400000000LL);
  const __m256i top = _mm256_set1_epi64x(0x0010000000000000LL);
  const __m256i bias = _mm256_set1_epi64x(1023);
  __m256i bits = _mm256_castpd_si256(x.v);
  __m256i e = _mm256_sub_epi64(_mm256_srli_epi64(bits, 52), bias);
  __m256i frac = _mm256_and_si256(bits, mant_mask);
  __m256i i = _mm256_and_si256(_mm256_add_epi64(frac, magic), top);
  e = _mm256_add_epi64(e, _mm256_srli_epi64(i, 52));
  __m256i mbits = _mm256_or_si256(
      frac, _mm256_xor_si256(_mm256_set1_epi64x(0x3FF0000000000000LL), i));
  m = {_mm256_castsi256_pd(mbits)};
  __m256i idx = _mm256_setr_epi32(0, 2, 4, 6, 0, 0, 0, 0);
  __m128i lo32 =
      _mm256_castsi256_si128(_mm256_permutevar8x32_epi32(e, idx));
  k = {_mm256_cvtepi32_pd(lo32)};
}

#endif  // __AVX2__ && __FMA__

}  // namespace lvf2::simd
