#pragma once
// SIMD lane wrapper for the batch math kernels. The wrapper exposes
// the static interface vmath.h and kernels_impl.h are written against
// (broadcast/load/store, arithmetic operators, masks-as-lanes
// compare/blend, and the two bit-level primitives the exp/log kernels
// need), so those headers stay templates over the lane type.
//
// This header is only included from the kernel translation units:
// kernels_avx2.cpp (compiled with -mavx2 -mfma; the wrapper is guarded
// by __AVX2__ && __FMA__ so other build targets simply skip it) and,
// through the shared M-step body in kernels_impl.h,
// kernels_scalar.cpp, which instantiates no lane type. Nothing here
// may leak into baseline TUs: per-TU -march flags must not generate
// inline code reachable from the portable binary.
//
// mul_add() fuses (vfmadd); two_prod() is an *exact* product through
// FMA, because the double-double correction steps in vmath.h need the
// true residual.

#include <cstdint>

#if defined(__AVX2__) && defined(__FMA__)
#include <immintrin.h>
#endif

namespace lvf2::simd {

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
/// Lanes where a is NaN (unordered with itself).
inline VecAvx2 cmp_nan(VecAvx2 a) {
  return {_mm256_cmp_pd(a.v, a.v, _CMP_UNORD_Q)};
}
inline VecAvx2 and_v(VecAvx2 a, VecAvx2 b) {
  return {_mm256_and_pd(a.v, b.v)};
}
inline VecAvx2 or_v(VecAvx2 a, VecAvx2 b) {
  return {_mm256_or_pd(a.v, b.v)};
}
/// a & ~mask.
inline VecAvx2 andnot_v(VecAvx2 mask, VecAvx2 a) {
  return {_mm256_andnot_pd(mask.v, a.v)};
}
/// a where mask lanes are all-ones, else b.
inline VecAvx2 blend_v(VecAvx2 mask, VecAvx2 a, VecAvx2 b) {
  return {_mm256_blendv_pd(b.v, a.v, mask.v)};
}
inline bool any(VecAvx2 mask) { return _mm256_movemask_pd(mask.v) != 0; }
inline int mask_bits(VecAvx2 mask) { return _mm256_movemask_pd(mask.v); }

/// a*b + c, one rounding.
inline VecAvx2 mul_add(VecAvx2 a, VecAvx2 b, VecAvx2 c) {
  return {_mm256_fmadd_pd(a.v, b.v, c.v)};
}

/// Exact product: hi + lo == a*b exactly.
inline void two_prod(VecAvx2 a, VecAvx2 b, VecAvx2& hi, VecAvx2& lo) {
  __m256d p = _mm256_mul_pd(a.v, b.v);
  hi = {p};
  lo = {_mm256_fmsub_pd(a.v, b.v, p)};
}

/// Round to nearest integer, result as double lanes.
inline VecAvx2 round_nearest(VecAvx2 a) {
  return {_mm256_round_pd(a.v,
                          _MM_FROUND_TO_NEAREST_INT | _MM_FROUND_NO_EXC)};
}

/// y * 2^n for integral-valued double lanes n with n in [-1021, 1021]
/// (callers split larger scalings in two). Builds 2^n as a value and
/// multiplies, so results that underflow to subnormal round correctly.
inline VecAvx2 ldexp_small(VecAvx2 y, VecAvx2 n) {
  __m128i ni = _mm256_cvtpd_epi32(n.v);
  __m256i wide = _mm256_cvtepi32_epi64(ni);
  __m256i bits = _mm256_slli_epi64(
      _mm256_add_epi64(wide, _mm256_set1_epi64x(1023)), 52);
  return {_mm256_mul_pd(y.v, _mm256_castsi256_pd(bits))};
}

/// fdlibm log argument split for strictly normal positive x:
/// x = m * 2^k with m in [sqrt(2)/2, sqrt(2)).
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
  // Exponents fit in 32 bits; compress the low halves and convert.
  __m256i idx = _mm256_setr_epi32(0, 2, 4, 6, 0, 0, 0, 0);
  __m128i lo32 =
      _mm256_castsi256_si128(_mm256_permutevar8x32_epi32(e, idx));
  k = {_mm256_cvtepi32_pd(lo32)};
}

#endif  // __AVX2__ && __FMA__

}  // namespace lvf2::simd
