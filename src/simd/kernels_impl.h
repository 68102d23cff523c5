#pragma once
// Templated bodies of the SIMD batch kernels, instantiated over the
// AVX2 lane type by kernels_avx2.cpp. Layout of every kernel:
// whole vectors through the vmath.h lane code, the < kLanes tail (and
// any special-value lanes) through the scalar stats:: functions — the
// tail is therefore exact, and special handling (NaN/inf propagation)
// matches the scalar reference by construction.

#include <cmath>
#include <cstddef>
#include <cstdint>
#include <type_traits>

#include "simd/vmath.h"
#include "stats/special_functions.h"

namespace lvf2::simd::detail {

template <class V>
void k_normal_pdf(const double* x, double* out, std::size_t n) {
  std::size_t i = 0;
  for (; i + V::kLanes <= n; i += V::kLanes) {
    vnormal_pdf(V::load(x + i)).store(out + i);
  }
  for (; i < n; ++i) out[i] = stats::normal_pdf(x[i]);
}

template <class V>
void k_normal_cdf(const double* x, double* out, std::size_t n) {
  std::size_t i = 0;
  for (; i + V::kLanes <= n; i += V::kLanes) {
    vnormal_cdf(V::load(x + i)).store(out + i);
  }
  for (; i < n; ++i) out[i] = stats::normal_cdf(x[i]);
}

template <class V>
void k_normal_log_cdf(const double* x, double* out, std::size_t n) {
  std::size_t i = 0;
  for (; i + V::kLanes <= n; i += V::kLanes) {
    vnormal_log_cdf(V::load(x + i)).store(out + i);
  }
  for (; i < n; ++i) out[i] = stats::normal_log_cdf(x[i]);
}

template <class V>
void k_exp(const double* x, double* out, std::size_t n) {
  std::size_t i = 0;
  for (; i + V::kLanes <= n; i += V::kLanes) {
    vexp(V::load(x + i)).store(out + i);
  }
  for (; i < n; ++i) out[i] = std::exp(x[i]);
}

// Acklam inverse-normal coefficients (same values as the scalar
// implementation in stats/special_functions.cpp).
inline constexpr double kQa[6] = {
    -3.969683028665376e+01, 2.209460984245205e+02, -2.759285104469687e+02,
    1.383577518672690e+02,  -3.066479806614716e+01, 2.506628277459239e+00};
inline constexpr double kQb[5] = {
    -5.447609879822406e+01, 1.615858368580409e+02, -1.556989798598866e+02,
    6.680131188771972e+01,  -1.328068155288572e+01};
inline constexpr double kQc[6] = {
    -7.784894002430293e-03, -3.223964580411365e-01, -2.400758277161838e+00,
    -2.549732539343734e+00, 4.374664141464968e+00,  2.938163982698783e+00};
inline constexpr double kQd[4] = {
    7.784695709041462e-03, 3.224671290700398e-01, 2.445134137142996e+00,
    3.754408661907416e+00};

template <class V>
V acklam_tail_poly(V q) {
  V num = V::broadcast(kQc[0]);
  for (int j = 1; j < 6; ++j) num = mul_add(num, q, V::broadcast(kQc[j]));
  V den = V::broadcast(kQd[0]);
  for (int j = 1; j < 4; ++j) den = mul_add(den, q, V::broadcast(kQd[j]));
  den = mul_add(den, q, V::broadcast(1.0));
  return num / den;
}

template <class V>
V vnormal_quantile(V p) {
  const V half = V::broadcast(0.5);
  const V one = V::broadcast(1.0);
  const V plow = V::broadcast(0.02425);
  const V nan_mask = cmp_nan(p);
  const V lo_inf = cmp_le(andnot_v(nan_mask, p), V::zero());
  const V hi_inf = cmp_ge(p, one);
  // Central rational approximation (always evaluated).
  const V q = p - half;
  const V r = q * q;
  V num = V::broadcast(kQa[0]);
  for (int j = 1; j < 6; ++j) num = mul_add(num, r, V::broadcast(kQa[j]));
  V den = V::broadcast(kQb[0]);
  for (int j = 1; j < 5; ++j) den = mul_add(den, r, V::broadcast(kQb[j]));
  den = mul_add(den, r, one);
  V x = num * q / den;
  // Tails: clamp the log argument on non-tail lanes so vlog stays in
  // range; the result is blended away there.
  const V m_lo = andnot_v(or_v(nan_mask, lo_inf), cmp_lt(p, plow));
  if (any(m_lo)) {
    const V ql = sqrt_v(neg(V::broadcast(2.0)) *
                        vlog(max_v(p, V::broadcast(1e-320))));
    x = blend_v(m_lo, acklam_tail_poly(ql), x);
  }
  const V m_hi = andnot_v(hi_inf, cmp_lt(one - plow, p));
  if (any(m_hi)) {
    const V qh = sqrt_v(neg(V::broadcast(2.0)) *
                        vlog(max_v(one - p, V::broadcast(1e-320))));
    x = blend_v(m_hi, neg(acklam_tail_poly(qh)), x);
  }
  // One Halley refinement against the exact CDF (same update as
  // stats::normal_quantile).
  const V e = vnormal_cdf(x) - p;
  const V u = e * V::broadcast(2.506628274631000502415765284811045253) *
              vexp(half * x * x);
  x = x - u / (one + half * x * u);
  const V inf = one / V::zero();
  x = blend_v(lo_inf, neg(inf), x);
  x = blend_v(hi_inf, inf, x);
  return blend_v(nan_mask, p, x);
}

template <class V>
void k_normal_quantile(const double* p, double* out, std::size_t n) {
  std::size_t i = 0;
  for (; i + V::kLanes <= n; i += V::kLanes) {
    vnormal_quantile(V::load(p + i)).store(out + i);
  }
  for (; i < n; ++i) out[i] = stats::normal_quantile(p[i]);
}

// 64-point Gauss-Legendre nodes/weights on [-1, 1] (symmetric half) —
// the same scheme as the scalar owens_t_quad in
// stats/special_functions.cpp; the tables are frozen math constants.
inline constexpr double kGlNodes[32] = {
    0.0243502926634244, 0.0729931217877990, 0.1214628192961206,
    0.1696444204239928, 0.2174236437400071, 0.2646871622087674,
    0.3113228719902110, 0.3572201583376681, 0.4022701579639916,
    0.4463660172534641, 0.4894031457070530, 0.5312794640198946,
    0.5718956462026340, 0.6111553551723933, 0.6489654712546573,
    0.6852363130542333, 0.7198818501716109, 0.7528199072605319,
    0.7839723589433414, 0.8132653151227975, 0.8406292962525803,
    0.8659993981540928, 0.8893154459951141, 0.9105221370785028,
    0.9295691721319396, 0.9464113748584028, 0.9610087996520538,
    0.9733268277899110, 0.9833362538846260, 0.9910133714767443,
    0.9963401167719553, 0.9993050417357722};
inline constexpr double kGlWeights[32] = {
    0.0486909570091397, 0.0485754674415034, 0.0483447622348030,
    0.0479993885964583, 0.0475401657148303, 0.0469681828162100,
    0.0462847965813144, 0.0454916279274181, 0.0445905581637566,
    0.0435837245293235, 0.0424735151236536, 0.0412625632426235,
    0.0399537411327203, 0.0385501531786156, 0.0370551285402400,
    0.0354722132568824, 0.0338051618371416, 0.0320579283548516,
    0.0302346570724025, 0.0283396726142595, 0.0263774697150547,
    0.0243527025687109, 0.0222701738083833, 0.0201348231535302,
    0.0179517157756973, 0.0157260304760247, 0.0134630478967186,
    0.0111681394601311, 0.0088467598263639, 0.0065044579689784,
    0.0041470332605625, 0.0017832807216964};

/// Vector form of stats::owens_t_quad with the deep-tail clip folded
/// into the per-lane integration half-width.
template <class V>
V vowens_quad(V h, V a) {
  // h >= 8 clip: a <- min(a, 10/h), mirroring the scalar quadrature.
  const V m_deep = cmp_ge(h, V::broadcast(8.0));
  if (any(m_deep)) {
    a = blend_v(m_deep, min_v(a, V::broadcast(10.0) / h), a);
  }
  const V half = V::broadcast(0.5) * a;
  const V h2 = neg(V::broadcast(0.5)) * h * h;
  const V one = V::broadcast(1.0);
  V sum = V::zero();
  for (int i = 0; i < 32; ++i) {
    const V node = V::broadcast(kGlNodes[i]);
    const V xp = half * (one + node);
    const V xm = half * (one - node);
    const V dp = one + xp * xp;
    const V dm = one + xm * xm;
    const V fp = vexp(h2 * dp) / dp;
    const V fm = vexp(h2 * dm) / dm;
    sum = sum + V::broadcast(kGlWeights[i]) * (fp + fm);
  }
  return sum * half /
         V::broadcast(6.283185307179586476925286766559005768);
}

/// Precomputed per-call state for Owen's T with fixed a. All scalar
/// prep uses the std:: / stats:: functions so special lanes that get
/// fixed up scalar match stats::owens_t exactly.
struct OwensPrep {
  double sign = 1.0;
  double aa = 0.0;        // |a|
  bool a_zero = false;
  bool a_inf = false;
  bool a_nan = false;
  bool reduce = false;    // |a| > 1 -> complementary reduction
  double inv_a = 0.0;
  double h0_value = 0.0;  // sign * atan(|a|) / (2 pi)
};

inline OwensPrep owens_prepare(double a) {
  OwensPrep p;
  if (std::isnan(a)) {
    p.a_nan = true;
    return p;
  }
  p.sign = (a < 0.0) ? -1.0 : 1.0;
  p.aa = std::fabs(a);
  p.a_zero = (p.aa == 0.0);
  p.a_inf = std::isinf(p.aa);
  p.reduce = (p.aa > 1.0) && !p.a_inf;
  p.inv_a = p.reduce ? 1.0 / p.aa : 0.0;
  if (!p.a_zero) {
    // atan(inf) = pi/2, so this also covers the a = +-inf case the
    // scalar h == 0 branch reaches first.
    p.h0_value = p.sign * std::atan(p.aa) / (2.0 * stats::kPi);
  }
  return p;
}

/// Owen's T over one vector of h lanes, a fixed by `prep`. Handles
/// h = 0 and +-inf lanes inline; NaN h lanes yield NaN via blend.
template <class V>
V vowens_t(V h, const OwensPrep& prep) {
  const V nan_mask = cmp_nan(h);
  const V ha = abs_v(blend_v(nan_mask, V::zero(), h));
  V t;
  if (prep.a_inf) {
    t = V::broadcast(0.5) * vnormal_cdf(neg(ha));
  } else if (prep.reduce) {
    const V heff = V::broadcast(prep.aa) * ha;
    const V quad = vowens_quad(heff, V::broadcast(prep.inv_a));
    const V u = vnormal_cdf(neg(ha));
    const V v = vnormal_cdf(neg(heff));
    t = V::broadcast(0.5) * (u + v) - u * v - quad;
  } else {
    t = vowens_quad(ha, V::broadcast(prep.aa));
  }
  // h == 0 lanes: the exact closed form (also covers the reduced
  // path, whose quadrature degenerates there).
  t = blend_v(cmp_eq(ha, V::zero()), V::broadcast(prep.h0_value / prep.sign),
              t);
  t = t * V::broadcast(prep.sign);
  return blend_v(nan_mask, h, t);
}

template <class V>
void k_owens_t(const double* h, double a, double* out, std::size_t n) {
  const OwensPrep prep = owens_prepare(a);
  std::size_t i = 0;
  if (!prep.a_nan && !prep.a_zero) {
    for (; i + V::kLanes <= n; i += V::kLanes) {
      const V vh = V::load(h + i);
      vowens_t(vh, prep).store(out + i);
      // |h| >= 8 lanes (T < 1e-15): the quadrature's exp arguments
      // grow past ~-60, where 1-ULP rounding differences in the
      // argument are amplified ~|arg| ULP in the result. Those lanes
      // are rare in real data; recompute them scalar so the deep
      // tails match stats:: exactly.
      const V deep = cmp_ge(abs_v(vh), V::broadcast(8.0));
      if (any(deep)) {
        const int bits = mask_bits(deep);
        for (int lane = 0; lane < V::kLanes; ++lane) {
          if (bits & (1 << lane)) {
            out[i + lane] = stats::owens_t(h[i + lane], a);
          }
        }
      }
    }
  }
  for (; i < n; ++i) out[i] = stats::owens_t(h[i], a);
}

template <class V>
void k_sn_log_pdf(double xi, double omega, double alpha, const double* x,
                  double* out, std::size_t n) {
  // Loop invariants, computed with the same scalar expressions as
  // SkewNormal::log_pdf so the hoisting is bitwise-neutral.
  const double lg2w = std::log(2.0 / omega);
  const double lgs2pi = std::log(stats::kSqrt2Pi);
  const V vxi = V::broadcast(xi);
  const V vinv = V::broadcast(omega);
  const V valpha = V::broadcast(alpha);
  const V c1 = V::broadcast(lg2w);
  const V c2 = V::broadcast(lgs2pi);
  const V half = V::broadcast(0.5);
  std::size_t i = 0;
  for (; i + V::kLanes <= n; i += V::kLanes) {
    const V z = (V::load(x + i) - vxi) / vinv;
    const V r = (c1 - half * z * z) - c2 + vnormal_log_cdf(valpha * z);
    r.store(out + i);
  }
  for (; i < n; ++i) {
    const double z = (x[i] - xi) / omega;
    out[i] = lg2w - 0.5 * z * z - lgs2pi +
             stats::normal_log_cdf(alpha * z);
  }
}

/// Per-point terms of the fused skew-normal M-step kernel, written
/// once over a lane type T: a vec.h wrapper for the vector body, or a
/// plain double for the scalar tier and every vector tier's tail (which
/// then calls the per-sample stats:: functions). With z = (x - xi)/omega,
/// u = alpha z, zeta1 = phi(u)/Phi(u) = exp(log phi(u) - log Phi(u)) and
/// zeta2 = -zeta1 (u + zeta1), t receives the log-pdf, the score of the
/// log-pdf in (xi, omega, alpha) and its six Hessian entries (xx, xw,
/// xa, ww, wa, aa), each with its omega power factored out (score
/// xi/omega terms carry 1/omega, Hessian xi/omega pairs 1/omega^2,
/// mixed ones 1/omega) so the kernel scales the sums once. The log-pdf
/// is the exact expression of SkewNormal::log_pdf. V names the tier
/// that owns the instantiation: the double form is instantiated once
/// per tier under a distinct name, so no vector-encoded copy of it can
/// be shared with the portable scalar TU.
template <class V, class T>
void sn_score_terms(T x, T xi, T omega, T alpha, T lg2w, T lgs2pi,
                    T (&t)[10]) {
  constexpr bool kScalar = std::is_same_v<T, double>;
  const auto c = [](double v) {
    if constexpr (kScalar) {
      return v;
    } else {
      return T::broadcast(v);
    }
  };
  const auto ng = [](T v) {
    if constexpr (kScalar) {
      return -v;
    } else {
      return neg(v);
    }
  };
  const T z = (x - xi) / omega;
  const T u = alpha * z;
  T lc, zeta1;
  if constexpr (kScalar) {
    lc = stats::normal_log_cdf(u);
    zeta1 = std::exp((-0.5 * u * u - lgs2pi) - lc);
  } else {
    lc = vnormal_log_cdf(u);
    zeta1 = vexp((c(-0.5) * u * u - lgs2pi) - lc);
  }
  const T zeta2 = ng(zeta1) * (u + zeta1);
  const T a = alpha * zeta1;
  const T b = alpha * alpha * zeta2;
  const T z2 = z * z;
  t[0] = lg2w - c(0.5) * z * z - lgs2pi + lc;
  t[1] = z - a;
  t[2] = z2 - c(1.0) - z * a;
  t[3] = z * zeta1;
  t[4] = b - c(1.0);
  t[5] = (a - c(2.0) * z) + z * b;
  t[6] = ng(zeta1) - alpha * z * zeta2;
  t[7] = ((c(1.0) - c(3.0) * z2) + c(2.0) * z * a) + z2 * b;
  t[8] = ng(z * zeta1) - alpha * z2 * zeta2;
  t[9] = z2 * zeta2;
}

/// Fused M-step pass (simd::sn_weighted_nll_score): out[0] = NLL =
/// -sum w log f, out[1..3] the score and out[4..9] the Hessian of the
/// weighted log-likelihood, over the points with w > 0 (zero, negative
/// and NaN weights contribute exactly nothing: the vector body blends
/// after the multiply, so a non-finite term on an excluded lane cannot
/// leak in, and blocks with no positive weight are skipped). The
/// vector body keeps per-lane accumulators summed in lane order, the
/// tail runs in index order, so the result is deterministic for a
/// fixed n. V = double is the scalar tier: everything runs through the
/// index-order loop, bitwise identical to a per-sample stats:: loop.
template <class V>
void k_sn_nll_score(double xi, double omega, double alpha, const double* x,
                    const double* w, std::size_t n, double* out) {
  const double lg2w = std::log(2.0 / omega);
  const double lgs2pi = std::log(stats::kSqrt2Pi);
  double sums[10] = {};
  std::size_t i = 0;
  if constexpr (!std::is_same_v<V, double>) {
    const V vxi = V::broadcast(xi);
    const V vomega = V::broadcast(omega);
    const V valpha = V::broadcast(alpha);
    const V c1 = V::broadcast(lg2w);
    const V c2 = V::broadcast(lgs2pi);
    V acc[10];
    for (V& a : acc) a = V::zero();
    for (; i + V::kLanes <= n; i += V::kLanes) {
      const V wv = V::load(w + i);
      const V keep = cmp_lt(V::zero(), wv);
      if (!any(keep)) continue;
      V t[10];
      sn_score_terms<V>(V::load(x + i), vxi, vomega, valpha, c1, c2, t);
      for (int k = 0; k < 10; ++k) {
        acc[k] = acc[k] + blend_v(keep, wv * t[k], V::zero());
      }
    }
    for (int k = 0; k < 10; ++k) {
      double lanes[V::kLanes];
      acc[k].store(lanes);
      for (int lane = 0; lane < V::kLanes; ++lane) sums[k] += lanes[lane];
    }
  }
  for (; i < n; ++i) {
    if (!(w[i] > 0.0)) continue;
    double t[10];
    sn_score_terms<V>(x[i], xi, omega, alpha, lg2w, lgs2pi, t);
    for (int k = 0; k < 10; ++k) sums[k] += w[i] * t[k];
  }
  const double omega2 = omega * omega;
  out[0] = -sums[0];
  out[1] = sums[1] / omega;
  out[2] = sums[2] / omega;
  out[3] = sums[3];
  out[4] = sums[4] / omega2;
  out[5] = sums[5] / omega2;
  out[6] = sums[6] / omega;
  out[7] = sums[7] / omega2;
  out[8] = sums[8] / omega;
  out[9] = sums[9];
}

template <class V>
void k_sn_pdf(double xi, double omega, double alpha, const double* x,
              double* out, std::size_t n) {
  const V vxi = V::broadcast(xi);
  const V vomega = V::broadcast(omega);
  const V valpha = V::broadcast(alpha);
  const V scale = V::broadcast(2.0 / omega);
  std::size_t i = 0;
  for (; i + V::kLanes <= n; i += V::kLanes) {
    const V z = (V::load(x + i) - vxi) / vomega;
    const V r = scale * vnormal_pdf(z) * vnormal_cdf(valpha * z);
    r.store(out + i);
  }
  for (; i < n; ++i) {
    const double z = (x[i] - xi) / omega;
    out[i] = 2.0 / omega * stats::normal_pdf(z) *
             stats::normal_cdf(alpha * z);
  }
}

template <class V>
void k_sn_cdf(double xi, double omega, double alpha, const double* x,
              double* out, std::size_t n) {
  const OwensPrep prep = owens_prepare(alpha);
  const V vxi = V::broadcast(xi);
  const V vomega = V::broadcast(omega);
  const V one = V::broadcast(1.0);
  std::size_t i = 0;
  if (!prep.a_nan) {
    for (; i + V::kLanes <= n; i += V::kLanes) {
      const V z = (V::load(x + i) - vxi) / vomega;
      V t = prep.a_zero ? V::zero() : vowens_t(z, prep);
      V r = vnormal_cdf(z) - V::broadcast(2.0) * t;
      // SSE/AVX min/max quietly replace NaN with the second operand;
      // keep NaN inputs propagating like the scalar clamp does.
      r = blend_v(cmp_nan(z), z, min_v(max_v(r, V::zero()), one));
      r.store(out + i);
    }
  }
  for (; i < n; ++i) {
    const double z = (x[i] - xi) / omega;
    const double value =
        stats::normal_cdf(z) - 2.0 * stats::owens_t(z, alpha);
    const double lo = value < 0.0 ? 0.0 : value;
    out[i] = lo > 1.0 ? 1.0 : lo;
  }
}

template <class V>
void k_esn_log_pdf(double xi, double omega, double alpha, double tau,
                   const double* x, double* out, std::size_t n) {
  const double tau_arg = tau * std::sqrt(1.0 + alpha * alpha);
  const double lno = std::log(stats::kSqrt2Pi * omega);
  const double lcdf_tau = stats::normal_log_cdf(tau);
  const V vxi = V::broadcast(xi);
  const V vomega = V::broadcast(omega);
  const V valpha = V::broadcast(alpha);
  const V vtau_arg = V::broadcast(tau_arg);
  const V vlno = V::broadcast(lno);
  const V vlcdf_tau = V::broadcast(lcdf_tau);
  const V half = V::broadcast(0.5);
  std::size_t i = 0;
  for (; i + V::kLanes <= n; i += V::kLanes) {
    const V z = (V::load(x + i) - vxi) / vomega;
    const V arg = vtau_arg + valpha * z;
    const V r =
        neg(half * z * z) - vlno + vnormal_log_cdf(arg) - vlcdf_tau;
    r.store(out + i);
  }
  for (; i < n; ++i) {
    const double z = (x[i] - xi) / omega;
    const double arg = tau_arg + alpha * z;
    out[i] = -0.5 * z * z - lno + stats::normal_log_cdf(arg) - lcdf_tau;
  }
}

template <class V>
void k_esn_pdf(double xi, double omega, double alpha, double tau,
               const double* x, double* out, std::size_t n) {
  k_esn_log_pdf<V>(xi, omega, alpha, tau, x, out, n);
  k_exp<V>(out, out, n);
}

template <class V>
void k_normal_mu_sigma_log_pdf(double mu, double sigma, const double* x,
                               double* out, std::size_t n) {
  const double lns = std::log(sigma * stats::kSqrt2Pi);
  const V vmu = V::broadcast(mu);
  const V vsigma = V::broadcast(sigma);
  const V vlns = V::broadcast(lns);
  const V half = V::broadcast(0.5);
  std::size_t i = 0;
  for (; i + V::kLanes <= n; i += V::kLanes) {
    const V z = (V::load(x + i) - vmu) / vsigma;
    (neg(half * z * z) - vlns).store(out + i);
  }
  for (; i < n; ++i) {
    const double z = (x[i] - mu) / sigma;
    out[i] = -0.5 * z * z - lns;
  }
}

template <class V>
void k_em_responsibilities(double log_w_a, double log_w_b,
                           const double* lpa, const double* lpb,
                           double* resp, double* lse, std::size_t n) {
  const V la = V::broadcast(log_w_a);
  const V lb = V::broadcast(log_w_b);
  const V bound = V::broadcast(1e300);
  std::size_t i = 0;
  for (; i + V::kLanes <= n; i += V::kLanes) {
    const V a = la + V::load(lpa + i);
    const V b = lb + V::load(lpb + i);
    const V m = max_v(a, b);
    const V d = min_v(a, b) - m;  // -|a - b| (<= 0)
    const V l = m + vlog1p_unit(vexp(d));
    const V r = vexp(b - l);
    l.store(lse + i);
    r.store(resp + i);
    // Lanes holding non-finite log densities (component collapse,
    // -inf floors) fall back to the scalar combine.
    const V bad =
        or_v(or_v(cmp_nan(d), cmp_lt(bound, abs_v(a))),
             cmp_lt(bound, abs_v(b)));
    if (any(bad)) {
      const int bits = mask_bits(bad);
      for (int lane = 0; lane < V::kLanes; ++lane) {
        if (!(bits & (1 << lane))) continue;
        const double sa = log_w_a + lpa[i + lane];
        const double sb = log_w_b + lpb[i + lane];
        const double sl = stats::log_sum_exp(sa, sb);
        lse[i + lane] = sl;
        resp[i + lane] = std::exp(sb - sl);
      }
    }
  }
  for (; i < n; ++i) {
    const double a = log_w_a + lpa[i];
    const double b = log_w_b + lpb[i];
    const double l = stats::log_sum_exp(a, b);
    lse[i] = l;
    resp[i] = std::exp(b - l);
  }
}

template <class V>
void k_axpy(double a, const double* x, double* y, std::size_t n) {
  const V va = V::broadcast(a);
  std::size_t i = 0;
  for (; i + V::kLanes <= n; i += V::kLanes) {
    // Explicit mul then add — never fused — to stay bitwise with the
    // scalar tier's y[i] += a * x[i].
    const V prod = va * V::load(x + i);
    (V::load(y + i) + prod).store(y + i);
  }
  for (; i < n; ++i) y[i] += a * x[i];
}

}  // namespace lvf2::simd::detail
