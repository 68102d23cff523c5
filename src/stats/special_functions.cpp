#include "stats/special_functions.h"

#include <algorithm>
#include <array>
#include <cmath>
#include <limits>

namespace lvf2::stats {

double normal_pdf(double x) { return std::exp(-0.5 * x * x) / kSqrt2Pi; }

double normal_cdf(double x) { return 0.5 * std::erfc(-x / std::sqrt(2.0)); }

double normal_log_cdf(double x) {
  // The erfc path is accurate until erfc(-x/sqrt 2) goes subnormal at
  // x ~ -37.5; the Mills series truncation error (945/x^10) reaches
  // ~2e-13 absolute (3e-16 relative to the result) at x = -36.5, so
  // crossing over there keeps both sides at full precision. The old
  // -10 crossover paid ~1e-7 series truncation across [-36.5, -10].
  // For x > 0, log1p of the upper tail keeps the full relative
  // precision of the tiny values there (log of a cdf near 1 keeps only
  // absolute precision).
  if (x > 0.0) return std::log1p(-normal_cdf(-x));
  if (x > -36.5) {
    return std::log(normal_cdf(x));
  }
  // Asymptotic expansion of the Mills ratio for the deep lower tail:
  //   Phi(x) ~ phi(x)/|x| * (1 - 1/x^2 + 3/x^4 - 15/x^6 + 105/x^8).
  const double x2 = x * x;
  const double series =
      1.0 - 1.0 / x2 + 3.0 / (x2 * x2) - 15.0 / (x2 * x2 * x2) +
      105.0 / (x2 * x2 * x2 * x2);
  return -0.5 * x2 - std::log(-x * kSqrt2Pi) + std::log(series);
}

namespace {

// Coefficients of Acklam's inverse-normal rational approximation.
constexpr std::array<double, 6> kA = {
    -3.969683028665376e+01, 2.209460984245205e+02, -2.759285104469687e+02,
    1.383577518672690e+02,  -3.066479806614716e+01, 2.506628277459239e+00};
constexpr std::array<double, 5> kB = {
    -5.447609879822406e+01, 1.615858368580409e+02, -1.556989798598866e+02,
    6.680131188771972e+01,  -1.328068155288572e+01};
constexpr std::array<double, 6> kC = {
    -7.784894002430293e-03, -3.223964580411365e-01, -2.400758277161838e+00,
    -2.549732539343734e+00, 4.374664141464968e+00,  2.938163982698783e+00};
constexpr std::array<double, 4> kD = {
    7.784695709041462e-03, 3.224671290700398e-01, 2.445134137142996e+00,
    3.754408661907416e+00};

double acklam(double p) {
  constexpr double p_low = 0.02425;
  if (p < p_low) {
    const double q = std::sqrt(-2.0 * std::log(p));
    return (((((kC[0] * q + kC[1]) * q + kC[2]) * q + kC[3]) * q + kC[4]) * q +
            kC[5]) /
           ((((kD[0] * q + kD[1]) * q + kD[2]) * q + kD[3]) * q + 1.0);
  }
  if (p > 1.0 - p_low) {
    const double q = std::sqrt(-2.0 * std::log(1.0 - p));
    return -(((((kC[0] * q + kC[1]) * q + kC[2]) * q + kC[3]) * q + kC[4]) * q +
             kC[5]) /
           ((((kD[0] * q + kD[1]) * q + kD[2]) * q + kD[3]) * q + 1.0);
  }
  const double q = p - 0.5;
  const double r = q * q;
  return (((((kA[0] * r + kA[1]) * r + kA[2]) * r + kA[3]) * r + kA[4]) * r +
          kA[5]) *
         q /
         (((((kB[0] * r + kB[1]) * r + kB[2]) * r + kB[3]) * r + kB[4]) * r +
          1.0);
}

}  // namespace

double normal_quantile(double p) {
  if (std::isnan(p)) return std::numeric_limits<double>::quiet_NaN();
  if (p <= 0.0) return -std::numeric_limits<double>::infinity();
  if (p >= 1.0) return std::numeric_limits<double>::infinity();
  double x = acklam(p);
  // One Halley refinement step against the exact CDF.
  const double e = normal_cdf(x) - p;
  const double u = e * kSqrt2Pi * std::exp(0.5 * x * x);
  x -= u / (1.0 + 0.5 * x * u);
  return x;
}

namespace {

// 64-point Gauss-Legendre nodes/weights on [-1, 1] (symmetric half).
constexpr std::array<double, 32> kGlNodes = {
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
constexpr std::array<double, 32> kGlWeights = {
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

// Owen's T for |a| <= 1 by Gauss-Legendre quadrature on [0, a].
double owens_t_quad(double h, double a) {
  // Deep-tail domain clip: for h >= 8 the integrand
  // exp(-h^2(1+x^2)/2)/(1+x^2) is concentrated in x = O(1/h); nodes
  // beyond x = 10/h see values below e^-50 of the peak, so clipping
  // the upper limit there keeps all 64 nodes inside the mass (the
  // truncated tail is ~e^-50 relative). Without the clip, large h
  // leaves only a couple of nodes on the peak and the quadrature
  // loses most of its digits exactly where O2's high-sigma
  // importance sampling needs them.
  if (h >= 8.0) a = std::min(a, 10.0 / h);
  const double half = 0.5 * a;
  const double h2 = -0.5 * h * h;
  double sum = 0.0;
  for (std::size_t i = 0; i < kGlNodes.size(); ++i) {
    const double xp = half * (1.0 + kGlNodes[i]);
    const double xm = half * (1.0 - kGlNodes[i]);
    const double fp = std::exp(h2 * (1.0 + xp * xp)) / (1.0 + xp * xp);
    const double fm = std::exp(h2 * (1.0 + xm * xm)) / (1.0 + xm * xm);
    sum += kGlWeights[i] * (fp + fm);
  }
  return sum * half / (2.0 * kPi);
}

}  // namespace

double owens_t(double h, double a) {
  if (std::isnan(h) || std::isnan(a)) {
    return std::numeric_limits<double>::quiet_NaN();
  }
  // Symmetries: T(h,a) is even in h and odd in a.
  h = std::fabs(h);
  const double sign = (a < 0.0) ? -1.0 : 1.0;
  a = std::fabs(a);
  if (a == 0.0) return 0.0;
  if (h == 0.0) return sign * std::atan(a) / (2.0 * kPi);
  if (std::isinf(a)) {
    return sign * 0.5 * normal_cdf(-h);
  }
  double t = 0.0;
  if (a <= 1.0) {
    t = owens_t_quad(h, a);
  } else {
    // T(h,a) = 1/2 [Phi(h) + Phi(ah)] - Phi(h) Phi(ah) - T(ah, 1/a),
    // rewritten in the complementary form
    //   T(h,a) = 1/2 (u + v) - u v - T(ah, 1/a),
    // with u = Phi(-h), v = Phi(-ah). The textbook form subtracts
    // Phi(h) Phi(ah) from 1/2 [Phi(h) + Phi(ah)]; for h in [6, 8]
    // both operands approach the same value near 1/2 + tiny and the
    // difference loses ~u digits to cancellation. The complementary
    // form keeps every term proportional to the small tail masses.
    const double u = normal_cdf(-h);
    const double v = normal_cdf(-a * h);
    t = 0.5 * (u + v) - u * v - owens_t_quad(a * h, 1.0 / a);
  }
  return sign * t;
}

double zeta1(double x) {
  // Crossover matched to normal_log_cdf: the pdf/cdf ratio is exact
  // while both factors are normal-range (|x| < ~37.5); the series
  // truncation only drops below double precision past -36.5.
  if (x > -36.5) {
    return normal_pdf(x) / normal_cdf(x);
  }
  // phi / Phi = |x| / mills-series for the deep lower tail.
  const double x2 = x * x;
  const double series =
      1.0 - 1.0 / x2 + 3.0 / (x2 * x2) - 15.0 / (x2 * x2 * x2) +
      105.0 / (x2 * x2 * x2 * x2);
  return -x / series;
}

double zeta2(double x) {
  const double z1 = zeta1(x);
  return -z1 * (x + z1);
}

double zeta3(double x) {
  const double z1 = zeta1(x);
  const double z2 = zeta2(x);
  // zeta3 = -zeta2 (x + z1) - z1 (1 + z2).
  return -z2 * (x + z1) - z1 * (1.0 + z2);
}

double zeta4(double x) {
  const double z1 = zeta1(x);
  const double z2 = zeta2(x);
  const double z3 = zeta3(x);
  // Derivative of zeta3 expression above.
  return -z3 * (x + z1) - z2 * (1.0 + z2) - z2 * (1.0 + z2) - z1 * z3;
}

double log_sum_exp(double a, double b) {
  if (std::isinf(a) && a < 0.0) return b;
  if (std::isinf(b) && b < 0.0) return a;
  const double m = std::max(a, b);
  return m + std::log(std::exp(a - m) + std::exp(b - m));
}

double kahan_sum(std::span<const double> values) {
  double sum = 0.0;
  double c = 0.0;
  for (double v : values) {
    const double y = v - c;
    const double t = sum + y;
    c = (t - sum) - y;
    sum = t;
  }
  return sum;
}

double interp_linear(std::span<const double> xs, std::span<const double> ys,
                     double x) {
  const std::size_t n = xs.size();
  if (n == 0 || ys.size() != n) {
    return std::numeric_limits<double>::quiet_NaN();
  }
  if (n == 1 || x <= xs.front()) return ys.front();
  if (x >= xs.back()) return ys.back();
  const auto it = std::upper_bound(xs.begin(), xs.end(), x);
  const std::size_t hi = static_cast<std::size_t>(it - xs.begin());
  const std::size_t lo = hi - 1;
  const double t = (x - xs[lo]) / (xs[hi] - xs[lo]);
  return ys[lo] + t * (ys[hi] - ys[lo]);
}

}  // namespace lvf2::stats
