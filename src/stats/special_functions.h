#pragma once
// Special functions used across the statistical timing models:
// standard-normal density / distribution / quantile, Owen's T function
// (needed by the skew-normal CDF), the Mills-ratio family zeta_k
// (needed by extended-skew-normal cumulants), and small numeric helpers.

#include <cstddef>
#include <span>

namespace lvf2::stats {

/// Value of pi with full double precision.
inline constexpr double kPi = 3.141592653589793238462643383279502884;

/// sqrt(2*pi).
inline constexpr double kSqrt2Pi = 2.506628274631000502415765284811045253;

/// sqrt(2/pi); the mean of |Z| for a standard normal Z.
inline constexpr double kSqrt2OverPi = 0.797884560802865355879892119868763737;

/// Standard normal probability density phi(x).
double normal_pdf(double x);

/// Standard normal cumulative distribution Phi(x), accurate in both tails.
double normal_cdf(double x);

/// log(Phi(x)) at full relative precision: log1p(-Phi(-x)) for x > 0,
/// and stable for deeply negative x (switches to an asymptotic
/// expansion of the Mills ratio at x = -36.5, just before erfc goes
/// subnormal, so both branches are full precision at the crossover).
double normal_log_cdf(double x);

/// Inverse of the standard normal CDF. Input must be in (0, 1);
/// values at or outside the boundary return +/-infinity.
/// Acklam's rational approximation refined by one Halley step,
/// giving ~1e-15 relative accuracy.
double normal_quantile(double p);

/// Owen's T function
///   T(h, a) = 1/(2*pi) * Integral_0^a exp(-h^2 (1+x^2)/2) / (1+x^2) dx.
/// Used for the skew-normal CDF: F_SN(z; alpha) = Phi(z) - 2 T(z, alpha).
/// Implemented by 64-point Gauss-Legendre quadrature after reducing
/// |a| <= 1 with the standard reflection identities (the a > 1
/// reduction combines tail masses Phi(-h), Phi(-ah) so it stays
/// cancellation-free for large h); for h >= 8 the quadrature domain
/// is clipped to x <= 10/h where all of the integrand mass lives.
/// Absolute error is below 1e-14; relative error stays small deep
/// into the tails (h ~ 8-30, the high-sigma regime).
double owens_t(double h, double a);

/// Mills-ratio style function zeta1(x) = phi(x) / Phi(x)
/// (the first derivative of log Phi). Stable for very negative x.
double zeta1(double x);

/// zeta2(x) = d/dx zeta1(x) = -zeta1(x) * (x + zeta1(x)).
double zeta2(double x);

/// zeta3(x) = d/dx zeta2(x).
double zeta3(double x);

/// zeta4(x) = d/dx zeta3(x).
double zeta4(double x);

/// log(exp(a) + exp(b)) without overflow.
double log_sum_exp(double a, double b);

/// Numerically stable sum via Kahan compensation.
double kahan_sum(std::span<const double> values);

/// Linear interpolation of y(x) on a sorted grid xs -> ys; clamps
/// outside the grid to the boundary values. Grids must be the same
/// nonzero length.
double interp_linear(std::span<const double> xs, std::span<const double> ys,
                     double x);

}  // namespace lvf2::stats
