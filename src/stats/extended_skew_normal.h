#pragma once
// Extended skew-normal (ESN) distribution. Adds a hidden-truncation
// parameter tau to the skew-normal:
//
//   f(z; alpha, tau) = phi(z) * Phi(tau * sqrt(1 + alpha^2) + alpha z)
//                      / Phi(tau)
//
// (standardized form; X = xi + omega Z). Its cumulant generating
// function K(t) = t^2/2 + log Phi(tau + delta t) - log Phi(tau) gives
// closed-form cumulants through the zeta_k Mills-ratio derivatives,
// which is what makes kurtosis matching (the LESN baseline, paper
// ref. [7]) practical.

#include <span>

#include "stats/rng.h"

namespace lvf2::stats {

/// Extended skew-normal with location xi, scale omega > 0, shape
/// alpha, and truncation tau (tau = 0 recovers the skew-normal).
class ExtendedSkewNormal {
 public:
  ExtendedSkewNormal() = default;
  ExtendedSkewNormal(double xi, double omega, double alpha, double tau);

  double xi() const { return xi_; }
  double omega() const { return omega_; }
  double alpha() const { return alpha_; }
  double tau() const { return tau_; }
  double delta() const;

  double pdf(double x) const;
  double log_pdf(double x) const;
  /// Batch overloads through the dispatch-selected kernels (simd.h);
  /// out.size() must be >= x.size(). In-place (out == x) is allowed.
  void pdf(std::span<const double> x, std::span<double> out) const;
  void log_pdf(std::span<const double> x, std::span<double> out) const;
  /// CDF by composite Gauss-Legendre integration of the density from
  /// the effective lower tail (node batch through the pdf kernel);
  /// accurate to ~1e-10.
  double cdf(double x) const;
  double quantile(double p) const;
  /// Sampling by hidden truncation: Z = delta T + sqrt(1-delta^2) U
  /// where T ~ N(0,1) truncated to T > -tau.
  double sample(Rng& rng) const;

  /// First four cumulants of the standardized variable Z scaled to X.
  double mean() const;
  double variance() const;
  double stddev() const;
  double skewness() const;
  double kurtosis() const;  ///< fourth standardized moment

 private:
  double xi_ = 0.0;
  double omega_ = 1.0;
  double alpha_ = 0.0;
  double tau_ = 0.0;
};

}  // namespace lvf2::stats
