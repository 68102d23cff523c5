#pragma once
// Log-domain distributions: the plain log-normal (paper ref. [5]) and
// the log-extended-skew-normal (LESN, paper ref. [7]) — X = exp(Y)
// with Y extended-skew-normal. LESN matches the first four moments
// ("matching kurtosis") and is the strongest published moments-based
// baseline compared against LVF^2.

#include <optional>

#include "stats/descriptive.h"
#include "stats/extended_skew_normal.h"
#include "stats/rng.h"

namespace lvf2::stats {

/// Log-normal: X = exp(mu + sigma Z), Z ~ N(0,1).
class LogNormal {
 public:
  LogNormal() = default;
  LogNormal(double mu, double sigma);

  double mu() const { return mu_; }
  double sigma() const { return sigma_; }

  double pdf(double x) const;
  double cdf(double x) const;
  double quantile(double p) const;
  double sample(Rng& rng) const;
  double mean() const;
  double variance() const;
  double stddev() const;
  double skewness() const;

  /// Moment fit from target mean / stddev (requires mean > 0).
  static std::optional<LogNormal> fit_moments(double mean, double stddev);

 private:
  double mu_ = 0.0;
  double sigma_ = 1.0;
};

/// Log-extended-skew-normal: X = exp(Y), Y ~ ESN(xi, omega, alpha, tau).
/// Raw moments are closed-form through the ESN moment generating
/// function E[e^{tY}] = e^{t xi + t^2 omega^2 / 2}
///                      * Phi(tau + delta t omega) / Phi(tau),
/// which makes four-moment matching practical.
class LogExtendedSkewNormal {
 public:
  LogExtendedSkewNormal() = default;
  explicit LogExtendedSkewNormal(const ExtendedSkewNormal& log_domain);

  const ExtendedSkewNormal& log_domain() const { return esn_; }

  double pdf(double x) const;
  double cdf(double x) const;
  double quantile(double p) const;
  double sample(Rng& rng) const;

  double mean() const;
  double variance() const;
  double stddev() const;
  double skewness() const;
  double kurtosis() const;

  /// Fits by matching (mean, stddev, skewness, kurtosis): the shape
  /// (omega, alpha, tau) by Levenberg-Marquardt least squares on the
  /// cv, skewness and kurtosis from six starts, xi in closed form so
  /// the mean matches exactly. The target mean must be positive
  /// (delays / transition times are). Returns nullopt when no start
  /// reaches finite moments.
  static std::optional<LogExtendedSkewNormal> fit_moments(
      const Moments& target);

 private:
  ExtendedSkewNormal esn_{0.0, 1.0, 0.0, 0.0};
};

}  // namespace lvf2::stats
