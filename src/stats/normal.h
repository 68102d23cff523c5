#pragma once
// Location-scale normal distribution N(mu, sigma^2).

#include <span>

#include "stats/rng.h"

namespace lvf2::stats {

/// Normal distribution with mean `mu` and standard deviation `sigma`.
class Normal {
 public:
  Normal() = default;
  Normal(double mu, double sigma);

  /// Moment construction mirroring SkewNormal::from_moments (skewness
  /// is ignored): a degenerate spread becomes a point mass at `mean`.
  static Normal from_moments(double mean, double stddev, double skewness);

  /// Distribution of a + b X for b > 0.
  Normal affine(double a, double b) const {
    return Normal(a + b * mu_, b * sigma_);
  }

  double mu() const { return mu_; }
  double sigma() const { return sigma_; }

  double pdf(double x) const;
  double log_pdf(double x) const;
  double cdf(double x) const;
  double quantile(double p) const;
  double sample(Rng& rng) const;

  /// Batch overloads through the dispatch-selected kernels (simd.h);
  /// out.size() must be >= x.size(). In-place (out == x) is allowed.
  void pdf(std::span<const double> x, std::span<double> out) const;
  void log_pdf(std::span<const double> x, std::span<double> out) const;
  void cdf(std::span<const double> x, std::span<double> out) const;

  double mean() const { return mu_; }
  double stddev() const { return sigma_; }
  double variance() const { return sigma_ * sigma_; }
  double skewness() const { return 0.0; }

 private:
  double mu_ = 0.0;
  double sigma_ = 1.0;
};

}  // namespace lvf2::stats
