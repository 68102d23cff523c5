#pragma once
// Azzalini skew-normal (SN) distribution — the statistical core of the
// Liberty Variation Format (LVF). LVF stores the moment vector
// theta = (mu, sigma, gamma); a bijection g maps it to the direct SN
// parameters Theta = (xi, omega, alpha) (paper Eq. 2), and the density
// is
//   f_SN(x | Theta) = 2/omega * phi((x-xi)/omega) * Phi(alpha (x-xi)/omega)
// (paper Eq. 3). The CDF uses Owen's T:
//   F_SN(z) = Phi(z) - 2 T(z, alpha).

#include <cstddef>
#include <optional>
#include <span>

#include "stats/descriptive.h"
#include "stats/rng.h"

namespace lvf2::stats {

/// Maximum attainable |skewness| of a skew-normal (delta -> 1 limit),
/// approximately 0.99527. The moment bijection clamps requested
/// skewness slightly inside this bound.
double skew_normal_max_skewness();

/// Moment triple used by LVF look-up tables.
struct SnMoments {
  double mean = 0.0;
  double stddev = 1.0;
  double skewness = 0.0;
};

/// Work done by one SkewNormal::fit_weighted_mle call.
struct MleReport {
  std::size_t iterations = 0;   ///< Newton directions solved
  std::size_t evaluations = 0;  ///< fused likelihood/score/Hessian passes
};

/// Direct-parameter skew-normal distribution.
class SkewNormal {
 public:
  /// Standard normal by default (alpha = 0).
  SkewNormal() = default;

  /// Direct parameters: location `xi`, scale `omega` > 0, shape `alpha`.
  SkewNormal(double xi, double omega, double alpha);

  /// The bijection g: theta -> Theta (paper Eq. 2). Skewness is
  /// clamped into the attainable open interval (non-finite skewness
  /// reads as 0). A degenerate spread (stddev <= 0 or non-finite)
  /// degrades to a point mass at `mean` — counted under
  /// robust.stats.point_mass — so the EM degradation chain can keep
  /// going on near-constant sample sets. A non-finite mean still
  /// throws: that is a caller bug, not recoverable data.
  static SkewNormal from_moments(const SnMoments& m);
  static SkewNormal from_moments(double mean, double stddev, double skewness);

  /// Inverse bijection g^-1: Theta -> theta.
  SnMoments to_moments() const;

  /// Distribution of a + b X for b > 0.
  SkewNormal affine(double a, double b) const {
    return SkewNormal(a + b * xi_, b * omega_, alpha_);
  }

  double xi() const { return xi_; }
  double omega() const { return omega_; }
  double alpha() const { return alpha_; }
  /// delta = alpha / sqrt(1 + alpha^2).
  double delta() const;

  double pdf(double x) const;
  double log_pdf(double x) const;
  double cdf(double x) const;
  /// Batch overloads through the dispatch-selected kernels (simd.h);
  /// out.size() must be >= x.size(). In-place (out == x) is allowed.
  void pdf(std::span<const double> x, std::span<double> out) const;
  void log_pdf(std::span<const double> x, std::span<double> out) const;
  void cdf(std::span<const double> x, std::span<double> out) const;
  /// Inverse CDF by bracketed bisection + Newton polish.
  double quantile(double p) const;
  /// Sampling via the convolution representation
  /// Z = delta |U0| + sqrt(1-delta^2) U1 with U0, U1 iid N(0,1).
  double sample(Rng& rng) const;

  double mean() const;
  double stddev() const;
  double variance() const;
  double skewness() const;
  /// Fourth standardized moment (normal == 3).
  double kurtosis() const;

  /// Default Newton iteration cap of fit_weighted_mle.
  static constexpr std::size_t kMaxNewtonIterations = 10;
  /// Largest |alpha| a fit may reach; beyond it a point is infeasible.
  static constexpr double kMaxAlpha = 1e6;

  /// Weighted maximum-likelihood fit (the LVF^2 M-step, paper Eq.
  /// 7/8): maximizes sum_i w_i log f(x_i) over (xi, omega, alpha) by a
  /// monotone damped Newton iteration on the closed-form score and
  /// Hessian (simd::sn_weighted_nll_score), warm-started from
  /// `initial` when provided, else from the weighted method of
  /// moments. A trial step is taken only if the weighted NLL does not
  /// increase (else it halves), a Hessian that is not negative
  /// definite is damped Levenberg-Marquardt style, and the iteration
  /// stops on a relative move below 1e-7, after a taken step that
  /// moved less than `stop_move` (accelerated EM's generalized M-step
  /// passes 1e-2), or after `max_iterations` Newton steps — so the fit
  /// is never worse than its start. Moves are in units of omega for xi
  /// and omega and relative to max(|alpha|, 1) for alpha. Returns
  /// nullopt when the data or weights are degenerate.
  static std::optional<SkewNormal> fit_weighted_mle(
      std::span<const double> samples, std::span<const double> weights,
      const SkewNormal* initial = nullptr,
      std::size_t max_iterations = kMaxNewtonIterations,
      MleReport* report = nullptr, double stop_move = 0.0);

  /// Method-of-moments fit from (possibly weighted) samples.
  static std::optional<SkewNormal> fit_moments(
      std::span<const double> samples, std::span<const double> weights = {});

 private:
  double xi_ = 0.0;
  double omega_ = 1.0;
  double alpha_ = 0.0;
};

}  // namespace lvf2::stats
