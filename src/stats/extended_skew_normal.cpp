#include "stats/extended_skew_normal.h"

#include <algorithm>
#include <cmath>
#include <cstddef>
#include <limits>
#include <stdexcept>
#include <vector>

#include "simd/simd.h"
#include "stats/optimize.h"
#include "stats/special_functions.h"

namespace lvf2::stats {

namespace {

// Standardized cumulants of ESN(alpha, tau), from
// K(t) = t^2/2 + log Phi(tau + delta t) - log Phi(tau).
struct EsnCumulants {
  double k1, k2, k3, k4;
};

EsnCumulants cumulants(double delta, double tau) {
  const double d2 = delta * delta;
  return EsnCumulants{
      delta * zeta1(tau),
      1.0 + d2 * zeta2(tau),
      d2 * delta * zeta3(tau),
      d2 * d2 * zeta4(tau),
  };
}

}  // namespace

ExtendedSkewNormal::ExtendedSkewNormal(double xi, double omega, double alpha,
                                       double tau)
    : xi_(xi), omega_(omega), alpha_(alpha), tau_(tau) {
  if (!(omega > 0.0) || !std::isfinite(xi) || !std::isfinite(alpha) ||
      !std::isfinite(tau)) {
    throw std::invalid_argument("ExtendedSkewNormal: invalid parameters");
  }
  const double k2 = cumulants(delta(), tau).k2;
  if (!(k2 > 0.0)) {
    throw std::invalid_argument(
        "ExtendedSkewNormal: parameters give non-positive variance");
  }
}

double ExtendedSkewNormal::delta() const {
  return alpha_ / std::sqrt(1.0 + alpha_ * alpha_);
}

double ExtendedSkewNormal::pdf(double x) const {
  return std::exp(log_pdf(x));
}

double ExtendedSkewNormal::log_pdf(double x) const {
  const double z = (x - xi_) / omega_;
  const double arg = tau_ * std::sqrt(1.0 + alpha_ * alpha_) + alpha_ * z;
  return -0.5 * z * z - std::log(kSqrt2Pi * omega_) + normal_log_cdf(arg) -
         normal_log_cdf(tau_);
}

double ExtendedSkewNormal::cdf(double x) const {
  // Composite 16-point Gauss-Legendre over panels from the effective
  // lower tail (mean - 12 sd) to x.
  const double lo = mean() - 12.0 * stddev();
  if (x <= lo) return 0.0;
  static constexpr double kNodes[8] = {
      0.0950125098376374, 0.2816035507792589, 0.4580167776572274,
      0.6178762444026438, 0.7554044083550030, 0.8656312023878318,
      0.9445750230732326, 0.9894009349916499};
  static constexpr double kWeights[8] = {
      0.1894506104550685, 0.1826034150449236, 0.1691565193950025,
      0.1495959888165767, 0.1246289712555339, 0.0951585116824928,
      0.0622535239386479, 0.0271524594117541};
  const int panels =
      std::clamp(static_cast<int>((x - lo) / stddev() * 4.0) + 1, 4, 256);
  const double h = (x - lo) / panels;
  // All panel nodes are laid out once and evaluated through the batch
  // pdf kernel; the quadrature sum then runs in the same panel/node
  // order as the original per-point loop.
  std::vector<double> pts(static_cast<std::size_t>(panels) * 16);
  std::size_t k = 0;
  const double half = 0.5 * h;
  for (int p = 0; p < panels; ++p) {
    const double c = lo + (p + 0.5) * h;
    for (int i = 0; i < 8; ++i) {
      pts[k++] = c + half * kNodes[i];
      pts[k++] = c - half * kNodes[i];
    }
  }
  std::vector<double> f(pts.size());
  simd::esn_pdf(xi_, omega_, alpha_, tau_, pts, f);
  double sum = 0.0;
  k = 0;
  for (int p = 0; p < panels; ++p) {
    for (int i = 0; i < 8; ++i) {
      const double fp = f[k++];
      const double fm = f[k++];
      sum += kWeights[i] * (fp + fm) * half;
    }
  }
  return std::clamp(sum, 0.0, 1.0);
}

void ExtendedSkewNormal::pdf(std::span<const double> x,
                             std::span<double> out) const {
  simd::esn_pdf(xi_, omega_, alpha_, tau_, x, out);
}

void ExtendedSkewNormal::log_pdf(std::span<const double> x,
                                 std::span<double> out) const {
  simd::esn_log_pdf(xi_, omega_, alpha_, tau_, x, out);
}

double ExtendedSkewNormal::quantile(double p) const {
  if (p <= 0.0) return -std::numeric_limits<double>::infinity();
  if (p >= 1.0) return std::numeric_limits<double>::infinity();
  double a = mean() - 12.0 * stddev();
  double b = mean() + 12.0 * stddev();
  const auto f = [&](double x) { return cdf(x) - p; };
  return bisect_root(f, a, b, 1e-12 * stddev()).x;
}

double ExtendedSkewNormal::sample(Rng& rng) const {
  // Hidden truncation: T ~ N(0,1) conditioned on T > -tau.
  const double p_lo = normal_cdf(-tau_);
  const double u = p_lo + (1.0 - p_lo) * rng.uniform();
  const double t =
      normal_quantile(std::clamp(u, 1e-16, 1.0 - 1e-16));
  const double d = delta();
  const double z = d * t + std::sqrt(1.0 - d * d) * rng.normal();
  return xi_ + omega_ * z;
}

double ExtendedSkewNormal::mean() const {
  return xi_ + omega_ * cumulants(delta(), tau_).k1;
}

double ExtendedSkewNormal::variance() const {
  return omega_ * omega_ * cumulants(delta(), tau_).k2;
}

double ExtendedSkewNormal::stddev() const { return std::sqrt(variance()); }

double ExtendedSkewNormal::skewness() const {
  const EsnCumulants k = cumulants(delta(), tau_);
  return k.k3 / std::pow(k.k2, 1.5);
}

double ExtendedSkewNormal::kurtosis() const {
  const EsnCumulants k = cumulants(delta(), tau_);
  return 3.0 + k.k4 / (k.k2 * k.k2);
}

}  // namespace lvf2::stats
