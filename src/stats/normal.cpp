#include "stats/normal.h"

#include <algorithm>
#include <cmath>
#include <cstddef>
#include <stdexcept>

#include "simd/simd.h"
#include "stats/special_functions.h"

namespace lvf2::stats {

Normal::Normal(double mu, double sigma) : mu_(mu), sigma_(sigma) {
  if (!(sigma > 0.0)) {
    throw std::invalid_argument("Normal: sigma must be positive");
  }
}

Normal Normal::from_moments(double mean, double stddev, double) {
  if (!(stddev > 0.0) || !std::isfinite(stddev)) {
    stddev = std::max(std::fabs(mean) * 1e-9, 1e-12);
  }
  return Normal(mean, stddev);
}

double Normal::pdf(double x) const {
  return normal_pdf((x - mu_) / sigma_) / sigma_;
}

double Normal::log_pdf(double x) const {
  const double z = (x - mu_) / sigma_;
  return -0.5 * z * z - std::log(sigma_ * kSqrt2Pi);
}

double Normal::cdf(double x) const { return normal_cdf((x - mu_) / sigma_); }

double Normal::quantile(double p) const {
  return mu_ + sigma_ * normal_quantile(p);
}

double Normal::sample(Rng& rng) const { return rng.normal(mu_, sigma_); }

void Normal::pdf(std::span<const double> x, std::span<double> out) const {
  for (std::size_t i = 0; i < x.size(); ++i) out[i] = (x[i] - mu_) / sigma_;
  simd::normal_pdf(out.first(x.size()), out);
  for (std::size_t i = 0; i < x.size(); ++i) out[i] /= sigma_;
}

void Normal::log_pdf(std::span<const double> x, std::span<double> out) const {
  simd::normal_mu_sigma_log_pdf(mu_, sigma_, x, out);
}

void Normal::cdf(std::span<const double> x, std::span<double> out) const {
  for (std::size_t i = 0; i < x.size(); ++i) out[i] = (x[i] - mu_) / sigma_;
  simd::normal_cdf(out.first(x.size()), out);
}

}  // namespace lvf2::stats
