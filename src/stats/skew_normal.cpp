#include "stats/skew_normal.h"

#include <algorithm>
#include <cmath>
#include <limits>
#include <stdexcept>
#include <vector>

#include "obs/metrics.h"
#include "simd/simd.h"
#include "stats/optimize.h"
#include "stats/special_functions.h"

namespace lvf2::stats {

namespace {

constexpr double kSkewClamp = 0.995;  // slightly inside the SN bound

// b = sqrt(2/pi); E|Z| for standard normal.
constexpr double kB = 0.797884560802865355879892119868763737;

// Skewness of a standard SN with the given delta.
double skewness_of_delta(double delta) {
  const double bd = kB * delta;
  const double var = 1.0 - bd * bd;
  return 0.5 * (4.0 - kPi) * bd * bd * bd / (var * std::sqrt(var));
}

// Inverts skewness -> delta (closed form from the moment equations).
double delta_of_skewness(double gamma) {
  const double sign = (gamma < 0.0) ? -1.0 : 1.0;
  const double g = std::fabs(gamma);
  const double g23 = std::pow(g, 2.0 / 3.0);
  const double c23 = std::pow(0.5 * (4.0 - kPi), 2.0 / 3.0);
  const double b2 = kB * kB;  // 2/pi
  const double delta2 = g23 / (b2 * (g23 + c23));
  return sign * std::sqrt(std::min(delta2, 1.0 - 1e-12));
}

// Newton M-step controls: stop on a relative parameter move below
// kMleRelativeMove; give up on a direction after kMleMaxHalvings
// step halvings.
constexpr double kMleRelativeMove = 1e-7;
constexpr int kMleMaxHalvings = 30;

}  // namespace

double skew_normal_max_skewness() { return skewness_of_delta(1.0 - 1e-12); }

SkewNormal::SkewNormal(double xi, double omega, double alpha)
    : xi_(xi), omega_(omega), alpha_(alpha) {
  if (!(omega > 0.0) || !std::isfinite(xi) || !std::isfinite(alpha)) {
    throw std::invalid_argument("SkewNormal: invalid parameters");
  }
}

SkewNormal SkewNormal::from_moments(const SnMoments& m) {
  return from_moments(m.mean, m.stddev, m.skewness);
}

SkewNormal SkewNormal::from_moments(double mean, double stddev,
                                    double skewness) {
  if (!std::isfinite(mean)) {
    throw std::invalid_argument("SkewNormal::from_moments: non-finite mean");
  }
  if (!(stddev > 0.0) || !std::isfinite(stddev)) {
    // Degenerate (near-constant) data, e.g. fed by the EM fallback
    // chain: degrade to a point mass at `mean` — a symmetric SN whose
    // scale is far below any resolvable timing quantity — instead of
    // throwing out of a deep characterization loop.
    static obs::Counter& point_masses =
        obs::counter("robust.stats.point_mass");
    point_masses.add(1);
    return SkewNormal(mean, std::max(std::fabs(mean) * 1e-9, 1e-12), 0.0);
  }
  const double max_skew = skewness_of_delta(kSkewClamp);
  const double gamma = std::clamp(std::isfinite(skewness) ? skewness : 0.0,
                                  -max_skew, max_skew);
  const double delta = delta_of_skewness(gamma);
  const double bd = kB * delta;
  const double omega = stddev / std::sqrt(1.0 - bd * bd);
  const double xi = mean - omega * bd;
  const double denom2 = 1.0 - delta * delta;
  const double alpha =
      (denom2 <= 0.0) ? std::copysign(1e8, delta) : delta / std::sqrt(denom2);
  return SkewNormal(xi, omega, alpha);
}

SnMoments SkewNormal::to_moments() const {
  return SnMoments{mean(), stddev(), skewness()};
}

double SkewNormal::delta() const {
  return alpha_ / std::sqrt(1.0 + alpha_ * alpha_);
}

double SkewNormal::pdf(double x) const {
  const double z = (x - xi_) / omega_;
  return 2.0 / omega_ * normal_pdf(z) * normal_cdf(alpha_ * z);
}

double SkewNormal::log_pdf(double x) const {
  const double z = (x - xi_) / omega_;
  return std::log(2.0 / omega_) - 0.5 * z * z - std::log(kSqrt2Pi) +
         normal_log_cdf(alpha_ * z);
}

double SkewNormal::cdf(double x) const {
  const double z = (x - xi_) / omega_;
  const double value = normal_cdf(z) - 2.0 * owens_t(z, alpha_);
  return std::clamp(value, 0.0, 1.0);
}

void SkewNormal::pdf(std::span<const double> x, std::span<double> out) const {
  simd::sn_pdf(xi_, omega_, alpha_, x, out);
}

void SkewNormal::log_pdf(std::span<const double> x,
                         std::span<double> out) const {
  simd::sn_log_pdf(xi_, omega_, alpha_, x, out);
}

void SkewNormal::cdf(std::span<const double> x, std::span<double> out) const {
  simd::sn_cdf(xi_, omega_, alpha_, x, out);
}

double SkewNormal::quantile(double p) const {
  if (p <= 0.0) return -std::numeric_limits<double>::infinity();
  if (p >= 1.0) return std::numeric_limits<double>::infinity();
  // Bracket in standardized units, then bisect + Newton polish.
  double lo = -10.0, hi = 10.0;
  while (cdf(xi_ + omega_ * lo) > p && lo > -60.0) lo *= 1.5;
  while (cdf(xi_ + omega_ * hi) < p && hi < 60.0) hi *= 1.5;
  double a = xi_ + omega_ * lo;
  double b = xi_ + omega_ * hi;
  double x = 0.5 * (a + b);
  for (int iter = 0; iter < 200; ++iter) {
    const double c = cdf(x);
    if (c > p) b = x; else a = x;
    const double dens = pdf(x);
    double next = (dens > 1e-300) ? x - (c - p) / dens : 0.5 * (a + b);
    if (!(next > a && next < b)) next = 0.5 * (a + b);
    if (std::fabs(next - x) < 1e-14 * omega_) {
      x = next;
      break;
    }
    x = next;
  }
  return x;
}

double SkewNormal::sample(Rng& rng) const {
  const double d = delta();
  const double u0 = rng.normal();
  const double u1 = rng.normal();
  const double z = d * std::fabs(u0) + std::sqrt(1.0 - d * d) * u1;
  return xi_ + omega_ * z;
}

double SkewNormal::mean() const { return xi_ + omega_ * kB * delta(); }

double SkewNormal::variance() const {
  const double bd = kB * delta();
  return omega_ * omega_ * (1.0 - bd * bd);
}

double SkewNormal::stddev() const { return std::sqrt(variance()); }

double SkewNormal::skewness() const { return skewness_of_delta(delta()); }

double SkewNormal::kurtosis() const {
  const double bd = kB * delta();
  const double var = 1.0 - bd * bd;
  const double excess =
      2.0 * (kPi - 3.0) * bd * bd * bd * bd / (var * var);
  return 3.0 + excess;
}

std::optional<SkewNormal> SkewNormal::fit_moments(
    std::span<const double> samples, std::span<const double> weights) {
  const Moments m = weights.empty()
                        ? compute_moments(samples)
                        : compute_weighted_moments(samples, weights);
  if (m.count == 0 || !(m.stddev > 0.0)) return std::nullopt;
  return from_moments(m.mean, m.stddev, m.skewness);
}

std::optional<SkewNormal> SkewNormal::fit_weighted_mle(
    std::span<const double> samples, std::span<const double> weights,
    const SkewNormal* initial, std::size_t max_iterations,
    MleReport* report, double stop_move) {
  MleReport scratch;
  MleReport& rep = (report != nullptr) ? *report : scratch;
  rep = MleReport{};
  if (samples.empty() || samples.size() != weights.size()) return std::nullopt;
  std::optional<SkewNormal> start;
  if (initial != nullptr) {
    start = *initial;
  } else {
    start = fit_moments(samples, weights);
  }
  if (!start) return std::nullopt;

  const auto evaluate = [&](const double (&p)[3]) {
    ++rep.evaluations;
    return simd::sn_weighted_nll_score(p[0], p[1], p[2], samples, weights);
  };
  double theta[3] = {start->xi(), start->omega(), start->alpha()};
  simd::SnScore at = evaluate(theta);
  if (!std::isfinite(at.nll)) return start;
  // Parameter moves are measured in units of omega for xi and omega
  // and relative to max(|alpha|, 1) for alpha.
  const auto move = [&](const double (&d)[3]) {
    return std::max({std::fabs(d[0]) / theta[1], std::fabs(d[1]) / theta[1],
                     std::fabs(d[2]) / std::max(std::fabs(theta[2]), 1.0)});
  };
  while (rep.iterations < max_iterations) {
    ++rep.iterations;
    // Newton direction for the NLL: solve (-H) d = score, with
    // Levenberg-Marquardt damping where H is not negative definite.
    double neg_h[6];
    for (int k = 0; k < 6; ++k) neg_h[k] = -at.hessian[k];
    double d[3];
    if (!solve_damped_spd(neg_h, at.score, d)) break;
    if (!(move(d) >= kMleRelativeMove)) break;  // converged (or NaN)
    // Backtracking: halve until the weighted NLL does not increase,
    // giving up once the step is itself below the stopping move (a
    // rejection there is rounding noise at the optimum).
    bool accepted = false, small = false;
    double t = 1.0;
    for (int halving = 0; halving < kMleMaxHalvings; ++halving, t *= 0.5) {
      const double step[3] = {t * d[0], t * d[1], t * d[2]};
      if (move(step) < kMleRelativeMove) break;
      const double trial[3] = {theta[0] + step[0], theta[1] + step[1],
                               theta[2] + step[2]};
      if (!(trial[1] > 0.0) || !std::isfinite(trial[0]) ||
          !(std::fabs(trial[2]) <= kMaxAlpha)) {
        continue;
      }
      const simd::SnScore next = evaluate(trial);
      if (next.nll <= at.nll) {
        std::copy(trial, trial + 3, theta);
        at = next;
        accepted = true;
        small = move(step) < stop_move;
        break;
      }
    }
    if (!accepted || small) break;
  }
  return SkewNormal(theta[0], theta[1], theta[2]);
}

}  // namespace lvf2::stats
