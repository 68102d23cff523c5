#include "stats/log_normal.h"

#include <algorithm>
#include <cmath>
#include <limits>
#include <stdexcept>

#include "stats/optimize.h"
#include "stats/special_functions.h"

namespace lvf2::stats {

LogNormal::LogNormal(double mu, double sigma) : mu_(mu), sigma_(sigma) {
  if (!(sigma > 0.0)) {
    throw std::invalid_argument("LogNormal: sigma must be positive");
  }
}

double LogNormal::pdf(double x) const {
  if (!(x > 0.0)) return 0.0;
  const double z = (std::log(x) - mu_) / sigma_;
  return normal_pdf(z) / (x * sigma_);
}

double LogNormal::cdf(double x) const {
  if (!(x > 0.0)) return 0.0;
  return normal_cdf((std::log(x) - mu_) / sigma_);
}

double LogNormal::quantile(double p) const {
  return std::exp(mu_ + sigma_ * normal_quantile(p));
}

double LogNormal::sample(Rng& rng) const {
  return std::exp(rng.normal(mu_, sigma_));
}

double LogNormal::mean() const {
  return std::exp(mu_ + 0.5 * sigma_ * sigma_);
}

double LogNormal::variance() const {
  const double s2 = sigma_ * sigma_;
  return (std::exp(s2) - 1.0) * std::exp(2.0 * mu_ + s2);
}

double LogNormal::stddev() const { return std::sqrt(variance()); }

double LogNormal::skewness() const {
  const double e = std::exp(sigma_ * sigma_);
  return (e + 2.0) * std::sqrt(e - 1.0);
}

std::optional<LogNormal> LogNormal::fit_moments(double mean, double stddev) {
  if (!(mean > 0.0) || !(stddev > 0.0)) return std::nullopt;
  const double cv2 = (stddev / mean) * (stddev / mean);
  const double sigma2 = std::log1p(cv2);
  const double mu = std::log(mean) - 0.5 * sigma2;
  return LogNormal(mu, std::sqrt(sigma2));
}

LogExtendedSkewNormal::LogExtendedSkewNormal(
    const ExtendedSkewNormal& log_domain)
    : esn_(log_domain) {}

double LogExtendedSkewNormal::pdf(double x) const {
  if (!(x > 0.0)) return 0.0;
  return esn_.pdf(std::log(x)) / x;
}

double LogExtendedSkewNormal::cdf(double x) const {
  if (!(x > 0.0)) return 0.0;
  return esn_.cdf(std::log(x));
}

double LogExtendedSkewNormal::quantile(double p) const {
  return std::exp(esn_.quantile(p));
}

double LogExtendedSkewNormal::sample(Rng& rng) const {
  return std::exp(esn_.sample(rng));
}

namespace {

// log E[X] for X = exp(omega Z_esn(delta, tau)).
double log_mean(double omega, double delta, double tau) {
  return 0.5 * omega * omega + normal_log_cdf(tau + delta * omega) -
         normal_log_cdf(tau);
}

// log Phi(x) and zeta1(x) = phi(x) / Phi(x).
void log_cdf_and_mills(double x, double& log_cdf, double& mills) {
  log_cdf = normal_log_cdf(x);
  if (x < -36.5) {  // Phi underflows: the asymptotic form
    mills = zeta1(x);
    return;
  }
  mills = normal_pdf(x) / ((x > 0.0) ? 1.0 - normal_cdf(-x) : normal_cdf(x));
}

// Shape statistics of X = exp(omega Z_esn(delta, tau)):
// stat = (log cv^2, skewness, kurtosis), and
// grad[i][j] = d stat[i] / d p_j for p = (log omega, atanh delta, tau).
// The central moments E[(X/mu - 1)^m] = sum_k B[m][k] expm1(a_k) come
// from the log moment ratios
//   a_k = log(E[X^k] / E[X]^k)
//       = k(k-1) omega^2 / 2 + log Phi(tau + k s) - k log Phi(tau + s)
//         + (k-1) log Phi(tau),            s = delta omega,
// so no O(1) raw moments cancel: at cv = 0.01 the fourth central
// moment keeps ~12 digits instead of ~8. d log Phi(x) / dx = zeta1(x)
// gives the gradient.
struct LesnShape {
  double stat[3];
  double grad[3][3];
};

LesnShape lesn_shape(double omega, double delta, double tau) {
  // B: binomial expansion of the m = 2, 3, 4 central moments over
  // k = 2, 3, 4 (the constant terms cancel).
  static constexpr double kBinomial[3][3] = {
      {1.0, 0.0, 0.0}, {-3.0, 1.0, 0.0}, {6.0, -4.0, 1.0}};
  const double s = delta * omega;
  double log_cdf[5];
  double mills[5];
  for (int k = 0; k <= 4; ++k) {
    log_cdf_and_mills(tau + k * s, log_cdf[k], mills[k]);
  }
  double c[3] = {};
  double dc[3][3] = {};
  for (int k = 2; k <= 4; ++k) {
    const double t = static_cast<double>(k);
    const double e = std::expm1(0.5 * t * (t - 1.0) * omega * omega +
                                log_cdf[k] - t * log_cdf[1] +
                                (t - 1.0) * log_cdf[0]);
    const double ratio = 1.0 + e;  // E[X^k] / E[X]^k
    const double dmills = mills[k] - mills[1];
    const double de[3] = {
        ratio * (t * (t - 1.0) * omega * omega + t * s * dmills),
        ratio * (1.0 - delta * delta) * omega * t * dmills,
        ratio * (dmills - (t - 1.0) * (mills[1] - mills[0]))};
    for (int m = 0; m < 3; ++m) {
      c[m] += kBinomial[m][k - 2] * e;
      for (int j = 0; j < 3; ++j) dc[m][j] += kBinomial[m][k - 2] * de[j];
    }
  }
  const double sd3 = c[0] * std::sqrt(c[0]);
  LesnShape shape{{std::log(c[0]), c[1] / sd3, c[2] / (c[0] * c[0])}, {}};
  for (int j = 0; j < 3; ++j) {
    const double dlog_var = dc[0][j] / c[0];
    shape.grad[0][j] = dlog_var;
    shape.grad[1][j] = dc[1][j] / sd3 - 1.5 * shape.stat[1] * dlog_var;
    shape.grad[2][j] =
        dc[2][j] / (c[0] * c[0]) - 2.0 * shape.stat[2] * dlog_var;
  }
  return shape;
}

LesnShape lesn_shape(const ExtendedSkewNormal& esn) {
  return lesn_shape(esn.omega(), esn.delta(), esn.tau());
}

// Four-moment fit controls. tau is kept in [-kMaxTau, kMaxTau] (the
// log-ESN is a log-normal to double precision beyond +30). A
// Levenberg-Marquardt run stops after kFitIterations steps, on an
// accepted move below kFitMinStep, or once the damping passes
// kFitMaxDamping; the starts stop early at a cost below kExactFit.
constexpr double kMaxTau = 30.0;
constexpr int kFitIterations = 200;
constexpr double kFitMinStep = 1e-12;
constexpr double kFitMaxDamping = 1e12;
constexpr double kExactFit = 1e-20;

}  // namespace

double LogExtendedSkewNormal::mean() const {
  return std::exp(esn_.xi() +
                  log_mean(esn_.omega(), esn_.delta(), esn_.tau()));
}

double LogExtendedSkewNormal::variance() const {
  const double mu = mean();
  return mu * mu * std::exp(lesn_shape(esn_).stat[0]);
}

double LogExtendedSkewNormal::stddev() const { return std::sqrt(variance()); }

double LogExtendedSkewNormal::skewness() const {
  return lesn_shape(esn_).stat[1];
}

double LogExtendedSkewNormal::kurtosis() const {
  return lesn_shape(esn_).stat[2];
}

std::optional<LogExtendedSkewNormal> LogExtendedSkewNormal::fit_moments(
    const Moments& target) {
  if (target.count == 0 || !(target.mean > 0.0) || !(target.stddev > 0.0)) {
    return std::nullopt;
  }

  // At p = (log omega, atanh delta, tau): the residuals
  // r = (2 log(cv / cv*), skew - skew*, (kurt - kurt*) / 2), the
  // gradient rows grad[j] = d r / d p_j, and the cost |r|^2 (infinite
  // where the moments are not finite).
  struct Point {
    double p[3];
    double r[3] = {};
    double grad[3][3] = {};
    double cost = std::numeric_limits<double>::infinity();
  };
  const auto dot = [](const double (&u)[3], const double (&v)[3]) {
    return u[0] * v[0] + u[1] * v[1] + u[2] * v[2];
  };
  const double goal[3] = {2.0 * std::log(target.stddev / target.mean),
                          target.skewness, target.kurtosis};
  const auto evaluate = [&](Point& x) {
    const LesnShape s =
        lesn_shape(std::exp(x.p[0]), std::tanh(x.p[1]), x.p[2]);
    for (int i = 0; i < 3; ++i) {
      const double weight = (i == 2) ? 0.5 : 1.0;
      x.r[i] = weight * (s.stat[i] - goal[i]);
      for (int j = 0; j < 3; ++j) x.grad[j][i] = weight * s.grad[i][j];
    }
    x.cost = dot(x.r, x.r);
    if (!std::isfinite(x.cost)) {
      x.cost = std::numeric_limits<double>::infinity();
    }
  };

  // Levenberg-Marquardt from one start: solve
  // (J^T J + mu diag(J^T J)) d = -J^T r; a step that lowers the cost is
  // taken (mu / 10), one that does not is retried with mu * 10. tau on
  // the box edge with the step pushing outward is held there, and a
  // step leaving the box is cut at its edge.
  const auto descend = [&](Point x) {
    evaluate(x);
    double mu = 1e-3;
    for (int it = 0; it < kFitIterations && x.cost > 0.0; ++it) {
      double jtj[6] = {dot(x.grad[0], x.grad[0]), dot(x.grad[0], x.grad[1]),
                       dot(x.grad[0], x.grad[2]), dot(x.grad[1], x.grad[1]),
                       dot(x.grad[1], x.grad[2]), dot(x.grad[2], x.grad[2])};
      for (const int k : {0, 3, 5}) jtj[k] *= 1.0 + mu;
      double rhs[3] = {-dot(x.grad[0], x.r), -dot(x.grad[1], x.r),
                       -dot(x.grad[2], x.r)};
      double d[3];
      if (!solve_damped_spd(jtj, rhs, d)) break;
      if (std::fabs(x.p[2]) >= kMaxTau && d[2] * x.p[2] > 0.0) {
        jtj[2] = jtj[4] = rhs[2] = 0.0;
        jtj[5] = 1.0;
        if (!solve_damped_spd(jtj, rhs, d)) break;
      }
      const bool cut = std::fabs(x.p[2] + d[2]) > kMaxTau;
      const double t =
          cut ? (std::copysign(kMaxTau, d[2]) - x.p[2]) / d[2] : 1.0;
      Point trial;
      for (int j = 0; j < 3; ++j) trial.p[j] = x.p[j] + t * d[j];
      if (cut) trial.p[2] = std::copysign(kMaxTau, d[2]);
      evaluate(trial);
      if (trial.cost < x.cost) {
        const double moved =
            t * std::max({std::fabs(d[0]), std::fabs(d[1]), std::fabs(d[2])});
        x = trial;
        mu = std::max(mu / 10.0, 1e-12);
        if (moved < kFitMinStep) break;
      } else if ((mu *= 10.0) > kFitMaxDamping) {
        break;
      }
    }
    return x;
  };

  Point best{};
  for (const double delta0 : {0.9, -0.9}) {
    for (const double tau0 : {0.0, -3.0, 3.0}) {
      if (best.cost < kExactFit) break;
      const Point end = descend({{0.5 * goal[0], std::atanh(delta0), tau0}});
      if (end.cost < best.cost) best = end;
    }
  }
  if (!std::isfinite(best.cost)) return std::nullopt;

  const double omega = std::exp(best.p[0]);
  const double delta = std::tanh(best.p[1]);
  const double tau = best.p[2];
  // Scale xi so the mean matches exactly.
  const double xi = std::log(target.mean) - log_mean(omega, delta, tau);
  const double d2 = 1.0 - delta * delta;
  const double alpha =
      (d2 <= 0.0) ? std::copysign(1e8, delta) : delta / std::sqrt(d2);
  return LogExtendedSkewNormal(ExtendedSkewNormal(xi, omega, alpha, tau));
}

}  // namespace lvf2::stats
