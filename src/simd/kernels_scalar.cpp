// Scalar dispatch tier: every kernel is an element-wise loop over the
// existing per-sample stats:: functions, in index order — bitwise
// identical to the pre-batch code paths by construction. This is the
// tier the zero-tolerance golden-manifest gate runs against
// (LVF2_SIMD=scalar), and the correctness reference the SIMD tiers'
// ULP tests compare to. The fused M-step kernel is the one exception
// to the hand-written loops: its kernels_impl.h body, instantiated at
// double, is already an index-order loop over stats:: calls.

#include <cmath>
#include <cstddef>

#include "simd/kernel_table.h"
#include "simd/kernels_impl.h"
#include "stats/special_functions.h"

namespace lvf2::simd::detail {

namespace {

void s_normal_pdf(const double* x, double* out, std::size_t n) {
  for (std::size_t i = 0; i < n; ++i) out[i] = stats::normal_pdf(x[i]);
}

void s_normal_cdf(const double* x, double* out, std::size_t n) {
  for (std::size_t i = 0; i < n; ++i) out[i] = stats::normal_cdf(x[i]);
}

void s_normal_log_cdf(const double* x, double* out, std::size_t n) {
  for (std::size_t i = 0; i < n; ++i) out[i] = stats::normal_log_cdf(x[i]);
}

void s_normal_quantile(const double* p, double* out, std::size_t n) {
  for (std::size_t i = 0; i < n; ++i) out[i] = stats::normal_quantile(p[i]);
}

void s_exp(const double* x, double* out, std::size_t n) {
  for (std::size_t i = 0; i < n; ++i) out[i] = std::exp(x[i]);
}

void s_owens_t(const double* h, double a, double* out, std::size_t n) {
  for (std::size_t i = 0; i < n; ++i) out[i] = stats::owens_t(h[i], a);
}

void s_sn_log_pdf(double xi, double omega, double alpha, const double* x,
                  double* out, std::size_t n) {
  // Same expression as SkewNormal::log_pdf, element by element.
  for (std::size_t i = 0; i < n; ++i) {
    const double z = (x[i] - xi) / omega;
    out[i] = std::log(2.0 / omega) - 0.5 * z * z -
             std::log(stats::kSqrt2Pi) + stats::normal_log_cdf(alpha * z);
  }
}

void s_sn_pdf(double xi, double omega, double alpha, const double* x,
              double* out, std::size_t n) {
  for (std::size_t i = 0; i < n; ++i) {
    const double z = (x[i] - xi) / omega;
    out[i] = 2.0 / omega * stats::normal_pdf(z) *
             stats::normal_cdf(alpha * z);
  }
}

void s_sn_cdf(double xi, double omega, double alpha, const double* x,
              double* out, std::size_t n) {
  for (std::size_t i = 0; i < n; ++i) {
    const double z = (x[i] - xi) / omega;
    const double value =
        stats::normal_cdf(z) - 2.0 * stats::owens_t(z, alpha);
    const double lo = value < 0.0 ? 0.0 : value;
    out[i] = lo > 1.0 ? 1.0 : lo;
  }
}

void s_esn_log_pdf(double xi, double omega, double alpha, double tau,
                   const double* x, double* out, std::size_t n) {
  // Same expression as ExtendedSkewNormal::log_pdf.
  for (std::size_t i = 0; i < n; ++i) {
    const double z = (x[i] - xi) / omega;
    const double arg = tau * std::sqrt(1.0 + alpha * alpha) + alpha * z;
    out[i] = -0.5 * z * z - std::log(stats::kSqrt2Pi * omega) +
             stats::normal_log_cdf(arg) - stats::normal_log_cdf(tau);
  }
}

void s_esn_pdf(double xi, double omega, double alpha, double tau,
               const double* x, double* out, std::size_t n) {
  s_esn_log_pdf(xi, omega, alpha, tau, x, out, n);
  for (std::size_t i = 0; i < n; ++i) out[i] = std::exp(out[i]);
}

void s_normal_mu_sigma_log_pdf(double mu, double sigma, const double* x,
                               double* out, std::size_t n) {
  // Same expression as stats::Normal::log_pdf.
  for (std::size_t i = 0; i < n; ++i) {
    const double z = (x[i] - mu) / sigma;
    out[i] = -0.5 * z * z - std::log(sigma * stats::kSqrt2Pi);
  }
}

void s_em_responsibilities(double log_w_a, double log_w_b,
                           const double* lpa, const double* lpb,
                           double* resp, double* lse, std::size_t n) {
  for (std::size_t i = 0; i < n; ++i) {
    const double a = log_w_a + lpa[i];
    const double b = log_w_b + lpb[i];
    const double l = stats::log_sum_exp(a, b);
    lse[i] = l;
    resp[i] = std::exp(b - l);
  }
}

void s_axpy(double a, const double* x, double* y, std::size_t n) {
  for (std::size_t i = 0; i < n; ++i) y[i] += a * x[i];
}

constexpr KernelTable kScalarTable = {
    s_normal_pdf,
    s_normal_cdf,
    s_normal_log_cdf,
    s_normal_quantile,
    s_exp,
    s_owens_t,
    s_sn_log_pdf,
    s_sn_pdf,
    s_sn_cdf,
    s_esn_log_pdf,
    s_esn_pdf,
    s_normal_mu_sigma_log_pdf,
    s_em_responsibilities,
    s_axpy,
    k_sn_nll_score<double>,
};

}  // namespace

const KernelTable* scalar_kernels() { return &kScalarTable; }

}  // namespace lvf2::simd::detail
