#pragma once
// Internal: the per-tier kernel function table. Raw-pointer
// signatures on purpose — the per-ISA translation units are compiled
// with different -march flags, and keeping std:: templates out of
// their interface avoids any chance of an AVX2-encoded comdat inline
// being picked by the linker for the portable binary. dispatch.cpp
// owns tier resolution and the public std::span wrappers (simd.h).

#include <cstddef>

namespace lvf2::simd::detail {

struct KernelTable {
  void (*normal_pdf)(const double*, double*, std::size_t);
  void (*normal_cdf)(const double*, double*, std::size_t);
  void (*normal_log_cdf)(const double*, double*, std::size_t);
  void (*normal_quantile)(const double*, double*, std::size_t);
  void (*exp)(const double*, double*, std::size_t);
  void (*owens_t)(const double*, double, double*, std::size_t);
  void (*sn_log_pdf)(double xi, double omega, double alpha, const double*,
                     double*, std::size_t);
  void (*sn_pdf)(double xi, double omega, double alpha, const double*,
                 double*, std::size_t);
  void (*sn_cdf)(double xi, double omega, double alpha, const double*,
                 double*, std::size_t);
  void (*esn_log_pdf)(double xi, double omega, double alpha, double tau,
                      const double*, double*, std::size_t);
  void (*esn_pdf)(double xi, double omega, double alpha, double tau,
                  const double*, double*, std::size_t);
  void (*normal_mu_sigma_log_pdf)(double mu, double sigma, const double*,
                                  double*, std::size_t);
  // E-step combine: a_i = log_w_a + lpa[i], b_i = log_w_b + lpb[i];
  // lse[i] = log_sum_exp(a_i, b_i), resp[i] = exp(b_i - lse[i]).
  void (*em_responsibilities)(double log_w_a, double log_w_b,
                              const double* lpa, const double* lpb,
                              double* resp, double* lse, std::size_t);
  // y[i] += a * x[i] with an unfused multiply+add on every tier, so
  // grid convolution stays bitwise identical across tiers.
  void (*axpy)(double a, const double*, double*, std::size_t);
  // Fused M-step pass: out[0] = -sum_{w_i > 0} w_i * sn_log_pdf(x_i),
  // out[1..3] the weighted score and out[4..9] the packed Hessian of
  // the log-likelihood in (xi, omega, alpha). One kernels_impl.h body
  // serves both tiers (the scalar tier is its index-order loop).
  void (*sn_nll_score)(double xi, double omega, double alpha,
                       const double* x, const double* w, std::size_t n,
                       double* out);
};

/// Always available (element-wise delegation to stats::).
const KernelTable* scalar_kernels();
/// nullptr when the TU could not be built for the ISA.
const KernelTable* avx2_kernels();

}  // namespace lvf2::simd::detail
