#pragma once
// Public batch-kernel API for the statistical hot path. A dispatch
// tier (scalar / AVX2+FMA) is resolved once, on first use, from CPUID
// plus the LVF2_SIMD environment override (auto|avx2|scalar), and
// recorded in the run manifest as "simd.tier". The scalar tier
// delegates element-wise to the stats:: per-sample functions and is
// bitwise identical to calling them in a loop; the AVX2 tier agrees to
// a few ULP (see tests/test_simd.cpp for the exact bounds).
//
// All span overloads require out.size() >= x.size(); in-place
// (out == x) is allowed for the unary kernels.

#include <cstddef>
#include <span>

namespace lvf2::simd {

// The values are the bench_perf Arg and row suffix (BM_*_0, BM_*_2).
enum class Tier {
  kScalar = 0,
  kAvx2 = 2,
};

/// Tier in effect (resolves on first call; thread-safe).
Tier active_tier();

/// "scalar" / "avx2".
const char* tier_name(Tier tier);

/// Whether the binary carries kernels for `tier` and the CPU can run
/// them (always true for kScalar).
bool tier_available(Tier tier);

/// Test hook: force a tier (must be available), bypassing the
/// environment/CPUID choice. Not thread-safe; call from test setup
/// only. Returns the previously active tier.
Tier set_tier_for_testing(Tier tier);

// --- standard-normal primitives ------------------------------------
void normal_pdf(std::span<const double> x, std::span<double> out);
void normal_cdf(std::span<const double> x, std::span<double> out);
void normal_log_cdf(std::span<const double> x, std::span<double> out);
void normal_quantile(std::span<const double> p, std::span<double> out);
void exp(std::span<const double> x, std::span<double> out);

/// Owen's T(h[i], a) with fixed second argument.
void owens_t(std::span<const double> h, double a, std::span<double> out);

// --- distribution kernels (fixed parameters, batched argument) -----
void sn_log_pdf(double xi, double omega, double alpha,
                std::span<const double> x, std::span<double> out);
void sn_pdf(double xi, double omega, double alpha,
            std::span<const double> x, std::span<double> out);
void sn_cdf(double xi, double omega, double alpha,
            std::span<const double> x, std::span<double> out);
void esn_log_pdf(double xi, double omega, double alpha, double tau,
                 std::span<const double> x, std::span<double> out);
void esn_pdf(double xi, double omega, double alpha, double tau,
             std::span<const double> x, std::span<double> out);
void normal_mu_sigma_log_pdf(double mu, double sigma,
                             std::span<const double> x,
                             std::span<double> out);

/// Two-component E-step combine: with a_i = log_w_a + lpa[i] and
/// b_i = log_w_b + lpb[i], writes lse[i] = log_sum_exp(a_i, b_i) and
/// resp[i] = exp(b_i - lse[i]).
void em_responsibilities(double log_w_a, double log_w_b,
                         std::span<const double> lpa,
                         std::span<const double> lpb,
                         std::span<double> resp, std::span<double> lse);

/// y[i] += a * x[i], never fused (bitwise identical across tiers).
void axpy(double a, std::span<const double> x, std::span<double> y);

/// Weighted skew-normal likelihood with its derivatives, in one pass
/// (the Newton M-step's only kernel). Over {i : w[i] > 0}, with
/// l = sum w[i] * sn_log_pdf(xi, omega, alpha; x[i]):
struct SnScore {
  double nll = 0.0;        ///< -l
  double score[3] = {};    ///< dl/d(xi, omega, alpha)
  double hessian[6] = {};  ///< d2l, packed: xx, xw, xa, ww, wa, aa
};

/// The scalar tier is bitwise identical to an index-order loop over
/// the per-sample stats:: functions (its nll equals filling a log-pdf
/// buffer and reducing it); the vector tiers keep per-lane
/// accumulators summed in lane order, so the result is deterministic
/// for a fixed size. Zero, negative and NaN weights contribute
/// nothing, whatever x holds.
SnScore sn_weighted_nll_score(double xi, double omega, double alpha,
                              std::span<const double> x,
                              std::span<const double> w);

}  // namespace lvf2::simd
