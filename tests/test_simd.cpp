// Batch-vs-scalar agreement suite for the dispatch kernels (src/simd).
//
// Contract under test (simd.h, DESIGN.md decision 21):
//  - the scalar tier is BITWISE identical to looping the per-sample
//    stats:: functions in index order — it is the tier the
//    zero-tolerance golden-manifest gate runs under;
//  - the SIMD tier (AVX2+FMA) agrees with the scalar tier to a
//    small documented ULP bound per kernel, with an absolute-error
//    escape hatch where the result crosses zero (log Phi at the
//    right tail rounds to -0.0 in one formulation and to -5.7e-17 in
//    another: astronomically many ULP, physically nothing);
//  - edge inputs (signed zero, denormals, infinities, NaN, deep
//    tails) neither trap nor poison neighboring lanes;
//  - the vector tier's remainder loop (n % lanes != 0) matches the
//    full-width path.
//
// The bounds asserted here are roughly 2x the worst deviation
// measured on the current kernels (see the table in DESIGN.md), so
// they fail on a real regression, not on compiler jitter.

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <cstring>
#include <limits>
#include <span>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "simd/simd.h"
#include "stats/special_functions.h"

#include "test_util.h"

namespace lvf2 {
namespace {

constexpr double kInf = std::numeric_limits<double>::infinity();
constexpr double kNan = std::numeric_limits<double>::quiet_NaN();
constexpr double kDenormal = 5e-324;

// Distance in representable doubles, treating +0/-0 as equal and any
// NaN pair as equal. Infinite results must match exactly.
std::uint64_t ulp_diff(double a, double b) {
  if (std::isnan(a) && std::isnan(b)) return 0;
  if (std::isnan(a) || std::isnan(b)) {
    return std::numeric_limits<std::uint64_t>::max();
  }
  if (a == b) return 0;  // also catches +0 vs -0 and equal infinities
  if (std::isinf(a) || std::isinf(b)) {
    return std::numeric_limits<std::uint64_t>::max();
  }
  auto key = [](double v) {
    std::int64_t bits;
    std::memcpy(&bits, &v, sizeof(bits));
    return (bits < 0) ? std::numeric_limits<std::int64_t>::min() - bits
                      : bits;
  };
  const std::int64_t ka = key(a);
  const std::int64_t kb = key(b);
  return (ka > kb) ? static_cast<std::uint64_t>(ka - kb)
                   : static_cast<std::uint64_t>(kb - ka);
}

// Every tier the build machine can actually run.
std::vector<simd::Tier> reachable_tiers() {
  std::vector<simd::Tier> tiers;
  for (simd::Tier t : {simd::Tier::kScalar, simd::Tier::kAvx2}) {
    if (simd::tier_available(t)) tiers.push_back(t);
  }
  return tiers;
}

using test::TierGuard;

// Edge inputs every kernel must survive, followed by a dense sweep
// through all the band seams of the normal primitives (|x| = 3.5 and
// 36.5 for log Phi, the erfc split points, the deep tails).
std::vector<double> edge_and_sweep_inputs() {
  std::vector<double> x = {
      +0.0,       -0.0,        kDenormal,  -kDenormal, 1e-308,
      -1e-308,    kInf,        -kInf,      kNan,       1e300,
      -1e300,     -37.9,       -36.5001,   -36.5,      -36.4999,
      -8.25,      -3.5001,     -3.5,       -3.4999,    3.4999,
      3.5,        3.5001,      8.2944,     37.9,       -745.0,
      745.0,
  };
  for (int i = 0; i <= 4000; ++i) {
    x.push_back(-40.0 + 80.0 * static_cast<double>(i) / 4000.0);
  }
  return x;
}

// Per-kernel deviation bound of the AVX2 tier vs the scalar tier:
// results agree to `ulp` ULP, or to `abs` absolute where the ULP
// measure explodes because the comparison straddles zero.
struct Bound {
  std::uint64_t ulp = 0;
  double abs = 0.0;
};

void expect_close(const std::string& what, simd::Tier tier, double got,
                  double want, const Bound& bound, double input) {
  if (std::isnan(want)) {
    EXPECT_TRUE(std::isnan(got))
        << what << " on " << simd::tier_name(tier) << " at x=" << input
        << ": expected NaN, got " << got;
    return;
  }
  const std::uint64_t u = ulp_diff(got, want);
  if (u <= bound.ulp) return;
  if (std::fabs(got - want) <= bound.abs) return;
  ADD_FAILURE() << what << " on " << simd::tier_name(tier)
                << " at x=" << input << ": got " << got << " want " << want
                << " (" << u << " ULP, bound " << bound.ulp << ")";
}

// ---- scalar tier: bitwise vs the per-sample loop -------------------

template <typename BatchFn, typename ScalarFn>
void check_scalar_bitwise(const std::string& what, BatchFn batch,
                          ScalarFn per_sample) {
  const TierGuard guard(simd::Tier::kScalar);
  const std::vector<double> x = edge_and_sweep_inputs();
  std::vector<double> out(x.size(), 0.125);
  batch(std::span<const double>(x), std::span<double>(out));
  for (std::size_t i = 0; i < x.size(); ++i) {
    const double want = per_sample(x[i]);
    if (std::isnan(want)) {
      EXPECT_TRUE(std::isnan(out[i])) << what << " at x=" << x[i];
      continue;
    }
    std::uint64_t got_bits, want_bits;
    std::memcpy(&got_bits, &out[i], sizeof(got_bits));
    std::memcpy(&want_bits, &want, sizeof(want_bits));
    EXPECT_EQ(got_bits, want_bits)
        << what << " at x=" << x[i] << ": got " << out[i] << " want "
        << want;
  }
}

TEST(SimdScalarTier, NormalPdfBitwise) {
  check_scalar_bitwise(
      "normal_pdf",
      [](auto x, auto out) { simd::normal_pdf(x, out); },
      [](double v) { return stats::normal_pdf(v); });
}

TEST(SimdScalarTier, NormalCdfBitwise) {
  check_scalar_bitwise(
      "normal_cdf",
      [](auto x, auto out) { simd::normal_cdf(x, out); },
      [](double v) { return stats::normal_cdf(v); });
}

TEST(SimdScalarTier, NormalLogCdfBitwise) {
  check_scalar_bitwise(
      "normal_log_cdf",
      [](auto x, auto out) { simd::normal_log_cdf(x, out); },
      [](double v) { return stats::normal_log_cdf(v); });
}

TEST(SimdScalarTier, ExpBitwise) {
  check_scalar_bitwise(
      "exp", [](auto x, auto out) { simd::exp(x, out); },
      [](double v) { return std::exp(v); });
}

TEST(SimdScalarTier, OwensTBitwise) {
  for (double a : {-3.0, -0.7, 0.0, 0.31, 1.0, 2.3, 40.0}) {
    check_scalar_bitwise(
        "owens_t(a=" + std::to_string(a) + ")",
        [a](auto x, auto out) { simd::owens_t(x, a, out); },
        [a](double v) { return stats::owens_t(v, a); });
  }
}

TEST(SimdScalarTier, SnKernelsBitwise) {
  const double xi = 0.1, omega = 0.02, alpha = 2.5;
  check_scalar_bitwise(
      "sn_log_pdf",
      [&](auto x, auto out) { simd::sn_log_pdf(xi, omega, alpha, x, out); },
      [&](double v) {
        const double z = (v - xi) / omega;
        return std::log(2.0 / omega) - 0.5 * z * z -
               std::log(stats::kSqrt2Pi) + stats::normal_log_cdf(alpha * z);
      });
  check_scalar_bitwise(
      "sn_pdf",
      [&](auto x, auto out) { simd::sn_pdf(xi, omega, alpha, x, out); },
      [&](double v) {
        const double z = (v - xi) / omega;
        return 2.0 / omega * stats::normal_pdf(z) *
               stats::normal_cdf(alpha * z);
      });
  check_scalar_bitwise(
      "sn_cdf",
      [&](auto x, auto out) { simd::sn_cdf(xi, omega, alpha, x, out); },
      [&](double v) {
        const double z = (v - xi) / omega;
        const double value =
            stats::normal_cdf(z) - 2.0 * stats::owens_t(z, alpha);
        const double lo = value < 0.0 ? 0.0 : value;
        return lo > 1.0 ? 1.0 : lo;
      });
}

TEST(SimdScalarTier, EsnAndNormalMuSigmaBitwise) {
  const double xi = -0.3, omega = 1.7, alpha = -1.2, tau = 0.8;
  check_scalar_bitwise(
      "esn_log_pdf",
      [&](auto x, auto out) {
        simd::esn_log_pdf(xi, omega, alpha, tau, x, out);
      },
      [&](double v) {
        const double z = (v - xi) / omega;
        const double arg =
            tau * std::sqrt(1.0 + alpha * alpha) + alpha * z;
        return -0.5 * z * z - std::log(stats::kSqrt2Pi * omega) +
               stats::normal_log_cdf(arg) - stats::normal_log_cdf(tau);
      });
  check_scalar_bitwise(
      "normal_mu_sigma_log_pdf",
      [&](auto x, auto out) {
        simd::normal_mu_sigma_log_pdf(0.25, 1.5, x, out);
      },
      [&](double v) {
        const double z = (v - 0.25) / 1.5;
        return -0.5 * z * z - std::log(1.5 * stats::kSqrt2Pi);
      });
}

TEST(SimdScalarTier, QuantileBitwise) {
  const TierGuard guard(simd::Tier::kScalar);
  std::vector<double> p;
  for (int i = 0; i <= 2000; ++i) {
    p.push_back(static_cast<double>(i) / 2000.0);
  }
  p.insert(p.end(), {1e-300, 1e-15, 0.5, 1.0 - 1e-16, kNan});
  std::vector<double> out(p.size());
  simd::normal_quantile(p, out);
  for (std::size_t i = 0; i < p.size(); ++i) {
    const double want = stats::normal_quantile(p[i]);
    if (std::isnan(want)) {
      EXPECT_TRUE(std::isnan(out[i])) << "p=" << p[i];
      continue;
    }
    EXPECT_EQ(ulp_diff(out[i], want), 0u) << "p=" << p[i];
  }
}

TEST(SimdScalarTier, EmResponsibilitiesBitwise) {
  const TierGuard guard(simd::Tier::kScalar);
  const std::vector<double> lpa = edge_and_sweep_inputs();
  std::vector<double> lpb(lpa.size());
  for (std::size_t i = 0; i < lpa.size(); ++i) lpb[i] = -0.5 * lpa[i] - 1.0;
  std::vector<double> resp(lpa.size()), lse(lpa.size());
  simd::em_responsibilities(std::log(0.4), std::log(0.6), lpa, lpb, resp,
                            lse);
  for (std::size_t i = 0; i < lpa.size(); ++i) {
    const double a = std::log(0.4) + lpa[i];
    const double b = std::log(0.6) + lpb[i];
    const double l = stats::log_sum_exp(a, b);
    if (std::isnan(l)) {
      EXPECT_TRUE(std::isnan(lse[i]));
      continue;
    }
    EXPECT_EQ(ulp_diff(lse[i], l), 0u) << "lpa=" << lpa[i];
    EXPECT_EQ(ulp_diff(resp[i], std::exp(b - l)), 0u) << "lpa=" << lpa[i];
  }
}

TEST(SimdScalarTier, SnWeightedNllBitwiseVsBufferAndReduce) {
  const TierGuard guard(simd::Tier::kScalar);
  const double xi = 0.05, omega = 0.01, alpha = -1.8;
  std::vector<double> x, w;
  for (int i = 0; i < 1237; ++i) {
    x.push_back(0.05 + 0.01 * std::sin(0.37 * i) * 3.0);
    // Include zero and negative weights: both must be skipped.
    w.push_back((i % 7 == 0) ? 0.0 : ((i % 11 == 0) ? -0.25 : 1e-3 * i));
  }
  // The historical formulation: fill a log-pdf buffer, then reduce.
  std::vector<double> lp(x.size());
  simd::sn_log_pdf(xi, omega, alpha, x, lp);
  double want = 0.0;
  for (std::size_t i = 0; i < x.size(); ++i) {
    if (w[i] > 0.0) want -= w[i] * lp[i];
  }
  const double got = simd::sn_weighted_nll_score(xi, omega, alpha, x, w).nll;
  EXPECT_EQ(ulp_diff(got, want), 0u) << got << " vs " << want;
}

// Per-sample stats:: reference of the fused M-step kernel: the same
// per-point expressions, accumulated in index order. `scale` receives
// sum w |term| per output (the conditioning of each sum, which the
// vector-tier bounds are relative to).
simd::SnScore sn_score_reference(double xi, double omega, double alpha,
                                 const std::vector<double>& x,
                                 const std::vector<double>& w,
                                 double (*scale)[10] = nullptr) {
  const double lg2w = std::log(2.0 / omega);
  const double lgs2pi = std::log(stats::kSqrt2Pi);
  double s[10] = {}, a_s[10] = {};
  for (std::size_t i = 0; i < x.size(); ++i) {
    if (!(w[i] > 0.0)) continue;
    const double z = (x[i] - xi) / omega;
    const double u = alpha * z;
    const double lc = stats::normal_log_cdf(u);
    const double zeta1 = std::exp((-0.5 * u * u - lgs2pi) - lc);
    const double zeta2 = -zeta1 * (u + zeta1);
    const double a = alpha * zeta1;
    const double b = alpha * alpha * zeta2;
    const double z2 = z * z;
    const double t[10] = {lg2w - 0.5 * z * z - lgs2pi + lc,
                          z - a,
                          z2 - 1.0 - z * a,
                          z * zeta1,
                          b - 1.0,
                          (a - 2.0 * z) + z * b,
                          -zeta1 - alpha * z * zeta2,
                          ((1.0 - 3.0 * z2) + 2.0 * z * a) + z2 * b,
                          -(z * zeta1) - alpha * z2 * zeta2,
                          z2 * zeta2};
    for (int k = 0; k < 10; ++k) {
      s[k] += w[i] * t[k];
      a_s[k] += std::fabs(w[i] * t[k]);
    }
  }
  const double o2 = omega * omega;
  const double div[10] = {1.0, omega, omega, 1.0, o2, o2, omega, o2, omega,
                          1.0};
  if (scale != nullptr) {
    for (int k = 0; k < 10; ++k) (*scale)[k] = a_s[k] / div[k];
  }
  simd::SnScore r;
  r.nll = -s[0];
  for (int k = 0; k < 3; ++k) r.score[k] = s[1 + k] / div[1 + k];
  for (int k = 0; k < 6; ++k) r.hessian[k] = s[4 + k] / div[4 + k];
  return r;
}

// The ten outputs of one fused pass, in kernel order.
std::vector<double> flat(const simd::SnScore& s) {
  std::vector<double> v = {s.nll};
  v.insert(v.end(), s.score, s.score + 3);
  v.insert(v.end(), s.hessian, s.hessian + 6);
  return v;
}

// Shape sweep of the M-step kernel: bin-center-like points spanning
// +-6 omega around xi, with zero, negative and varying weights.
struct SnScoreCase {
  double xi, omega, alpha;
  std::vector<double> x, w;
};

std::vector<SnScoreCase> sn_score_cases() {
  std::vector<SnScoreCase> cases;
  for (const double alpha : {0.0, 2.0, -2.0, 8.0, -8.0, 30.0, -30.0}) {
    SnScoreCase c{0.05, 0.01, alpha, {}, {}};
    for (int i = 0; i < 1237; ++i) {
      c.x.push_back(c.xi + c.omega * (-6.0 + 12.0 * i / 1236.0));
      c.w.push_back((i % 7 == 0)    ? 0.0
                    : (i % 11 == 0) ? -0.25
                                    : 1e-3 * (1 + i % 13));
    }
    cases.push_back(std::move(c));
  }
  return cases;
}

TEST(SimdScalarTier, SnNllScoreBitwiseVsReferenceLoop) {
  const TierGuard guard(simd::Tier::kScalar);
  for (const SnScoreCase& c : sn_score_cases()) {
    const std::vector<double> got =
        flat(simd::sn_weighted_nll_score(c.xi, c.omega, c.alpha, c.x, c.w));
    const std::vector<double> want =
        flat(sn_score_reference(c.xi, c.omega, c.alpha, c.x, c.w));
    for (std::size_t k = 0; k < got.size(); ++k) {
      EXPECT_EQ(ulp_diff(got[k], want[k]), 0u)
          << "alpha=" << c.alpha << " output " << k;
    }
  }
}

// Score and Hessian against central differences of the kernel's own
// NLL and score (scalar tier), across the shapes EM meets.
TEST(SimdScalarTier, SnNllScoreMatchesFiniteDifferences) {
  const TierGuard guard(simd::Tier::kScalar);
  for (const SnScoreCase& c : sn_score_cases()) {
    // Evaluate off the data's own center so no derivative is ~0.
    const double theta[3] = {c.xi + 0.3 * c.omega, 1.2 * c.omega,
                             0.9 * c.alpha + 0.1};
    const double h[3] = {1e-5 * theta[1], 1e-5 * theta[1],
                         1e-5 * std::max(std::fabs(theta[2]), 1.0)};
    const auto at = [&](int j, double sign) {
      double p[3] = {theta[0], theta[1], theta[2]};
      p[j] += sign * h[j];
      return simd::sn_weighted_nll_score(p[0], p[1], p[2], c.x, c.w);
    };
    const simd::SnScore s =
        simd::sn_weighted_nll_score(theta[0], theta[1], theta[2], c.x, c.w);
    // Packed Hessian index of (j, k).
    const int idx[3][3] = {{0, 1, 2}, {1, 3, 4}, {2, 4, 5}};
    for (int j = 0; j < 3; ++j) {
      const simd::SnScore up = at(j, 1.0), dn = at(j, -1.0);
      const double fd_score = -(up.nll - dn.nll) / (2.0 * h[j]);
      EXPECT_NEAR(s.score[j], fd_score,
                  1e-6 * std::max(std::fabs(fd_score), 1.0))
          << "alpha=" << c.alpha << " score " << j;
      for (int k = 0; k < 3; ++k) {
        const double fd_h = (up.score[k] - dn.score[k]) / (2.0 * h[j]);
        const double hk = s.hessian[idx[j][k]];
        EXPECT_NEAR(hk, fd_h, 1e-5 * std::max(std::fabs(fd_h), 1.0))
            << "alpha=" << c.alpha << " hessian " << j << "," << k;
      }
    }
  }
}

// ---- SIMD tiers: documented ULP bounds vs the scalar tier ----------

std::vector<simd::Tier> vector_tiers() {
  std::vector<simd::Tier> tiers;
  for (simd::Tier t : reachable_tiers()) {
    if (t != simd::Tier::kScalar) tiers.push_back(t);
  }
  return tiers;
}

template <typename BatchFn>
void check_simd_close(const std::string& what, BatchFn batch,
                      const Bound& bound) {
  const std::vector<double> x = edge_and_sweep_inputs();
  std::vector<double> want(x.size());
  {
    const TierGuard guard(simd::Tier::kScalar);
    batch(std::span<const double>(x), std::span<double>(want));
  }
  for (simd::Tier tier : vector_tiers()) {
    const TierGuard guard(tier);
    std::vector<double> out(x.size(), 0.125);
    batch(std::span<const double>(x), std::span<double>(out));
    for (std::size_t i = 0; i < x.size(); ++i) {
      expect_close(what, tier, out[i], want[i], bound, x[i]);
    }
  }
}

TEST(SimdVectorTiers, NormalPdfWithinBounds) {
  check_simd_close(
      "normal_pdf", [](auto x, auto out) { simd::normal_pdf(x, out); },
      Bound{4, 0.0});
}

TEST(SimdVectorTiers, NormalCdfWithinBounds) {
  check_simd_close(
      "normal_cdf", [](auto x, auto out) { simd::normal_cdf(x, out); },
      Bound{6, 0.0});
}

TEST(SimdVectorTiers, NormalLogCdfWithinBounds) {
  // The ULP bound holds where |log Phi| is resolvable; at the far
  // right tail the scalar path rounds to -0.0 while the vector path
  // keeps the true O(1e-17) magnitude, so an absolute escape of
  // 1e-12 covers the zero crossing (measured worst: 1.1e-13).
  check_simd_close(
      "normal_log_cdf",
      [](auto x, auto out) { simd::normal_log_cdf(x, out); },
      Bound{24, 1e-12});
}

TEST(SimdVectorTiers, NormalQuantileWithinBounds) {
  std::vector<double> p;
  for (int i = 0; i <= 2000; ++i) {
    p.push_back(static_cast<double>(i) / 2000.0);
  }
  p.insert(p.end(), {1e-300, 1e-15, 1.0 - 1e-16, kNan});
  std::vector<double> want(p.size());
  {
    const TierGuard guard(simd::Tier::kScalar);
    simd::normal_quantile(p, want);
  }
  for (simd::Tier tier : vector_tiers()) {
    const TierGuard guard(tier);
    std::vector<double> out(p.size());
    simd::normal_quantile(p, out);
    for (std::size_t i = 0; i < p.size(); ++i) {
      // Near the median the quantile passes through zero, where ULP
      // distance is meaningless; the absolute bound (measured worst
      // 4.9e-15) is the meaningful criterion across the whole range.
      expect_close("normal_quantile", tier, out[i], want[i],
                   Bound{8, 1e-13}, p[i]);
    }
  }
}

TEST(SimdVectorTiers, ExpWithinBounds) {
  check_simd_close(
      "exp", [](auto x, auto out) { simd::exp(x, out); }, Bound{2, 0.0});
}

TEST(SimdVectorTiers, OwensTWithinBounds) {
  for (double a : {-3.0, -0.7, 0.0, 0.31, 1.0, 2.3, 40.0}) {
    check_simd_close(
        "owens_t(a=" + std::to_string(a) + ")",
        [a](auto x, auto out) { simd::owens_t(x, a, out); },
        Bound{8, 1e-18});
  }
}

TEST(SimdVectorTiers, SkewNormalKernelsWithinBounds) {
  const double xi = 0.1, omega = 0.02, alpha = 2.5;
  check_simd_close(
      "sn_log_pdf",
      [&](auto x, auto out) { simd::sn_log_pdf(xi, omega, alpha, x, out); },
      Bound{12, 1e-11});
  check_simd_close(
      "sn_pdf",
      [&](auto x, auto out) { simd::sn_pdf(xi, omega, alpha, x, out); },
      Bound{8, 0.0});
  check_simd_close(
      "sn_cdf",
      [&](auto x, auto out) { simd::sn_cdf(xi, omega, alpha, x, out); },
      Bound{6, 1e-17});
}

TEST(SimdVectorTiers, EsnAndNormalMuSigmaWithinBounds) {
  const double xi = -0.3, omega = 1.7, alpha = -1.2, tau = 0.8;
  check_simd_close(
      "esn_log_pdf",
      [&](auto x, auto out) {
        simd::esn_log_pdf(xi, omega, alpha, tau, x, out);
      },
      Bound{12, 1e-11});
  // esn_pdf = exp(esn_log_pdf): a k-ULP error in the log-pdf becomes
  // ~k * |log pdf| ULP of relative error in the pdf, and |log pdf|
  // reaches ~550 at the sweep's deep-tail points (pdf ~ 1e-241), so
  // no fixed small ULP bound exists for the composed kernel. Measured
  // worst: 28 ULP in the body (|log pdf| < 50), 1009 ULP at the
  // extreme tail; 2048 fails on a real regression, not on rounding.
  check_simd_close(
      "esn_pdf",
      [&](auto x, auto out) {
        simd::esn_pdf(xi, omega, alpha, tau, x, out);
      },
      Bound{2048, 0.0});
  check_simd_close(
      "normal_mu_sigma_log_pdf",
      [&](auto x, auto out) {
        simd::normal_mu_sigma_log_pdf(0.25, 1.5, x, out);
      },
      Bound{8, 1e-12});
}

TEST(SimdVectorTiers, EmResponsibilitiesWithinBounds) {
  const std::vector<double> lpa = edge_and_sweep_inputs();
  std::vector<double> lpb(lpa.size());
  for (std::size_t i = 0; i < lpa.size(); ++i) lpb[i] = -0.5 * lpa[i] - 1.0;
  std::vector<double> resp_ref(lpa.size()), lse_ref(lpa.size());
  {
    const TierGuard guard(simd::Tier::kScalar);
    simd::em_responsibilities(std::log(0.4), std::log(0.6), lpa, lpb,
                              resp_ref, lse_ref);
  }
  for (simd::Tier tier : vector_tiers()) {
    const TierGuard guard(tier);
    std::vector<double> resp(lpa.size()), lse(lpa.size());
    simd::em_responsibilities(std::log(0.4), std::log(0.6), lpa, lpb, resp,
                              lse);
    for (std::size_t i = 0; i < lpa.size(); ++i) {
      // The E-step combine stacks exp/log1p; responsibilities are
      // probabilities so the documented bound is looser (measured
      // worst 64 ULP at extreme log-density gaps).
      expect_close("em_resp", tier, resp[i], resp_ref[i], Bound{128, 0.0},
                   lpa[i]);
      expect_close("em_lse", tier, lse[i], lse_ref[i], Bound{128, 1e-12},
                   lpa[i]);
    }
  }
}

TEST(SimdVectorTiers, AxpyBitwiseOnEveryTier) {
  // axpy is documented never-fused: bitwise across tiers.
  const std::vector<double> x = edge_and_sweep_inputs();
  std::vector<double> want(x.size(), 0.75);
  {
    const TierGuard guard(simd::Tier::kScalar);
    simd::axpy(1.25, x, want);
  }
  for (simd::Tier tier : vector_tiers()) {
    const TierGuard guard(tier);
    std::vector<double> y(x.size(), 0.75);
    simd::axpy(1.25, x, y);
    for (std::size_t i = 0; i < x.size(); ++i) {
      EXPECT_EQ(ulp_diff(y[i], want[i]), 0u)
          << simd::tier_name(tier) << " at x=" << x[i];
    }
  }
}

TEST(SimdVectorTiers, SnWeightedNllCloseToScalar) {
  const double xi = 0.05, omega = 0.01, alpha = -1.8;
  std::vector<double> x, w;
  for (int i = 0; i < 1237; ++i) {
    x.push_back(0.05 + 0.01 * std::sin(0.37 * i) * 3.0);
    w.push_back((i % 7 == 0) ? 0.0 : 1e-3 * i);
  }
  double want;
  {
    const TierGuard guard(simd::Tier::kScalar);
    want = simd::sn_weighted_nll_score(xi, omega, alpha, x, w).nll;
  }
  for (simd::Tier tier : vector_tiers()) {
    const TierGuard guard(tier);
    const double got = simd::sn_weighted_nll_score(xi, omega, alpha, x, w).nll;
    // Different reduction tree (per-lane accumulators), so only a
    // relative bound is meaningful.
    EXPECT_NEAR(got, want, 1e-9 * std::fabs(want))
        << simd::tier_name(tier);
  }
}

// Vector-tier bound of the fused M-step kernel: every output within
// kSnScoreRelBound of sum w |term| (the sum's own conditioning —
// near the optimum a score sum cancels to ~0, so a plain relative or
// ULP bound would be meaningless). Worst measured 8.2e-13 (the
// alpha-alpha Hessian entry at alpha = 8, where zeta2 = -zeta1 (u +
// zeta1) cancels).
constexpr double kSnScoreRelBound = 2e-12;

TEST(SimdVectorTiers, SnNllScoreWithinBounds) {
  for (const SnScoreCase& c : sn_score_cases()) {
    double scale[10];
    sn_score_reference(c.xi, c.omega, c.alpha, c.x, c.w, &scale);
    std::vector<double> want;
    {
      const TierGuard guard(simd::Tier::kScalar);
      want = flat(
          simd::sn_weighted_nll_score(c.xi, c.omega, c.alpha, c.x, c.w));
    }
    for (simd::Tier tier : vector_tiers()) {
      const TierGuard guard(tier);
      const std::vector<double> got = flat(
          simd::sn_weighted_nll_score(c.xi, c.omega, c.alpha, c.x, c.w));
      for (std::size_t k = 0; k < got.size(); ++k) {
        EXPECT_NEAR(got[k], want[k], kSnScoreRelBound * scale[k])
            << simd::tier_name(tier) << " alpha=" << c.alpha << " output "
            << k;
      }
    }
  }
}

// ---- structural properties -----------------------------------------

TEST(SimdStructural, RemainderSizesCoverEveryElement) {
  // n = 0..9 exercises every remainder count of the 4-lane width.
  // Each element must be written (the 777 sentinel would be ~1e18 ULP
  // off) and agree with the scalar tier within the kernel's bound,
  // whether it went through the vector body or the remainder loop;
  // one-past-the-span must stay untouched.
  for (simd::Tier tier : reachable_tiers()) {
    const TierGuard guard(tier);
    for (std::size_t n = 0; n <= 9; ++n) {
      std::vector<double> x(n);
      for (std::size_t i = 0; i < n; ++i) {
        x[i] = -4.0 + static_cast<double>(i);
      }
      std::vector<double> out(n + 1, 777.0);
      simd::normal_cdf(std::span<const double>(x),
                       std::span<double>(out.data(), n));
      for (std::size_t i = 0; i < n; ++i) {
        expect_close("normal_cdf remainder n=" + std::to_string(n), tier,
                     out[i], stats::normal_cdf(x[i]), Bound{6, 0.0}, x[i]);
      }
      EXPECT_EQ(out[n], 777.0) << simd::tier_name(tier) << " n=" << n;
    }
  }
}

TEST(SimdStructural, SnNllScoreRemainderSizes) {
  // n = 0..9 through the fused kernel: spans over the first n points
  // of n + 1, the last a NaN with positive weight — reading one past
  // the span would turn every output NaN.
  for (simd::Tier tier : reachable_tiers()) {
    const TierGuard guard(tier);
    for (std::size_t n = 0; n <= 9; ++n) {
      std::vector<double> x(n + 1, kNan), w(n + 1, 1.0);
      for (std::size_t i = 0; i < n; ++i) {
        x[i] = 0.05 + 0.004 * (static_cast<double>(i) - 4.0);
        w[i] = 0.5 + 0.1 * static_cast<double>(i);
      }
      const std::span<const double> xs(x.data(), n), ws(w.data(), n);
      const std::vector<double> got =
          flat(simd::sn_weighted_nll_score(0.05, 0.01, 2.0, xs, ws));
      double scale[10];
      const std::vector<double> want = flat(sn_score_reference(
          0.05, 0.01, 2.0, std::vector<double>(xs.begin(), xs.end()),
          std::vector<double>(ws.begin(), ws.end()), &scale));
      for (std::size_t k = 0; k < got.size(); ++k) {
        EXPECT_NEAR(got[k], want[k], kSnScoreRelBound * scale[k])
            << simd::tier_name(tier) << " n=" << n << " output " << k;
      }
    }
  }
}

TEST(SimdStructural, SnNllScoreIsolatesZeroWeightAndNanLanes) {
  // NaN/inf points with zero weight, and NaN or negative weights, add
  // nothing: the result is bitwise that of the same layout with those
  // points replaced by finite ones (same positions, so the same lane
  // assignment on every tier).
  for (simd::Tier tier : reachable_tiers()) {
    const TierGuard guard(tier);
    std::vector<double> x, w, clean_x;
    for (int i = 0; i < 37; ++i) {
      const double xi = 0.05 + 0.001 * (i - 18);
      const bool poison = (i % 5 == 1);
      x.push_back(poison ? ((i % 2) ? kNan : kInf) : xi);
      clean_x.push_back(xi);
      w.push_back(poison ? 0.0 : (i % 9 == 4) ? kNan
                                 : (i % 9 == 7) ? -1.0
                                                : 1.0 + 0.01 * i);
    }
    const std::vector<double> got =
        flat(simd::sn_weighted_nll_score(0.05, 0.01, -3.0, x, w));
    const std::vector<double> want =
        flat(simd::sn_weighted_nll_score(0.05, 0.01, -3.0, clean_x, w));
    for (std::size_t k = 0; k < got.size(); ++k) {
      EXPECT_TRUE(std::isfinite(got[k]))
          << simd::tier_name(tier) << " output " << k;
      EXPECT_EQ(ulp_diff(got[k], want[k]), 0u)
          << simd::tier_name(tier) << " output " << k;
    }
  }
}

TEST(SimdStructural, NanLanesDoNotPoisonNeighbors) {
  for (simd::Tier tier : reachable_tiers()) {
    const TierGuard guard(tier);
    std::vector<double> x = {-1.0, kNan, 1.0, kNan, -37.5, 2.0, kNan, 0.5};
    std::vector<double> clean = {-1.0, -1.0, 1.0, 1.0, -37.5, 2.0, 2.0,
                                 0.5};
    std::vector<double> out(x.size()), ref(x.size());
    simd::normal_log_cdf(x, out);
    simd::normal_log_cdf(clean, ref);
    for (std::size_t i = 0; i < x.size(); ++i) {
      if (std::isnan(x[i])) {
        EXPECT_TRUE(std::isnan(out[i]))
            << simd::tier_name(tier) << " lane " << i;
      } else {
        EXPECT_EQ(ulp_diff(out[i], ref[i]), 0u)
            << simd::tier_name(tier) << " lane " << i;
      }
    }
  }
}

TEST(SimdStructural, InPlaceUnaryKernels) {
  for (simd::Tier tier : reachable_tiers()) {
    const TierGuard guard(tier);
    std::vector<double> x = {-3.0, -0.5, 0.0, 0.5, 3.0, 8.0, -8.0};
    std::vector<double> expected(x.size());
    simd::normal_cdf(x, expected);
    std::vector<double> in_place = x;
    simd::normal_cdf(in_place, in_place);
    for (std::size_t i = 0; i < x.size(); ++i) {
      EXPECT_EQ(ulp_diff(in_place[i], expected[i]), 0u)
          << simd::tier_name(tier) << " i=" << i;
    }
  }
}

TEST(SimdStructural, SetTierForTestingRestores) {
  const simd::Tier ambient = simd::active_tier();
  {
    const TierGuard guard(simd::Tier::kScalar);
    EXPECT_EQ(simd::active_tier(), simd::Tier::kScalar);
  }
  EXPECT_EQ(simd::active_tier(), ambient);
}

}  // namespace
}  // namespace lvf2
