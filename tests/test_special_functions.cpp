// Unit and property tests of the special-function layer: normal
// PDF/CDF/quantile, Owen's T, the zeta Mills-ratio derivatives and
// the numeric helpers.

#include <cmath>
#include <vector>

#include <gtest/gtest.h>

#include "stats/special_functions.h"

namespace lvf2::stats {
namespace {

TEST(NormalPdf, KnownValues) {
  EXPECT_NEAR(normal_pdf(0.0), 0.3989422804014327, 1e-15);
  EXPECT_NEAR(normal_pdf(1.0), 0.24197072451914337, 1e-15);
  EXPECT_NEAR(normal_pdf(-1.0), normal_pdf(1.0), 1e-16);
  EXPECT_NEAR(normal_pdf(5.0), 1.4867195147342979e-06, 1e-18);
}

TEST(NormalCdf, KnownValues) {
  EXPECT_NEAR(normal_cdf(0.0), 0.5, 1e-16);
  EXPECT_NEAR(normal_cdf(1.0), 0.8413447460685429, 1e-15);
  EXPECT_NEAR(normal_cdf(-1.0), 0.15865525393145705, 1e-15);
  EXPECT_NEAR(normal_cdf(3.0), 0.9986501019683699, 1e-15);
  EXPECT_NEAR(normal_cdf(-6.0), 9.865876450376946e-10, 1e-18);
}

TEST(NormalCdf, Symmetry) {
  for (double x : {0.1, 0.7, 1.3, 2.9, 4.4}) {
    EXPECT_NEAR(normal_cdf(x) + normal_cdf(-x), 1.0, 1e-15) << x;
  }
}

TEST(NormalLogCdf, MatchesLogOfCdfInBulk) {
  for (double x = -9.5; x <= 8.0; x += 0.25) {
    EXPECT_NEAR(normal_log_cdf(x), std::log(normal_cdf(x)), 1e-10) << x;
  }
}

// For x > 0, log Phi(x) = log(1 - q) with q = Phi(-x) tiny: the value
// must keep relative precision (-q - q^2/2 to O(q^3)), which log of a
// cdf rounded near 1 cannot (it reads 0 from x ~ 8.3 on).
TEST(NormalLogCdf, UpperTailKeepsRelativePrecision) {
  for (double x : {5.0, 8.0, 12.0, 20.0}) {
    const double q = normal_cdf(-x);
    EXPECT_NEAR(normal_log_cdf(x), -q - 0.5 * q * q, 1e-12 * q) << x;
  }
}

TEST(NormalLogCdf, DeepTailFiniteAndMonotone) {
  double prev = normal_log_cdf(-60.0);
  EXPECT_TRUE(std::isfinite(prev));
  for (double x = -55.0; x <= -10.0; x += 5.0) {
    const double v = normal_log_cdf(x);
    EXPECT_TRUE(std::isfinite(v)) << x;
    EXPECT_GT(v, prev) << x;
    prev = v;
  }
}

TEST(NormalLogCdf, TailSeriesMatchesAtSwitchPoint) {
  // Consistency across the x = -10 implementation switch: the jump
  // over a small step must match the analytic slope zeta1 ~ |x|.
  const double step = 0.002;
  const double jump = normal_log_cdf(-9.999) - normal_log_cdf(-10.001);
  EXPECT_NEAR(jump, step * zeta1(-10.0), 1e-6);
  // Direct agreement where erfc is still accurate.
  EXPECT_NEAR(normal_log_cdf(-12.0), std::log(normal_cdf(-12.0)), 1e-6);
  EXPECT_NEAR(normal_log_cdf(-11.0), std::log(normal_cdf(-11.0)), 1e-6);
}

class NormalQuantileRoundTrip : public ::testing::TestWithParam<double> {};

TEST_P(NormalQuantileRoundTrip, CdfOfQuantileIsIdentity) {
  const double p = GetParam();
  EXPECT_NEAR(normal_cdf(normal_quantile(p)), p, 1e-13 * std::max(p, 1e-3));
}

INSTANTIATE_TEST_SUITE_P(ProbabilityGrid, NormalQuantileRoundTrip,
                         ::testing::Values(1e-10, 1e-6, 1e-3, 0.01, 0.1,
                                           0.25, 0.5, 0.75, 0.9, 0.99,
                                           0.999, 1.0 - 1e-6, 1.0 - 1e-10));

TEST(NormalQuantile, KnownValues) {
  EXPECT_NEAR(normal_quantile(0.5), 0.0, 1e-15);
  EXPECT_NEAR(normal_quantile(0.8413447460685429), 1.0, 1e-12);
  EXPECT_NEAR(normal_quantile(0.9986501019683699), 3.0, 1e-11);
}

TEST(NormalQuantile, Boundaries) {
  EXPECT_TRUE(std::isinf(normal_quantile(0.0)));
  EXPECT_LT(normal_quantile(0.0), 0.0);
  EXPECT_TRUE(std::isinf(normal_quantile(1.0)));
  EXPECT_GT(normal_quantile(1.0), 0.0);
  EXPECT_TRUE(std::isnan(normal_quantile(std::nan(""))));
}

TEST(OwensT, SpecialCases) {
  EXPECT_DOUBLE_EQ(owens_t(1.3, 0.0), 0.0);
  // T(0, a) = atan(a) / (2 pi).
  EXPECT_NEAR(owens_t(0.0, 1.0), std::atan(1.0) / (2.0 * kPi), 1e-15);
  EXPECT_NEAR(owens_t(0.0, -2.5), -std::atan(2.5) / (2.0 * kPi), 1e-15);
}

TEST(OwensT, Symmetries) {
  for (double h : {0.3, 1.1, 2.7}) {
    for (double a : {0.2, 0.9, 1.8, 5.0}) {
      EXPECT_NEAR(owens_t(h, a), owens_t(-h, a), 1e-15);
      EXPECT_NEAR(owens_t(h, -a), -owens_t(h, a), 1e-15);
    }
  }
}

TEST(OwensT, UnitSlopeIdentity) {
  // T(h, 1) = Phi(h) (1 - Phi(h)) / 2.
  for (double h : {0.0, 0.4, 1.0, 2.2, 3.7}) {
    const double phi = normal_cdf(h);
    EXPECT_NEAR(owens_t(h, 1.0), 0.5 * phi * (1.0 - phi), 1e-13) << h;
  }
}

TEST(OwensT, MatchesBruteForceQuadrature) {
  // Compare against 200k-panel Simpson integration of the defining
  // integral, including the |a| > 1 reduction path.
  const auto brute = [](double h, double a) {
    const int n = 200000;
    const double step = a / n;
    double sum = 0.0;
    for (int i = 0; i <= n; ++i) {
      const double x = step * i;
      const double f = std::exp(-0.5 * h * h * (1 + x * x)) / (1 + x * x);
      const double w = (i == 0 || i == n) ? 1.0 : (i % 2 == 1 ? 4.0 : 2.0);
      sum += w * f;
    }
    return sum * step / 3.0 / (2.0 * kPi);
  };
  for (auto [h, a] : {std::pair{0.5, 0.5}, {1.0, 2.0}, {2.0, 0.3},
                      {0.1, 4.0}, {3.0, 1.5}}) {
    EXPECT_NEAR(owens_t(h, a), brute(h, a), 1e-10) << h << "," << a;
  }
}

TEST(OwensT, LargeAApproachesHalfTail) {
  const double h = 1.7;
  EXPECT_NEAR(owens_t(h, 1e9), 0.5 * normal_cdf(-h), 1e-10);
  EXPECT_NEAR(owens_t(h, std::numeric_limits<double>::infinity()),
              0.5 * normal_cdf(-h), 1e-15);
}

TEST(Zeta, Zeta1MatchesDefinition) {
  for (double x : {-8.0, -3.0, -1.0, 0.0, 1.0, 4.0}) {
    EXPECT_NEAR(zeta1(x), normal_pdf(x) / normal_cdf(x), 1e-12) << x;
  }
}

TEST(Zeta, DeepTailAsymptote) {
  // zeta1(x) ~ -x for x -> -inf.
  EXPECT_NEAR(zeta1(-40.0) / 40.0, 1.0, 1e-3);
  EXPECT_TRUE(std::isfinite(zeta1(-300.0)));
}

class ZetaDerivativeChain : public ::testing::TestWithParam<double> {};

TEST_P(ZetaDerivativeChain, MatchesNumericDifferentiation) {
  const double x = GetParam();
  const double h = 1e-5;
  EXPECT_NEAR(zeta2(x), (zeta1(x + h) - zeta1(x - h)) / (2 * h),
              1e-5 * (1.0 + std::fabs(zeta2(x))));
  EXPECT_NEAR(zeta3(x), (zeta2(x + h) - zeta2(x - h)) / (2 * h),
              1e-5 * (1.0 + std::fabs(zeta3(x))));
  EXPECT_NEAR(zeta4(x), (zeta3(x + h) - zeta3(x - h)) / (2 * h),
              1e-4 * (1.0 + std::fabs(zeta4(x))));
}

INSTANTIATE_TEST_SUITE_P(Points, ZetaDerivativeChain,
                         ::testing::Values(-6.0, -2.5, -1.0, -0.3, 0.0, 0.7,
                                           1.5, 3.0, 6.0));

TEST(LogSumExp, BasicAndExtremes) {
  EXPECT_NEAR(log_sum_exp(0.0, 0.0), std::log(2.0), 1e-15);
  EXPECT_NEAR(log_sum_exp(1000.0, 1000.0), 1000.0 + std::log(2.0), 1e-12);
  EXPECT_NEAR(log_sum_exp(-1e308, 3.0), 3.0, 1e-12);
  const double inf = std::numeric_limits<double>::infinity();
  EXPECT_DOUBLE_EQ(log_sum_exp(-inf, 5.0), 5.0);
  EXPECT_DOUBLE_EQ(log_sum_exp(5.0, -inf), 5.0);
}

TEST(KahanSum, CompensatesCancellation) {
  std::vector<double> values;
  values.push_back(1.0);
  for (int i = 0; i < 10000; ++i) values.push_back(1e-16);
  const double sum = kahan_sum(values);
  EXPECT_NEAR(sum, 1.0 + 1e-12, 1e-15);
}

TEST(InterpLinear, InterpolatesAndClamps) {
  const std::vector<double> xs = {0.0, 1.0, 2.0};
  const std::vector<double> ys = {0.0, 10.0, 40.0};
  EXPECT_DOUBLE_EQ(interp_linear(xs, ys, 0.5), 5.0);
  EXPECT_DOUBLE_EQ(interp_linear(xs, ys, 1.5), 25.0);
  EXPECT_DOUBLE_EQ(interp_linear(xs, ys, -1.0), 0.0);
  EXPECT_DOUBLE_EQ(interp_linear(xs, ys, 9.0), 40.0);
  EXPECT_TRUE(std::isnan(interp_linear({}, {}, 0.0)));
}

}  // namespace
}  // namespace lvf2::stats
