// Tests of the extended skew-normal: normalization, the tau = 0
// skew-normal limit, closed-form cumulants vs sampling, CDF/quantile
// consistency and four-moment fitting.

#include <cmath>
#include <vector>

#include <gtest/gtest.h>

#include "stats/descriptive.h"
#include "stats/extended_skew_normal.h"
#include "stats/skew_normal.h"

#include "test_util.h"

namespace lvf2::stats {
namespace {

double integrate_pdf(const ExtendedSkewNormal& d, double lo, double hi,
                     int n) {
  const double step = (hi - lo) / n;
  double sum = 0.5 * (d.pdf(lo) + d.pdf(hi));
  for (int i = 1; i < n; ++i) sum += d.pdf(lo + step * i);
  return sum * step;
}

class EsnShapeSweep
    : public ::testing::TestWithParam<std::tuple<double, double>> {};

TEST_P(EsnShapeSweep, PdfIntegratesToOne) {
  const auto [alpha, tau] = GetParam();
  const ExtendedSkewNormal d(0.0, 1.0, alpha, tau);
  const double lo = d.mean() - 14.0 * d.stddev();
  const double hi = d.mean() + 14.0 * d.stddev();
  EXPECT_NEAR(integrate_pdf(d, lo, hi, 40000), 1.0, 1e-8);
}

TEST_P(EsnShapeSweep, AnalyticCumulantsMatchSampling) {
  const auto [alpha, tau] = GetParam();
  const ExtendedSkewNormal d(0.5, 2.0, alpha, tau);
  Rng rng(test::test_seed(3));
  std::vector<double> xs(400000);
  for (auto& x : xs) x = d.sample(rng);
  const Moments m = compute_moments(xs);
  EXPECT_NEAR(m.mean, d.mean(), 0.02);
  EXPECT_NEAR(m.stddev, d.stddev(), 0.02);
  EXPECT_NEAR(m.skewness, d.skewness(), 0.05);
  EXPECT_NEAR(m.kurtosis, d.kurtosis(), 0.2);
}

TEST_P(EsnShapeSweep, CdfQuantileRoundTrip) {
  const auto [alpha, tau] = GetParam();
  const ExtendedSkewNormal d(0.0, 1.0, alpha, tau);
  for (double p : {0.01, 0.25, 0.5, 0.75, 0.99}) {
    EXPECT_NEAR(d.cdf(d.quantile(p)), p, 1e-6) << p;
  }
}

INSTANTIATE_TEST_SUITE_P(ShapeGrid, EsnShapeSweep,
                         ::testing::Values(std::tuple{0.0, 0.0},
                                           std::tuple{2.0, 0.0},
                                           std::tuple{-3.0, 1.0},
                                           std::tuple{1.5, -1.5},
                                           std::tuple{4.0, 2.0},
                                           std::tuple{-1.0, -2.0}));

TEST(ExtendedSkewNormal, TauZeroMatchesSkewNormal) {
  const ExtendedSkewNormal esn(0.3, 1.2, 2.5, 0.0);
  const SkewNormal sn(0.3, 1.2, 2.5);
  for (double x : {-2.0, -0.5, 0.3, 1.5, 4.0}) {
    EXPECT_NEAR(esn.pdf(x), sn.pdf(x), 1e-12) << x;
    EXPECT_NEAR(esn.cdf(x), sn.cdf(x), 1e-7) << x;
  }
  EXPECT_NEAR(esn.mean(), sn.mean(), 1e-12);
  EXPECT_NEAR(esn.stddev(), sn.stddev(), 1e-12);
  EXPECT_NEAR(esn.skewness(), sn.skewness(), 1e-10);
  EXPECT_NEAR(esn.kurtosis(), sn.kurtosis(), 1e-10);
}

TEST(ExtendedSkewNormal, CdfMonotoneNondecreasing) {
  const ExtendedSkewNormal d(0.0, 1.0, 3.0, -1.0);
  double prev = 0.0;
  for (double x = -6.0; x <= 6.0; x += 0.1) {
    const double c = d.cdf(x);
    EXPECT_GE(c, prev - 1e-12);
    prev = c;
  }
  EXPECT_NEAR(prev, 1.0, 1e-6);
}

TEST(ExtendedSkewNormal, RejectsInvalidParameters) {
  EXPECT_THROW(ExtendedSkewNormal(0.0, 0.0, 1.0, 0.0),
               std::invalid_argument);
  EXPECT_THROW(ExtendedSkewNormal(0.0, -1.0, 1.0, 0.0),
               std::invalid_argument);
}

TEST(ExtendedSkewNormal, NegativeTauIncreasesSkewRange) {
  // Hidden truncation deep below the mean (tau << 0) approaches a
  // half-normal-like shape whose skewness exceeds the SN bound.
  const ExtendedSkewNormal d(0.0, 1.0, 25.0, -3.0);
  EXPECT_GT(d.skewness(), 0.995);
}

}  // namespace
}  // namespace lvf2::stats
