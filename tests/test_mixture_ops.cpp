// Tests of the analytic (grid-free) skew-normal mixture operations:
// pairwise convolution exactness through order 3, moment-preserving
// merging, mixture reduction, and agreement of the analytic SSTA sum
// with the grid-convolution reference and with Monte Carlo.

#include <cmath>

#include <gtest/gtest.h>

#include "core/mixture_ops.h"
#include "ssta/block_ssta.h"
#include "stats/descriptive.h"

#include "test_util.h"

namespace lvf2::core {
namespace {

TEST(ConvolveSkewNormals, FirstThreeMomentsExact) {
  const stats::SkewNormal x = stats::SkewNormal::from_moments(1.0, 0.2, 0.5);
  const stats::SkewNormal y =
      stats::SkewNormal::from_moments(2.0, 0.3, -0.4);
  const stats::SkewNormal s = convolve_skew_normals(x, y);
  EXPECT_NEAR(s.mean(), 3.0, 1e-10);
  EXPECT_NEAR(s.variance(), 0.04 + 0.09, 1e-10);
  const double m3_x = 0.5 * 0.2 * 0.2 * 0.2;
  const double m3_y = -0.4 * 0.3 * 0.3 * 0.3;
  const double m3_s = s.skewness() * std::pow(s.variance(), 1.5);
  EXPECT_NEAR(m3_s, m3_x + m3_y, 1e-10);
}

TEST(ConvolveSkewNormals, GaussianPlusGaussianIsGaussian) {
  const stats::SkewNormal x(0.0, 1.0, 0.0);
  const stats::SkewNormal y(5.0, 2.0, 0.0);
  const stats::SkewNormal s = convolve_skew_normals(x, y);
  EXPECT_NEAR(s.skewness(), 0.0, 1e-12);
  EXPECT_NEAR(s.mean(), 5.0, 1e-10);
  EXPECT_NEAR(s.stddev(), std::sqrt(5.0), 1e-10);
}

TEST(ConvolveSkewNormals, CdfMatchesGridConvolution) {
  const stats::SkewNormal x = stats::SkewNormal::from_moments(0.1, 0.01, 0.6);
  const stats::SkewNormal y =
      stats::SkewNormal::from_moments(0.2, 0.015, 0.3);
  const stats::SkewNormal analytic = convolve_skew_normals(x, y);
  const auto grid_of = [](const stats::SkewNormal& sn) {
    return stats::GridPdf::from_function(
        [&sn](double v) { return sn.pdf(v); }, sn.mean() - 8 * sn.stddev(),
        sn.mean() + 8 * sn.stddev(), 2048);
  };
  const stats::GridPdf reference =
      stats::GridPdf::convolve(grid_of(x), grid_of(y));
  for (double q : {0.05, 0.25, 0.5, 0.75, 0.95}) {
    const double v = reference.quantile(q);
    // Moment matching is exact to order 3; residual shape error stays
    // well under a CDF percent.
    EXPECT_NEAR(analytic.cdf(v), q, 0.005) << q;
  }
}

TEST(MergeSkewNormals, PreservesMixtureMoments) {
  const stats::SkewNormal a = stats::SkewNormal::from_moments(1.0, 0.1, 0.4);
  const stats::SkewNormal b =
      stats::SkewNormal::from_moments(1.2, 0.15, -0.3);
  const double w1 = 0.7, w2 = 0.3;
  const stats::SkewNormal merged = merge_skew_normals(w1, a, w2, b);
  // Reference mixture moments.
  const Lvf2Model mix(w2, a, b);
  EXPECT_NEAR(merged.mean(), mix.mean(), 1e-10);
  EXPECT_NEAR(merged.stddev(), mix.stddev(), 1e-10);
  // Skewness may clamp at the SN bound; this pair stays inside it.
  ASSERT_LT(std::fabs(mix.skewness()), 0.99);
  EXPECT_NEAR(merged.skewness(), mix.skewness(), 1e-6);
}

TEST(MergeSkewNormals, InfeasibleSkewnessClampsAtBound) {
  // A far-separated lopsided pair can have mixture skewness beyond
  // the single-SN bound (~0.995); the merge clamps there while still
  // preserving mean and sigma.
  const stats::SkewNormal a = stats::SkewNormal::from_moments(1.0, 0.1, 0.4);
  const stats::SkewNormal b =
      stats::SkewNormal::from_moments(1.5, 0.2, -0.3);
  const stats::SkewNormal merged = merge_skew_normals(0.7, a, 0.3, b);
  const Lvf2Model mix(0.3, a, b);
  ASSERT_GT(mix.skewness(), 0.995);
  EXPECT_NEAR(merged.mean(), mix.mean(), 1e-10);
  EXPECT_NEAR(merged.stddev(), mix.stddev(), 1e-10);
  EXPECT_LT(merged.skewness(), mix.skewness());
  EXPECT_GT(merged.skewness(), 0.9);
}

TEST(ReduceMixture, MergesNearestPairFirst) {
  const SnMixture model(
      {{0.4, stats::SkewNormal::from_moments(1.00, 0.05, 0.0)},
       {0.4, stats::SkewNormal::from_moments(1.02, 0.05, 0.0)},
       {0.2, stats::SkewNormal::from_moments(2.00, 0.05, 0.0)}});
  const SnMixture reduced = reduce_mixture(model, 2);
  ASSERT_EQ(reduced.size(), 2u);
  // The two near-identical components merged; the distant one stays.
  EXPECT_NEAR(reduced.components()[0].dist.mean(), 1.01, 0.01);
  EXPECT_NEAR(reduced.components()[0].weight, 0.8, 1e-9);
  EXPECT_NEAR(reduced.components()[1].dist.mean(), 2.0, 1e-9);
  // Global moments preserved.
  EXPECT_NEAR(reduced.mean(), model.mean(), 1e-9);
  EXPECT_NEAR(reduced.stddev(), model.stddev(), 1e-6);
}

TEST(ConvolveMixtures, AgainstMonteCarlo) {
  const Lvf2Model x(0.3, stats::SkewNormal::from_moments(1.0, 0.05, 0.3),
                    stats::SkewNormal::from_moments(1.2, 0.06, 0.0));
  const Lvf2Model y(0.5, stats::SkewNormal::from_moments(0.5, 0.04, -0.2),
                    stats::SkewNormal::from_moments(0.65, 0.05, 0.4));
  const SnMixture sum = convolve_mixtures(x.mixture(), y.mixture(), 4);

  stats::Rng rng(test::test_seed(11));
  std::vector<double> mc(200000);
  for (auto& v : mc) v = x.sample(rng) + y.sample(rng);
  const stats::EmpiricalCdf golden(mc);
  for (double q : {0.05, 0.25, 0.5, 0.75, 0.95}) {
    const double v = golden.quantile(q);
    EXPECT_NEAR(sum.cdf(v), q, 0.01) << q;
  }
  const stats::Moments m = stats::compute_moments(mc);
  EXPECT_NEAR(sum.mean(), m.mean, 2e-3);
  EXPECT_NEAR(sum.stddev(), m.stddev, 2e-3);
}

TEST(ConvolveLvf2, StaysInTwoComponentForm) {
  const Lvf2Model x(0.4, stats::SkewNormal::from_moments(1.0, 0.05, 0.2),
                    stats::SkewNormal::from_moments(1.3, 0.05, 0.0));
  const Lvf2Model y(0.2, stats::SkewNormal::from_moments(0.4, 0.03, 0.0),
                    stats::SkewNormal::from_moments(0.5, 0.04, 0.1));
  const Lvf2Model sum = convolve_lvf2(x, y);
  EXPECT_GE(sum.lambda(), 0.0);
  EXPECT_LE(sum.lambda(), 1.0);
  // Exact mixture mean/variance are preserved through reduction.
  const double mean_ref = x.mean() + y.mean();
  const double var_ref = x.stddev() * x.stddev() + y.stddev() * y.stddev();
  EXPECT_NEAR(sum.mean(), mean_ref, 1e-9);
  EXPECT_NEAR(sum.stddev(), std::sqrt(var_ref), 1e-6);
}

TEST(ConvolveLvf2, ChainKeepsCltBehaviour) {
  // Repeated analytic sums of a bimodal stage Gaussianize: skewness
  // decays and the two components coalesce.
  const Lvf2Model stage(0.4,
                        stats::SkewNormal::from_moments(0.01, 0.001, 0.4),
                        stats::SkewNormal::from_moments(0.013, 0.001, 0.0));
  Lvf2Model total = stage;
  for (int i = 1; i < 16; ++i) total = convolve_lvf2(total, stage);
  EXPECT_NEAR(total.mean(), 16.0 * stage.mean(), 1e-9);
  EXPECT_NEAR(total.stddev(), 4.0 * stage.stddev(), 1e-6);
  EXPECT_LT(std::fabs(total.skewness()), 0.15);
}

// A pure LVF carries a zero-weight second component; the analytic sum
// skips it, so the sum of two pure LVFs stays one component.
TEST(ConvolveMixtures, SkipsZeroWeightComponents) {
  const Lvf2Model pure = Lvf2Model::from_lvf(
      stats::SkewNormal::from_moments(1.0, 0.1, 0.5));
  const SnMixture sum = convolve_mixtures(pure.mixture(), pure.mixture(), 4);
  ASSERT_EQ(sum.size(), 1u);
  EXPECT_NEAR(sum.mean(), 2.0 * pure.mean(), 1e-12);
  EXPECT_NEAR(sum.stddev(), std::sqrt(2.0) * pure.stddev(), 1e-12);
}

}  // namespace
}  // namespace lvf2::core
