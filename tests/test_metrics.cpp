// Tests of the evaluation metrics: Eq. 1 bin probabilities, binning
// error, 3-sigma yield, CDF RMSE / KS distance and the Eq. 12 error
// reduction, plus the evaluate_models aggregate.

#include <cmath>
#include <optional>
#include <vector>

#include <gtest/gtest.h>

#include "core/binning.h"
#include "core/lvf2_model.h"
#include "core/lvf_model.h"
#include "core/metrics.h"
#include "core/yield.h"
#include "stats/normal.h"
#include "stats/rng.h"
#include "stats/special_functions.h"

#include "test_util.h"

namespace lvf2::core {
namespace {

TEST(Binning, SigmaBoundariesAreSevenAscending) {
  const std::vector<double> b = sigma_bin_boundaries(10.0, 2.0);
  ASSERT_EQ(b.size(), 7u);
  EXPECT_DOUBLE_EQ(b.front(), 4.0);
  EXPECT_DOUBLE_EQ(b[3], 10.0);
  EXPECT_DOUBLE_EQ(b.back(), 16.0);
  for (std::size_t i = 1; i < b.size(); ++i) EXPECT_GT(b[i], b[i - 1]);
}

TEST(Binning, ProbabilitiesSumToOneForAnyCdf) {
  const stats::Normal n(0.0, 1.0);
  const std::vector<double> boundaries = sigma_bin_boundaries(0.0, 1.0);
  const std::vector<double> bins =
      bin_probabilities([&n](double x) { return n.cdf(x); }, boundaries);
  ASSERT_EQ(bins.size(), 8u);
  double sum = 0.0;
  for (double p : bins) {
    EXPECT_GE(p, 0.0);
    sum += p;
  }
  EXPECT_NEAR(sum, 1.0, 1e-12);
}

TEST(Binning, Equation1SemanticsExactNormal) {
  // For a standard normal with mu +/- k sigma boundaries the bin
  // probabilities are the classic 68-95-99.7 slices.
  const stats::Normal n(0.0, 1.0);
  const std::vector<double> bins = bin_probabilities(
      [&n](double x) { return n.cdf(x); }, sigma_bin_boundaries(0.0, 1.0));
  EXPECT_NEAR(bins[0], stats::normal_cdf(-3.0), 1e-12);
  EXPECT_NEAR(bins[1], stats::normal_cdf(-2.0) - stats::normal_cdf(-3.0),
              1e-12);
  EXPECT_NEAR(bins[3], 0.5 - stats::normal_cdf(-1.0), 1e-12);
  EXPECT_NEAR(bins[4], bins[3], 1e-12);  // symmetry
  EXPECT_NEAR(bins[7], stats::normal_cdf(-3.0), 1e-12);
}

TEST(Binning, EmpiricalMatchesExactForLargeSamples) {
  stats::Rng rng(test::test_seed(1));
  const std::vector<double> xs = rng.normal_vector(200000);
  const stats::EmpiricalCdf golden(xs);
  const std::vector<double> boundaries = sigma_bin_boundaries(0.0, 1.0);
  const std::vector<double> emp = bin_probabilities(golden, boundaries);
  const stats::Normal n(0.0, 1.0);
  const std::vector<double> exact = bin_probabilities(
      [&n](double x) { return n.cdf(x); }, boundaries);
  for (std::size_t i = 0; i < emp.size(); ++i) {
    EXPECT_NEAR(emp[i], exact[i], 0.005) << i;
  }
}

TEST(Binning, ErrorIsMeanAbsoluteDifference) {
  const std::vector<double> a = {0.1, 0.2, 0.3, 0.4};
  const std::vector<double> b = {0.2, 0.2, 0.2, 0.4};
  EXPECT_NEAR(binning_error(a, b), (0.1 + 0.0 + 0.1 + 0.0) / 4.0, 1e-15);
  EXPECT_DOUBLE_EQ(binning_error(a, a), 0.0);
}

TEST(Binning, ErrorSizeMismatchThrows) {
  const std::vector<double> a = {0.5, 0.5};
  const std::vector<double> b = {1.0};
  EXPECT_THROW(binning_error(a, b), std::invalid_argument);
}

TEST(Binning, PerfectModelHasNearZeroError) {
  stats::Rng rng(test::test_seed(2));
  std::vector<double> xs(100000);
  for (auto& x : xs) x = rng.normal(0.1, 0.01);
  const stats::EmpiricalCdf golden(xs);
  const LvfModel model = *LvfModel::fit(xs);
  EXPECT_LT(binning_error(model, golden), 0.004);
}

TEST(ErrorReduction, Equation12) {
  EXPECT_DOUBLE_EQ(error_reduction(0.04, 0.01), 4.0);
  EXPECT_DOUBLE_EQ(error_reduction(0.04, 0.04), 1.0);
  EXPECT_DOUBLE_EQ(error_reduction(0.01, 0.04), 0.25);
  // Vanishing model error stays finite via the floor.
  EXPECT_TRUE(std::isfinite(error_reduction(0.04, 0.0)));
  EXPECT_GT(error_reduction(0.04, 0.0), 1e9);
}

TEST(Yield, ThreeSigmaOfNormalData) {
  stats::Rng rng(test::test_seed(3));
  const std::vector<double> xs = rng.normal_vector(200000);
  const stats::EmpiricalCdf golden(xs);
  EXPECT_NEAR(three_sigma_yield(golden), stats::normal_cdf(3.0), 0.002);
  const LvfModel model = *LvfModel::fit(xs);
  EXPECT_NEAR(three_sigma_yield(model, golden), stats::normal_cdf(3.0),
              0.002);
  EXPECT_LT(three_sigma_yield_error(model, golden), 0.002);
}

TEST(Yield, WindowYield) {
  const stats::Normal n(0.0, 1.0);
  const auto cdf = [&n](double x) { return n.cdf(x); };
  EXPECT_NEAR(window_yield(cdf, -1.0, 1.0), 0.6826894921370859, 1e-12);
  EXPECT_DOUBLE_EQ(window_yield(cdf, 2.0, 1.0), 0.0);  // inverted window
}

TEST(CdfRmse, ZeroForMatchingDistribution) {
  stats::Rng rng(test::test_seed(4));
  const std::vector<double> xs = rng.normal_vector(100000);
  const stats::EmpiricalCdf golden(xs);
  const stats::Normal n(0.0, 1.0);
  EXPECT_LT(cdf_rmse([&n](double x) { return n.cdf(x); }, golden), 0.005);
}

TEST(CdfRmse, LargeForShiftedDistribution) {
  stats::Rng rng(test::test_seed(5));
  const std::vector<double> xs = rng.normal_vector(50000);
  const stats::EmpiricalCdf golden(xs);
  const stats::Normal shifted(2.0, 1.0);
  EXPECT_GT(cdf_rmse([&shifted](double x) { return shifted.cdf(x); },
                     golden),
            0.3);
}

TEST(CdfRmse, ThrowsOnEmptyInput) {
  const stats::EmpiricalCdf empty;
  const auto cdf = [](double) { return 0.5; };
  EXPECT_THROW(cdf_rmse(cdf, empty), std::invalid_argument);
}

TEST(KsDistance, KnownShift) {
  stats::Rng rng(test::test_seed(6));
  const std::vector<double> xs = rng.normal_vector(50000);
  const stats::EmpiricalCdf golden(xs);
  const stats::Normal match(0.0, 1.0);
  const stats::Normal off(0.5, 1.0);
  EXPECT_LT(ks_distance([&match](double x) { return match.cdf(x); }, golden),
            0.01);
  // Exact KS distance between N(0,1) and N(0.5,1) is
  // 2 Phi(0.25) - 1 ~ 0.1974.
  EXPECT_NEAR(ks_distance([&off](double x) { return off.cdf(x); }, golden),
              0.1974, 0.01);
}

TEST(EvaluateModels, LvfBaselineHasUnitReduction) {
  stats::Rng rng(test::test_seed(7));
  std::vector<double> xs(20000);
  for (auto& x : xs) {
    x = (rng.uniform() < 0.3) ? rng.normal(0.12, 0.008)
                              : rng.normal(0.10, 0.006);
  }
  const ModelEvaluation eval = evaluate_models(xs);
  ASSERT_EQ(eval.models.size(), 4u);
  const ModelErrorReduction& lvf = eval.reduction_of(ModelKind::kLvf);
  EXPECT_DOUBLE_EQ(lvf.binning, 1.0);
  EXPECT_DOUBLE_EQ(lvf.yield_3sigma, 1.0);
  EXPECT_DOUBLE_EQ(lvf.cdf_rmse, 1.0);
  EXPECT_NE(eval.model(ModelKind::kLvf2), nullptr);
  EXPECT_EQ(eval.model(ModelKind::kLvf2)->kind(), ModelKind::kLvf2);
}

TEST(EvaluateModels, Lvf2WinsOnBimodalData) {
  stats::Rng rng(test::test_seed(8));
  std::vector<double> xs(30000);
  for (auto& x : xs) {
    x = (rng.uniform() < 0.4) ? rng.normal(0.15, 0.01)
                              : rng.normal(0.10, 0.008);
  }
  const ModelEvaluation eval = evaluate_models(xs);
  const ModelErrorReduction& lvf2 = eval.reduction_of(ModelKind::kLvf2);
  EXPECT_GT(lvf2.binning, 2.0);
  EXPECT_GT(lvf2.cdf_rmse, 2.0);
  // Norm2 should also beat LVF on this purely Gaussian mixture.
  EXPECT_GT(eval.reduction_of(ModelKind::kNorm2).binning, 2.0);
}

// The manifest QoR pass hands evaluate_models the LVF2 model the
// characterize entry already fitted; with the same samples and options
// every error and reduction is bitwise the evaluation's own refit.
TEST(EvaluateModels, ReusedLvf2MatchesOwnFit) {
  stats::Rng rng(test::test_seed(9));
  std::vector<double> xs(4000);
  for (auto& x : xs) {
    x = (rng.uniform() < 0.35) ? rng.normal(0.13, 0.009)
                               : rng.normal(0.10, 0.007);
  }
  FitOptions options;
  options.seed = 0x51;
  const std::optional<Lvf2Model> fitted = Lvf2Model::fit(xs, options);
  ASSERT_TRUE(fitted.has_value());
  const ModelEvaluation own = evaluate_models(xs, options);
  const ModelEvaluation reused = evaluate_models(xs, options, &*fitted);
  ASSERT_NE(reused.model(ModelKind::kLvf2), nullptr);
  for (std::size_t i = 0; i < own.errors.size(); ++i) {
    EXPECT_EQ(reused.errors[i].binning, own.errors[i].binning) << i;
    EXPECT_EQ(reused.errors[i].yield_3sigma, own.errors[i].yield_3sigma) << i;
    EXPECT_EQ(reused.errors[i].cdf_rmse, own.errors[i].cdf_rmse) << i;
    EXPECT_EQ(reused.reductions[i].binning, own.reductions[i].binning) << i;
    EXPECT_EQ(reused.reductions[i].yield_3sigma,
              own.reductions[i].yield_3sigma)
        << i;
    EXPECT_EQ(reused.reductions[i].cdf_rmse, own.reductions[i].cdf_rmse)
        << i;
  }
}

}  // namespace
}  // namespace lvf2::core
