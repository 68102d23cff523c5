// Tests of the weighted-fit / refit layer added for block-based SSTA
// node refits: WeightedData from grids, fit_weighted on the mixture
// models, refit_model for every family, the statistical error floors,
// and the two propagation semantics of the path engine.

#include <algorithm>
#include <cmath>
#include <tuple>
#include <utility>

#include <gtest/gtest.h>

#include "circuits/adder.h"
#include "core/binning.h"
#include "core/lvf2_model.h"
#include "core/model_factory.h"
#include "core/norm2_model.h"
#include "ssta/path_analysis.h"
#include "stats/normal.h"

namespace lvf2::core {
namespace {

stats::GridPdf mixture_grid() {
  const stats::SkewNormal c1 = stats::SkewNormal::from_moments(1.0, 0.05, 0.3);
  const stats::SkewNormal c2 =
      stats::SkewNormal::from_moments(1.25, 0.06, -0.2);
  return stats::GridPdf::from_function(
      [&](double x) { return 0.65 * c1.pdf(x) + 0.35 * c2.pdf(x); }, 0.7,
      1.6, 2048);
}

// The weighted data of every positive grid point, density * step: what
// the grid overload returns unbinned, and the reference the rebinned
// refits are checked against.
WeightedData full_grid_data(const stats::GridPdf& g) {
  WeightedData data;
  for (std::size_t i = 0; i < g.size(); ++i) {
    const double w = g.density()[i] * g.step();
    if (w > 0.0) data.add(g.x_at(i), w);
  }
  return data;
}

void expect_bitwise_equal(const WeightedData& a, const WeightedData& b) {
  EXPECT_EQ(a.x, b.x);
  EXPECT_EQ(a.w, b.w);
  EXPECT_EQ(a.total_weight, b.total_weight);
}

// A path node: a two-component skew-normal mixture grid convolved with
// a skewed stage grid, about 4096 points as in block-based SSTA.
stats::GridPdf convolved_fixture(double sep, double lambda, double skew) {
  const stats::SkewNormal c1 = stats::SkewNormal::from_moments(1.0, 0.05, skew);
  const stats::SkewNormal c2 =
      stats::SkewNormal::from_moments(1.0 + sep, 0.06, -skew);
  const stats::GridPdf mix = stats::GridPdf::from_function(
      [&](double x) { return (1 - lambda) * c1.pdf(x) + lambda * c2.pdf(x); },
      0.6, 1.2 + sep + 0.3, 2048);
  const stats::SkewNormal s = stats::SkewNormal::from_moments(0.4, 0.03, 0.5);
  const stats::GridPdf stage = stats::GridPdf::from_function(
      [&](double x) { return s.pdf(x); }, 0.2, 0.6, 2048);
  return stats::GridPdf::convolve(mix, stage);
}

TEST(WeightedDataFromGrid, PreservesMassAndMoments) {
  const stats::GridPdf g = mixture_grid();
  const FitOptions options;
  const WeightedData data = make_weighted_data(g, options);
  const WeightedData full = full_grid_data(g);
  EXPECT_LE(data.size(), options.likelihood_bins);
  EXPECT_NEAR(data.total_weight, full.total_weight, 1e-12);
  const stats::Moments m = stats::compute_weighted_moments(data.x, data.w);
  const stats::Moments f = stats::compute_weighted_moments(full.x, full.w);
  EXPECT_NEAR(m.mean, f.mean, 1e-12);
  EXPECT_NEAR(m.mean, g.mean(), 1e-3);
  EXPECT_NEAR(m.stddev, g.stddev(), 1e-3);
}

TEST(WeightedDataFromGrid, ZeroBinsKeepsEveryPoint) {
  const stats::GridPdf g = convolved_fixture(0.25, 0.35, 0.3);
  FitOptions options;
  options.likelihood_bins = 0;
  expect_bitwise_equal(make_weighted_data(g, options), full_grid_data(g));
}

TEST(WeightedDataFromGrid, SmallGridPassesThrough) {
  const stats::Normal n(1.0, 0.05);
  const stats::GridPdf g = stats::GridPdf::from_function(
      [&](double x) { return n.pdf(x); }, 0.7, 1.3, 512);
  const FitOptions options;
  ASSERT_LE(full_grid_data(g).size(), options.likelihood_bins);
  expect_bitwise_equal(make_weighted_data(g, options), full_grid_data(g));
}

TEST(WeightedDataFromGrid, EmptyGridGivesEmptyData) {
  const stats::GridPdf empty;
  EXPECT_EQ(make_weighted_data(empty, FitOptions{}).size(), 0u);
}

TEST(FitWeighted, Lvf2RecoversTabulatedMixture) {
  const stats::GridPdf g = mixture_grid();
  const auto m = Lvf2Model::fit_weighted(make_weighted_data(g, {}));
  ASSERT_TRUE(m.has_value());
  EXPECT_NEAR(m->lambda(), 0.35, 0.08);
  EXPECT_NEAR(m->component1().mean(), 1.0, 0.03);
  EXPECT_NEAR(m->component2().mean(), 1.25, 0.03);
  for (double x : {0.9, 1.0, 1.1, 1.25, 1.4}) {
    EXPECT_NEAR(m->cdf(x), g.cdf(x), 0.01) << x;
  }
}

TEST(FitWeighted, Norm2RecoversTabulatedMixture) {
  const stats::Normal c1(1.0, 0.05), c2(1.3, 0.04);
  const stats::GridPdf g = stats::GridPdf::from_function(
      [&](double x) { return 0.7 * c1.pdf(x) + 0.3 * c2.pdf(x); }, 0.7,
      1.6, 2048);
  const auto m = Norm2Model::fit_weighted(make_weighted_data(g, {}));
  ASSERT_TRUE(m.has_value());
  EXPECT_NEAR(m->lambda(), 0.3, 0.05);
  EXPECT_NEAR(m->component1().mean(), 1.0, 0.02);
  EXPECT_NEAR(m->component2().mean(), 1.3, 0.02);
}

class RefitModelAllKinds : public ::testing::TestWithParam<ModelKind> {};

TEST_P(RefitModelAllKinds, ReproducesGridCdf) {
  const stats::GridPdf g = mixture_grid();
  const auto m = refit_model(GetParam(), g);
  ASSERT_NE(m, nullptr);
  EXPECT_EQ(m->kind(), GetParam());
  // Every family at least matches mean / sigma of the grid. LESN's
  // four-moment match is a bounded-residual optimization, so its
  // sigma can be off by a few percent when the (skew, kurtosis) pair
  // sits at the family boundary.
  EXPECT_NEAR(m->mean(), g.mean(), 2e-3);
  const double sd_tol =
      (GetParam() == ModelKind::kLesn) ? 0.05 * g.stddev() : 2e-3;
  EXPECT_NEAR(m->stddev(), g.stddev(), sd_tol);
  // The mixtures should track the full CDF closely.
  if (GetParam() == ModelKind::kLvf2 || GetParam() == ModelKind::kNorm2 ||
      GetParam() == ModelKind::kLvfK) {
    for (double x : {0.95, 1.1, 1.3}) {
      EXPECT_NEAR(m->cdf(x), g.cdf(x), 0.02) << x;
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Families, RefitModelAllKinds,
                         ::testing::Values(ModelKind::kLvf,
                                           ModelKind::kNorm2,
                                           ModelKind::kLesn,
                                           ModelKind::kLvf2,
                                           ModelKind::kLvfK));

TEST(RefitModel, EmptyGridReturnsNull) {
  const stats::GridPdf empty;
  EXPECT_EQ(refit_model(ModelKind::kLvf2, empty), nullptr);
}

// sup over the grid points of |F_a - F_b|.
template <class A, class B>
double sup_cdf_gap(const stats::GridPdf& g, const A& a, const B& b) {
  double gap = 0.0;
  for (std::size_t i = 0; i < g.size(); ++i) {
    gap = std::max(gap, std::fabs(a.cdf(g.x_at(i)) - b.cdf(g.x_at(i))));
  }
  return gap;
}

// Refitting on the rebinned grid lands on the full-grid refit. On
// skewed fixtures the sup-CDF gap is below 1e-4 (measured <= 5e-5),
// far below either fit's own error against the grid. On symmetric
// ones the likelihood has a flat ridge along which EM's stopping rule
// halts at slightly different points (run to a 1e-13 tolerance, both
// fits agree within 2e-5), so there the gap is held to a quarter of
// the full-grid fit's own error instead.
TEST(RefitModel, RebinnedMatchesFullGrid) {
  const FitOptions options;
  for (const auto& [sep, lambda, skew] :
       {std::tuple{0.25, 0.35, 0.3}, std::tuple{0.15, 0.5, -0.4},
        std::tuple{0.4, 0.2, 0.6}, std::tuple{0.1, 0.5, 0.3},
        std::tuple{0.1, 0.3, 0.0}, std::tuple{0.2, 0.3, 0.0}}) {
    const stats::GridPdf g = convolved_fixture(sep, lambda, skew);
    ASSERT_GT(g.size(), 4000u);
    const WeightedData full = full_grid_data(g);
    const auto lvf2_full = Lvf2Model::fit_weighted(full, options);
    const auto norm2_full = Norm2Model::fit_weighted(full, options);
    ASSERT_TRUE(lvf2_full.has_value());
    ASSERT_TRUE(norm2_full.has_value());
    const std::pair<ModelKind, const TimingModel*> references[] = {
        {ModelKind::kLvf2, &*lvf2_full}, {ModelKind::kNorm2, &*norm2_full}};
    for (const auto& [kind, reference] : references) {
      const auto rebinned = refit_model(kind, g, options);
      ASSERT_NE(rebinned, nullptr);
      const double bound =
          skew != 0.0 ? 1e-4 : 0.25 * sup_cdf_gap(g, *reference, g);
      EXPECT_LE(sup_cdf_gap(g, *rebinned, *reference), bound)
          << to_string(kind) << " sep=" << sep << " lambda=" << lambda
          << " skew=" << skew;
    }
  }
}

// Per-unit-weight log-likelihood of `model` on weighted data.
double mean_log_likelihood(const TimingModel& model, const WeightedData& d) {
  double ll = 0.0;
  for (std::size_t i = 0; i < d.size(); ++i) {
    ll += d.w[i] * std::log(model.pdf(d.x[i]));
  }
  return ll / d.total_weight;
}

// Rebinning fidelity with the fit taken out: over the 72-fixture
// sweep, a fixed LVF2 mixture near each fixture (its components are
// the mixture components shifted and widened by the stage's moments;
// no EM runs) scores the same per-unit-weight log-likelihood on the
// rebinned grid as on the full grid. The gap is the centroid's Jensen
// gap, about Var(group) * |(log f)''| / 2: always positive, growing
// with the grid span (sep). Measured over the sweep: 2.8e-5 to
// 1.03e-4 nats on log-likelihoods of 0.73 to 1.22; the bound is
// 1.5e-4. Mass and mean move only by the trimmed < 1e-12 tails
// (measured: relative mass 9.97e-13, relative mean 1.2e-13).
TEST(RefitModel, RebinningPreservesLikelihood) {
  const FitOptions options;
  double worst_ll = 0.0, worst_mass = 0.0, worst_mean = 0.0;
  for (const double sep : {0.1, 0.2, 0.3, 0.4}) {
    for (const double lambda : {0.2, 0.35, 0.5}) {
      for (const double skew : {-0.4, -0.2, 0.0, 0.2, 0.4, 0.6}) {
        const stats::GridPdf g = convolved_fixture(sep, lambda, skew);
        const WeightedData full = full_grid_data(g);
        const WeightedData binned = make_weighted_data(g, options);
        ASSERT_LE(binned.size(), options.likelihood_bins);
        const Lvf2Model model = Lvf2Model::from_parameters(Lvf2Parameters{
            lambda, stats::SnMoments{1.4, std::hypot(0.05, 0.03), skew},
            stats::SnMoments{1.4 + sep, std::hypot(0.06, 0.03), -skew}});
        const stats::Moments mb =
            stats::compute_weighted_moments(binned.x, binned.w);
        const stats::Moments mf =
            stats::compute_weighted_moments(full.x, full.w);
        worst_ll = std::max(worst_ll,
                            std::fabs(mean_log_likelihood(model, binned) -
                                      mean_log_likelihood(model, full)));
        worst_mass = std::max(worst_mass,
                              std::fabs(binned.total_weight /
                                            full.total_weight - 1.0));
        worst_mean = std::max(worst_mean, std::fabs(mb.mean / mf.mean - 1.0));
      }
    }
  }
  EXPECT_LE(worst_ll, 1.5e-4);
  EXPECT_LE(worst_mass, 1e-12);
  EXPECT_LE(worst_mean, 1e-12);
}

TEST(ErrorFloors, ScaleWithSampleCount) {
  EXPECT_GT(binning_error_floor(1000), binning_error_floor(100000));
  EXPECT_GT(yield_error_floor(1000), yield_error_floor(100000));
  EXPECT_GT(cdf_rmse_floor(1000), cdf_rmse_floor(100000));
  EXPECT_NEAR(yield_error_floor(10000), 5e-5, 1e-12);
}

TEST(ErrorFloors, ClampBothSidesOfEquation12) {
  // Sub-resolution errors on both sides give a ratio near 1, not inf.
  const double floor = yield_error_floor(10000);
  EXPECT_DOUBLE_EQ(error_reduction(floor / 10, floor / 100, floor), 1.0);
  // A real baseline error against a sub-resolution model error is
  // capped at baseline / floor.
  EXPECT_DOUBLE_EQ(error_reduction(10 * floor, 0.0, floor), 10.0);
}

TEST(PathPropagationModes, BothProduceFiniteDecayingCurves) {
  circuits::AdderOptions adder;
  adder.bits = 4;
  const ssta::TimingPath path =
      circuits::build_adder_critical_path(adder, spice::ProcessCorner{});
  ssta::PathAssessmentOptions options;
  options.mc.samples = 4000;
  options.model_grid_points = 1024;

  options.refit_at_each_stage = true;
  const ssta::PathAssessment refit =
      ssta::assess_path(path, spice::ProcessCorner{}, options);
  options.refit_at_each_stage = false;
  const ssta::PathAssessment numeric =
      ssta::assess_path(path, spice::ProcessCorner{}, options);

  ASSERT_EQ(refit.binning_reduction.size(), path.depth());
  ASSERT_EQ(numeric.binning_reduction.size(), path.depth());
  for (std::size_t i = 0; i < path.depth(); ++i) {
    for (std::size_t k = 0; k < 4; ++k) {
      EXPECT_TRUE(std::isfinite(refit.binning_reduction[i][k]));
      EXPECT_TRUE(std::isfinite(numeric.binning_reduction[i][k]));
      EXPECT_GT(refit.binning_reduction[i][k], 0.0);
    }
    // LVF is the unit baseline in both modes.
    EXPECT_DOUBLE_EQ(refit.binning_reduction[i][3], 1.0);
    EXPECT_DOUBLE_EQ(numeric.binning_reduction[i][3], 1.0);
  }
  // Stage 0 is identical in both modes (no propagation yet).
  EXPECT_NEAR(refit.binning_reduction[0][0],
              numeric.binning_reduction[0][0], 1e-9);
}

}  // namespace
}  // namespace lvf2::core
