// Tests of the K-component mixture extension (paper Section 3.3):
// construction, degeneration to LVF/LVF^2, EM recovery of
// three-component data, BIC model-order behaviour, and the Liberty
// ocv_*N naming-convention round trip.

#include <cmath>
#include <vector>

#include <gtest/gtest.h>

#include "core/lvf2_model.h"
#include "core/lvfk_model.h"
#include "core/model_factory.h"
#include "liberty/lvf_tables.h"
#include "liberty/parser.h"
#include "liberty/writer.h"
#include "stats/descriptive.h"

#include "test_util.h"

namespace lvf2::core {
namespace {

std::vector<double> three_mode_samples(std::size_t n, std::uint64_t seed) {
  stats::Rng rng(seed);
  std::vector<double> xs(n);
  for (auto& x : xs) {
    const double u = rng.uniform();
    if (u < 0.5) {
      x = rng.normal(1.0, 0.05);
    } else if (u < 0.8) {
      x = rng.normal(1.3, 0.05);
    } else {
      x = rng.normal(1.6, 0.06);
    }
  }
  return xs;
}

TEST(LvfKModel, ConstructionNormalizesAndSorts) {
  std::vector<LvfKModel::Component> comps;
  comps.push_back({2.0, stats::SkewNormal::from_moments(5.0, 1.0, 0.0)});
  comps.push_back({6.0, stats::SkewNormal::from_moments(1.0, 1.0, 0.0)});
  const LvfKModel m(std::move(comps));
  ASSERT_EQ(m.component_count(), 2u);
  EXPECT_LT(m.components()[0].dist.mean(), m.components()[1].dist.mean());
  EXPECT_NEAR(m.components()[0].weight, 0.75, 1e-12);
  EXPECT_NEAR(m.components()[1].weight, 0.25, 1e-12);
}

TEST(LvfKModel, RejectsInvalidInput) {
  EXPECT_THROW(LvfKModel({}), std::invalid_argument);
  std::vector<LvfKModel::Component> zero;
  zero.push_back({0.0, stats::SkewNormal()});
  EXPECT_THROW(LvfKModel(std::move(zero)), std::invalid_argument);
}

TEST(LvfKModel, KOneIsMomentFitLvf) {
  stats::Rng rng(test::test_seed(1));
  std::vector<double> xs(20000);
  for (auto& x : xs) x = rng.normal(0.1, 0.01);
  const auto m = LvfKModel::fit(xs, 1);
  ASSERT_TRUE(m.has_value());
  EXPECT_EQ(m->component_count(), 1u);
  const stats::Moments sm = stats::compute_moments(xs);
  // Moments match at the binned-likelihood resolution (DESIGN.md 1).
  EXPECT_NEAR(m->mean(), sm.mean, 1e-5 * sm.mean);
  EXPECT_NEAR(m->stddev(), sm.stddev, 1e-3 * sm.stddev);
}

TEST(LvfKModel, KTwoMatchesLvf2Closely) {
  stats::Rng rng(test::test_seed(2));
  std::vector<double> xs(20000);
  for (auto& x : xs) {
    x = (rng.uniform() < 0.35) ? rng.normal(1.3, 0.06)
                               : rng.normal(1.0, 0.05);
  }
  const auto mk = LvfKModel::fit(xs, 2);
  const auto m2 = Lvf2Model::fit(xs);
  ASSERT_TRUE(mk && m2);
  // One engine, one family, the same starts: the fits agree up to
  // LvfKModel's weight normalization.
  ASSERT_EQ(mk->component_count(), 2u);
  for (std::size_t c = 0; c < 2; ++c) {
    const auto& a = mk->components()[c];
    const auto& b = m2->components()[c];
    EXPECT_NEAR(a.weight, b.weight, 1e-12) << c;
    EXPECT_NEAR(a.dist.xi(), b.dist.xi(), 1e-12) << c;
    EXPECT_NEAR(a.dist.omega(), b.dist.omega(), 1e-12) << c;
    EXPECT_NEAR(a.dist.alpha(), b.dist.alpha(), 1e-12) << c;
  }
}

TEST(LvfKModel, KThreeRecoversThreeModes) {
  const std::vector<double> xs = three_mode_samples(30000, 3);
  EmReport report;
  const auto m = LvfKModel::fit(xs, 3, {}, &report);
  ASSERT_TRUE(m.has_value());
  EXPECT_EQ(m->component_count(), 3u);
  EXPECT_NEAR(m->components()[0].dist.mean(), 1.0, 0.05);
  EXPECT_NEAR(m->components()[1].dist.mean(), 1.3, 0.05);
  EXPECT_NEAR(m->components()[2].dist.mean(), 1.6, 0.08);
  EXPECT_NEAR(m->components()[0].weight, 0.5, 0.06);
  // Distribution-level accuracy beats the 2-component fit.
  const stats::EmpiricalCdf golden(xs);
  const auto m2 = Lvf2Model::fit(xs);
  ASSERT_TRUE(m2.has_value());
  double err3 = 0.0, err2 = 0.0;
  for (double q = 0.02; q < 1.0; q += 0.02) {
    const double x = golden.quantile(q);
    err3 += std::fabs(m->cdf(x) - q);
    err2 += std::fabs(m2->cdf(x) - q);
  }
  EXPECT_LT(err3, err2);
}

TEST(LvfKModel, MomentPinning) {
  const std::vector<double> xs = three_mode_samples(20000, 4);
  const stats::Moments sm = stats::compute_moments(xs);
  const auto m = LvfKModel::fit(xs, 3);
  ASSERT_TRUE(m.has_value());
  // Pinning targets the binned moments; compare at that resolution.
  EXPECT_NEAR(m->mean(), sm.mean, 1e-5 * sm.mean);
  EXPECT_NEAR(m->stddev(), sm.stddev, 1e-3 * sm.stddev);
}

TEST(LvfKModel, CdfQuantileRoundTripAndSampling) {
  std::vector<LvfKModel::Component> comps;
  comps.push_back({0.5, stats::SkewNormal::from_moments(1.0, 0.05, 0.3)});
  comps.push_back({0.3, stats::SkewNormal::from_moments(1.3, 0.05, -0.2)});
  comps.push_back({0.2, stats::SkewNormal::from_moments(1.6, 0.06, 0.0)});
  const LvfKModel m(std::move(comps));
  for (double p : {0.01, 0.3, 0.5, 0.7, 0.99}) {
    EXPECT_NEAR(m.cdf(m.quantile(p)), p, 1e-9) << p;
  }
  stats::Rng rng(test::test_seed(5));
  std::vector<double> xs(200000);
  for (auto& x : xs) x = m.sample(rng);
  const stats::Moments sm = stats::compute_moments(xs);
  EXPECT_NEAR(sm.mean, m.mean(), 0.005);
  EXPECT_NEAR(sm.stddev, m.stddev(), 0.005);
  EXPECT_NEAR(sm.skewness, m.skewness(), 0.05);
}

TEST(LvfKModel, BicPrefersTrueOrder) {
  // BIC on 3-mode data should prefer K=3 over K=1; K=4 should not be
  // dramatically better than K=3.
  const std::vector<double> xs = three_mode_samples(30000, 6);
  FitOptions options;
  const WeightedData data = make_weighted_data(xs, options);
  const auto m1 = LvfKModel::fit(xs, 1, options);
  const auto m3 = LvfKModel::fit(xs, 3, options);
  ASSERT_TRUE(m1 && m3);
  EXPECT_LT(m3->bic(data), m1->bic(data));
}

TEST(LvfKModel, FactorySupportsKind) {
  const std::vector<double> xs = three_mode_samples(15000, 7);
  const auto m = fit_model(ModelKind::kLvfK, xs);
  ASSERT_NE(m, nullptr);
  EXPECT_EQ(m->kind(), ModelKind::kLvfK);
  EXPECT_EQ(m->name(), "LVFk");
}

TEST(LvfKModel, LogPdfMatchesPdf) {
  std::vector<LvfKModel::Component> comps;
  comps.push_back({0.6, stats::SkewNormal::from_moments(0.0, 1.0, 0.5)});
  comps.push_back({0.4, stats::SkewNormal::from_moments(3.0, 0.5, 0.0)});
  const LvfKModel m(std::move(comps));
  for (double x : {-2.0, 0.0, 1.5, 3.0, 5.0}) {
    EXPECT_NEAR(m.log_pdf(x), std::log(m.pdf(x)), 1e-10) << x;
  }
}

TEST(LvfKLiberty, ThreeComponentNamingConventionRoundTrip) {
  // Hand-author a timing group carrying a three-component mixture via
  // the Section 3.3 naming convention and read it back.
  liberty::Group timing;
  timing.type = "timing";
  timing.set_attribute("related_pin", "A");
  const auto add_lut = [&](const std::string& name, double value) {
    liberty::Group& lut = timing.add_child(name, {"t"});
    lut.set_complex_attribute("index_1", {"0.01, 0.02"});
    lut.set_complex_attribute("index_2", {"0.001, 0.002"});
    const std::string v = std::to_string(value);
    lut.set_complex_attribute("values", {v + ", " + v, v + ", " + v});
  };
  add_lut("cell_rise", 0.100);
  add_lut("ocv_mean_shift_cell_rise", 0.002);
  add_lut("ocv_std_dev_cell_rise", 0.010);
  add_lut("ocv_skewness_cell_rise", 0.3);
  add_lut("ocv_mean_shift1_cell_rise", 0.000);
  add_lut("ocv_std_dev1_cell_rise", 0.008);
  add_lut("ocv_skewness1_cell_rise", 0.2);
  add_lut("ocv_weight2_cell_rise", 0.30);
  add_lut("ocv_mean_shift2_cell_rise", 0.020);
  add_lut("ocv_std_dev2_cell_rise", 0.012);
  add_lut("ocv_skewness2_cell_rise", -0.1);
  add_lut("ocv_weight3_cell_rise", 0.10);
  add_lut("ocv_mean_shift3_cell_rise", 0.045);
  add_lut("ocv_std_dev3_cell_rise", 0.015);
  add_lut("ocv_skewness3_cell_rise", 0.0);

  // Round-trip through text.
  liberty::Group wrapper;
  wrapper.type = "library";
  wrapper.args = {"k_test"};
  wrapper.children.push_back(timing);
  const liberty::Group reparsed = liberty::parse(liberty::write(wrapper));
  const liberty::Group* timing2 = reparsed.find_child("timing");
  ASSERT_NE(timing2, nullptr);

  const auto tables = liberty::extract_tables(*timing2, "cell_rise");
  ASSERT_TRUE(tables.has_value());
  EXPECT_EQ(tables->component_count(), 3u);
  ASSERT_EQ(tables->higher_components.size(), 1u);

  const LvfKModel model = tables->model_k_at(0, 0);
  ASSERT_EQ(model.component_count(), 3u);
  // Weights: comp3 carries 0.10; the first two are scaled by 0.9.
  double w3 = 0.0;
  for (const auto& c : model.components()) {
    if (std::fabs(c.dist.mean() - 0.145) < 1e-6) w3 = c.weight;
  }
  EXPECT_NEAR(w3, 0.10, 1e-9);
  // CDF is a proper distribution function.
  EXPECT_NEAR(model.cdf(model.quantile(0.5)), 0.5, 1e-9);
  // The 2-component reader still works on the same tables.
  const Lvf2Model two = tables->model_at(0, 0);
  EXPECT_NEAR(two.lambda(), 0.30, 1e-9);
}

}  // namespace
}  // namespace lvf2::core
