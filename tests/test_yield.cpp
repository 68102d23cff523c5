// Tests of the high-sigma importance-sampling engine (src/yield/):
// the plain-MC degeneration, weight diagnostics, determinism, and the
// statistical agreement/variance-reduction guarantees the yield gate
// relies on.

#include <gtest/gtest.h>

#include <cmath>
#include <cstddef>

#include "spice/montecarlo.h"
#include "stats/descriptive.h"
#include "stats/rng.h"
#include "test_util.h"
#include "yield/importance.h"

namespace lvf2::yield {
namespace {

// The "2 Peaks" shape from the paper scenarios: the strongest
// mechanism separation, where the failure region is bimodal and a
// proposal chosen from local-gradient information alone goes wrong.
spice::StageElectrical two_peaks_stage() {
  spice::StageElectrical stage;
  stage.mechanism_gain = 3.2;
  stage.mechanism_offset = -0.7;
  return stage;
}

constexpr spice::ArcCondition kCondition{0.05, 0.02};

ImportanceSampler make_sampler(const IsConfig& config) {
  return ImportanceSampler(two_peaks_stage(), kCondition,
                           spice::ProcessCorner::tt_global_local_mc(), config);
}

// Delay mean/stddev of the scenario from one plain-MC pilot, shared
// by the threshold-placement of every statistical test below.
stats::Moments pilot_moments(std::size_t samples, std::uint64_t seed) {
  spice::McConfig mc;
  mc.samples = samples;
  mc.seed = seed;
  const spice::McResult r = spice::run_monte_carlo(
      two_peaks_stage(), kCondition,
      spice::ProcessCorner::tt_global_local_mc(), mc);
  return stats::compute_moments(r.delay_ns);
}

TEST(Yield, ZeroShiftDegeneratesToPlainMcBitwise) {
  const std::uint64_t seed = test::test_seed(777);
  IsConfig cfg;
  cfg.batch_samples = cfg.max_samples = 4096;
  cfg.seed = seed;
  cfg.shards = 1;
  const ImportanceSampler sampler = make_sampler(cfg);

  // A low threshold keeps failures plentiful so the comparison has
  // bite on both sides of the boundary.
  const stats::Moments m = pilot_moments(4096, seed);
  const double threshold = m.mean + 1.5 * m.stddev;

  spice::McConfig mc;
  mc.samples = 4096;
  mc.seed = seed;
  mc.shards = 1;
  const spice::McResult r = spice::run_monte_carlo(
      two_peaks_stage(), kCondition,
      spice::ProcessCorner::tt_global_local_mc(), mc);
  std::size_t mc_failures = 0;
  for (const double d : r.delay_ns) {
    if (d > threshold) ++mc_failures;
  }

  const IsEstimate est = sampler.estimate_with_shift(threshold, ShiftVector{});
  EXPECT_EQ(est.samples, 4096u);
  EXPECT_EQ(est.failures, mc_failures);
  // All weights are exactly 1: the estimate is the plain MC ratio and
  // the diagnostics collapse to their degenerate values bitwise.
  EXPECT_DOUBLE_EQ(est.p_fail,
                   static_cast<double>(mc_failures) / 4096.0);
  EXPECT_DOUBLE_EQ(est.ess, 4096.0);
  EXPECT_DOUBLE_EQ(est.max_weight_fraction, 1.0 / 4096.0);
}

TEST(Yield, ZeroShiftShardedMatchesShardedMc) {
  const std::uint64_t seed = test::test_seed(0x5EED);
  IsConfig cfg;
  cfg.batch_samples = cfg.max_samples = 4096;
  cfg.seed = seed;
  cfg.shards = 4;
  const ImportanceSampler sampler = make_sampler(cfg);
  const stats::Moments m = pilot_moments(4096, seed);
  const double threshold = m.mean + 1.5 * m.stddev;

  spice::McConfig mc;
  mc.samples = 4096;
  mc.seed = seed;
  mc.shards = 4;
  const spice::McResult r = spice::run_monte_carlo(
      two_peaks_stage(), kCondition,
      spice::ProcessCorner::tt_global_local_mc(), mc);
  std::size_t mc_failures = 0;
  for (const double d : r.delay_ns) {
    if (d > threshold) ++mc_failures;
  }

  const IsEstimate est = sampler.estimate_with_shift(threshold, ShiftVector{});
  EXPECT_EQ(est.failures, mc_failures);
  EXPECT_DOUBLE_EQ(est.p_fail,
                   static_cast<double>(mc_failures) / 4096.0);
}

TEST(Yield, EstimateIsDeterministicPerConfig) {
  IsConfig cfg;
  cfg.batch_samples = cfg.max_samples = 8192;
  cfg.seed = test::test_seed(42);
  cfg.shards = 8;
  const ImportanceSampler sampler = make_sampler(cfg);
  const stats::Moments m = pilot_moments(8192, cfg.seed);
  const double threshold = m.mean + 3.0 * m.stddev;
  const IsEstimate a = sampler.estimate(threshold);
  const IsEstimate b = sampler.estimate(threshold);
  EXPECT_EQ(a.p_fail, b.p_fail);
  EXPECT_EQ(a.std_err, b.std_err);
  EXPECT_EQ(a.ess, b.ess);
  EXPECT_EQ(a.failures, b.failures);
  EXPECT_EQ(a.shift, b.shift);
  // The shift is frozen before estimation: re-running the estimation
  // under the published shift reproduces the estimate bitwise.
  const IsEstimate c = sampler.estimate_with_shift(threshold, a.shift);
  EXPECT_EQ(a.p_fail, c.p_fail);
  EXPECT_EQ(a.ess, c.ess);
}

TEST(Yield, DiagnosticsStayInRange) {
  IsConfig cfg;
  cfg.batch_samples = cfg.max_samples = 8192;
  cfg.seed = test::test_seed(0xD1A6);
  cfg.shards = 8;
  const ImportanceSampler sampler = make_sampler(cfg);
  const stats::Moments m = pilot_moments(8192, cfg.seed);
  const IsEstimate est = sampler.estimate(m.mean + 3.0 * m.stddev);
  EXPECT_GT(est.ess, 0.0);
  EXPECT_LE(est.ess, static_cast<double>(est.samples));
  EXPECT_GT(est.max_weight_fraction, 0.0);
  EXPECT_LE(est.max_weight_fraction, 1.0);
  EXPECT_GT(est.p_fail, 0.0);
  EXPECT_LT(est.p_fail, 1.0);
  // Defensive mixture: alpha = 0.5 keeps the ESS near or above
  // alpha * n even under an aggressive shift.
  EXPECT_GT(est.ess, 0.25 * static_cast<double>(est.samples));
}

TEST(Yield, ThreeSigmaAgreesWithBruteForceAcrossSeeds) {
  const std::uint64_t base = test::test_seed(0xA11CE);
  const stats::Moments m = pilot_moments(20000, base);
  const double threshold = m.mean + 3.0 * m.stddev;

  IsConfig bf_cfg;
  bf_cfg.seed = stats::combine_seed(base, 0xBF);
  bf_cfg.shards = 8;
  const BruteForceEstimate bf = make_sampler(bf_cfg).brute_force(
      threshold, 200000, /*target_rel_err=*/0.0);
  ASSERT_GT(bf.failures, 0u);

  // 16 independent IS runs against one 200k-draw brute-force anchor:
  // each must land within 3 combined standard errors. At 3 SE a
  // correct estimator still strays once in ~300 runs, so allow one
  // stray in 16 instead of encoding a seed lottery.
  int outside = 0;
  for (std::uint64_t k = 0; k < 16; ++k) {
    IsConfig cfg;
    cfg.batch_samples = 8192;
    cfg.max_samples = 32768;
    cfg.seed = stats::combine_seed(base, k + 1);
    cfg.shards = 8;
    const IsEstimate est = make_sampler(cfg).estimate(threshold);
    EXPECT_GT(est.p_fail, 0.0);
    const double tol =
        3.0 * std::sqrt(est.std_err * est.std_err + bf.std_err * bf.std_err);
    if (std::abs(est.p_fail - bf.p_fail) > tol) ++outside;
  }
  EXPECT_LE(outside, 1);
}

TEST(Yield, FourSigmaVarianceBeatsBruteForce) {
  const std::uint64_t seed = test::test_seed(0x45166);
  const stats::Moments m = pilot_moments(20000, seed);
  const double threshold = m.mean + 4.0 * m.stddev;
  IsConfig cfg;
  cfg.batch_samples = 8192;
  cfg.max_samples = 65536;
  cfg.seed = seed;
  cfg.shards = 8;
  const IsEstimate est = make_sampler(cfg).estimate(threshold);
  ASSERT_GT(est.p_fail, 0.0);
  ASSERT_TRUE(est.converged);
  // A binomial estimator at the same sample count has
  // SE = sqrt(p(1-p)/n); the IS run must sit well below it (the bench
  // measures the full >= 50x equivalent-sample gap, the unit test
  // just pins the direction with margin).
  const double binomial_se = std::sqrt(
      est.p_fail * (1.0 - est.p_fail) / static_cast<double>(est.samples));
  EXPECT_LT(est.std_err, 0.5 * binomial_se);
}

TEST(Yield, BruteForceEquivalentSamplesClosedForm) {
  EXPECT_DOUBLE_EQ(brute_force_equivalent_samples(0.5, 1.0), 1.0);
  // p = 1e-4 at re = 0.1: (1 - 1e-4) / (1e-4 * 0.01) ~= 1e6.
  EXPECT_NEAR(brute_force_equivalent_samples(1e-4, 0.1), 9.999e5, 1e2);
  // Degenerate inputs are infinite, not NaN or negative.
  EXPECT_TRUE(std::isinf(brute_force_equivalent_samples(0.0, 0.1)));
  EXPECT_TRUE(std::isinf(brute_force_equivalent_samples(1e-4, 0.0)));
}

TEST(Yield, ManifestSectionRoundTrips) {
  clear_yield_hs();
  IsEstimate est;
  est.threshold_ns = 0.04;
  est.sigma_level = 3.0;
  est.p_fail = 5.5e-4;
  est.std_err = 5e-5;
  est.rel_err = 5e-5 / 5.5e-4;
  est.samples = 8192;
  est.failures = 1234;
  est.ess = 4100.0;
  est.max_weight_fraction = 2.5e-4;
  est.shift[0] = 3.0;
  est.converged = true;
  record_yield_hs("unit", est);
  const std::string doc = obs::json_write(yield_hs_section());
  EXPECT_NE(doc.find("\"label\":\"unit\""), std::string::npos);
  EXPECT_NE(doc.find("\"sigma\":3"), std::string::npos);
  EXPECT_NE(doc.find("\"samples\":8192"), std::string::npos);
  EXPECT_NE(doc.find("\"converged\":true"), std::string::npos);
  clear_yield_hs();
  EXPECT_EQ(obs::json_write(yield_hs_section()).find("\"label\""),
            std::string::npos);
}

}  // namespace
}  // namespace lvf2::yield
