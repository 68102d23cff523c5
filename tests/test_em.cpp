// Tests of the EM support layer: binned-likelihood data compression,
// the coarse view the multi-start bursts run on, and the staged
// multi-start itself.

#include <algorithm>
#include <array>
#include <cmath>
#include <optional>
#include <vector>

#include <gtest/gtest.h>

#include "core/em.h"
#include "obs/metrics.h"
#include "stats/descriptive.h"
#include "stats/rng.h"

#include "test_util.h"

namespace lvf2::core {
namespace {

TEST(WeightedData, RawModeKeepsAllSamples) {
  const std::vector<double> xs = {1.0, 2.0, 3.0};
  FitOptions options;
  options.likelihood_bins = 0;
  const WeightedData d = make_weighted_data(xs, options);
  EXPECT_EQ(d.size(), 3u);
  EXPECT_DOUBLE_EQ(d.total_weight, 3.0);
  EXPECT_EQ(d.x, xs);
  for (double w : d.w) EXPECT_DOUBLE_EQ(w, 1.0);
}

TEST(WeightedData, SmallSamplesStayRawEvenWhenBinningRequested) {
  const std::vector<double> xs = {1.0, 2.0, 3.0};
  FitOptions options;
  options.likelihood_bins = 512;
  const WeightedData d = make_weighted_data(xs, options);
  EXPECT_EQ(d.size(), 3u);
}

TEST(WeightedData, BinnedModePreservesTotalWeight) {
  stats::Rng rng(test::test_seed(1));
  const std::vector<double> xs = rng.normal_vector(50000);
  FitOptions options;
  options.likelihood_bins = 256;
  const WeightedData d = make_weighted_data(xs, options);
  EXPECT_LE(d.size(), 256u);
  EXPECT_DOUBLE_EQ(d.total_weight, 50000.0);
  double sum = 0.0;
  for (double w : d.w) {
    EXPECT_GT(w, 0.0);  // empty bins dropped
    sum += w;
  }
  EXPECT_DOUBLE_EQ(sum, 50000.0);
}

TEST(WeightedData, BinnedMomentsMatchRawMoments) {
  stats::Rng rng(test::test_seed(2));
  std::vector<double> xs(80000);
  for (auto& x : xs) x = rng.normal(3.0, 0.2);
  FitOptions options;
  options.likelihood_bins = 512;
  const WeightedData d = make_weighted_data(xs, options);
  const stats::Moments raw = stats::compute_moments(xs);
  const stats::Moments binned = stats::compute_weighted_moments(d.x, d.w);
  EXPECT_NEAR(binned.mean, raw.mean, 1e-4);
  EXPECT_NEAR(binned.stddev, raw.stddev, 1e-3);
  EXPECT_NEAR(binned.skewness, raw.skewness, 0.01);
}

// Two skew-normal-ish modes, the shape the multi-start exists for.
std::vector<double> bimodal(std::size_t n, std::uint64_t seed) {
  stats::Rng rng(test::test_seed(seed));
  std::vector<double> xs(n);
  for (double& x : xs) {
    x = (rng.uniform() < 0.7) ? rng.normal(1.0, 0.05)
                              : 1.25 + std::fabs(rng.normal(0.0, 0.08));
  }
  return xs;
}

double weighted_mean(const WeightedData& d) {
  double wx = 0.0;
  for (std::size_t i = 0; i < d.size(); ++i) wx += d.w[i] * d.x[i];
  return wx / d.total_weight;
}

void expect_coarse_view_of(const WeightedData& d) {
  const WeightedData c = coarse_view(d, kBurstPoints);
  ASSERT_GT(d.size(), kBurstPoints);
  EXPECT_LE(c.size(), kBurstPoints);
  EXPECT_GE(c.size(), kBurstPoints / 2);
  EXPECT_TRUE(std::is_sorted(c.x.begin(), c.x.end()));
  EXPECT_NEAR(c.total_weight, d.total_weight, 1e-12 * d.total_weight);
  const double mean = weighted_mean(d);
  EXPECT_NEAR(weighted_mean(c), mean, 1e-12 * std::fabs(mean));
}

TEST(CoarseView, KeepsWeightAndMeanOfBinnedData) {
  const WeightedData d = make_weighted_data(bimodal(20000, 11), {});
  EXPECT_TRUE(std::is_sorted(d.x.begin(), d.x.end()));
  expect_coarse_view_of(d);
}

// Raw samples (at most likelihood_bins of them) are fitted unsorted;
// the view orders them first, and is the view of the sorted data.
TEST(CoarseView, OrdersUnsortedRawSamples) {
  std::vector<double> xs = bimodal(300, 12);
  const WeightedData raw = make_weighted_data(xs, {});
  ASSERT_EQ(raw.size(), xs.size());
  ASSERT_FALSE(std::is_sorted(raw.x.begin(), raw.x.end()));
  expect_coarse_view_of(raw);
  std::sort(xs.begin(), xs.end());
  const WeightedData sorted = coarse_view(make_weighted_data(xs, {}),
                                          kBurstPoints);
  const WeightedData c = coarse_view(raw, kBurstPoints);
  EXPECT_EQ(c.x, sorted.x);
  EXPECT_EQ(c.w, sorted.w);
}

TEST(CoarseView, SmallDataComesBackUnchanged) {
  const WeightedData d = make_weighted_data(bimodal(kBurstPoints, 13), {});
  const WeightedData c = coarse_view(d, kBurstPoints);
  EXPECT_EQ(c.x, d.x);
  EXPECT_EQ(c.w, d.w);
}

template <class C>
std::array<double, 3> params(const C& c) {
  if constexpr (std::is_same_v<C, stats::SkewNormal>) {
    return {c.xi(), c.omega(), c.alpha()};
  } else {
    return {c.mean(), c.stddev(), 0.0};
  }
}

template <class C>
void expect_same_run(const EmRun<C>& a, const EmRun<C>& b) {
  EXPECT_EQ(a.report.iterations, b.report.iterations);
  EXPECT_EQ(a.report.log_likelihood, b.report.log_likelihood);
  EXPECT_EQ(a.report.converged, b.report.converged);
  EXPECT_EQ(a.report.burst_iterations, b.report.burst_iterations);
  ASSERT_EQ(a.mixture.size(), b.mixture.size());
  for (std::size_t c = 0; c < a.mixture.size(); ++c) {
    EXPECT_EQ(a.mixture.components()[c].weight,
              b.mixture.components()[c].weight);
    EXPECT_EQ(params(a.mixture.components()[c].dist),
              params(b.mixture.components()[c].dist));
  }
}

// The multi-start recipe without a coarse view, chained by hand from
// run_em: every start bursts on the data itself, ranked by the
// burst's own log-likelihood, then the rest of the budget on the best
// one unless it converged. A lone start runs the whole budget.
template <class C>
EmRun<C> full_data_recipe(const WeightedData& data, std::size_t k,
                          std::span<const EmStart> kinds,
                          const FitOptions& options, EmSteps steps) {
  const std::vector<Mixture<C>> starts =
      em_starts<C>(data, k, kinds, options.seed);
  if (starts.size() < 2) return run_em(data, starts.at(0), options, steps);
  FitOptions burst = options;
  burst.em_max_iterations = kBurstIterations;
  std::optional<EmRun<C>> best;
  std::size_t burst_iterations = 0;
  for (const Mixture<C>& start : starts) {
    EmRun<C> run = run_em(data, start, burst, steps);
    burst_iterations += run.report.iterations;
    if (!run.report.collapsed &&
        (!best || run.report.log_likelihood > best->report.log_likelihood)) {
      best = std::move(run);
    }
  }
  if (!best->report.converged) {
    FitOptions rest = options;
    rest.em_max_iterations -= kBurstIterations;
    EmRun<C> final_run = run_em(data, best->mixture, rest, steps);
    final_run.report.iterations += kBurstIterations;
    best = std::move(final_run);
  }
  best->report.burst_iterations = burst_iterations;
  return std::move(*best);
}

template <class C>
void expect_full_data_recipe(const WeightedData& data, std::size_t k,
                             std::span<const EmStart> kinds, EmSteps steps) {
  const FitOptions options;
  const EmRun<C> got = multi_start_em<C>(data, k, kinds, options, steps);
  ASSERT_FALSE(got.report.collapsed);
  expect_same_run(got, full_data_recipe<C>(data, k, kinds, options, steps));
  EmReport report;
  ASSERT_TRUE(fit_mixture<C>(data, k, kinds, options, &report, steps));
  EXPECT_EQ(report.iterations, got.report.iterations);
  EXPECT_EQ(report.log_likelihood, got.report.log_likelihood);
}

// At most kBurstPoints points there is nothing to coarsen.
TEST(MultiStartEm, SmallDataBurstsOnTheDataItself) {
  const WeightedData d = make_weighted_data(bimodal(kBurstPoints, 21), {});
  expect_full_data_recipe<stats::SkewNormal>(d, 2, kAllStarts,
                                             EmSteps::kAccelerated);
}

// Norm^2 (k-means only) and LVF^k at K = 3 (the splits need K = 2)
// have one start: no bursts.
TEST(MultiStartEm, LoneStartRunsTheWholeBudget) {
  const WeightedData d = make_weighted_data(bimodal(2000, 22), {});
  ASSERT_GT(d.size(), kBurstPoints);
  constexpr EmStart kKMeansOnly[] = {EmStart::kKMeans};
  expect_full_data_recipe<stats::Normal>(d, 2, kKMeansOnly,
                                         EmSteps::kAccelerated);
  expect_full_data_recipe<stats::SkewNormal>(d, 3, kAllStarts,
                                             EmSteps::kAccelerated);
}

// Grid refits run plain EM, whose bursts stay on the full data.
TEST(MultiStartEm, PlainEmBurstsOnTheFullData) {
  const WeightedData d = make_weighted_data(bimodal(2000, 23), {});
  ASSERT_GT(d.size(), kBurstPoints);
  expect_full_data_recipe<stats::SkewNormal>(d, 2, kAllStarts,
                                             EmSteps::kPlain);
}

// An accelerated LVF^2 fit bursts on the coarse view and ends at
// least as likely, on the full data, as the burst it ranked best
// there; every burst E-step is counted, apart from em.iterations.
TEST(MultiStartEm, CoarseBurstsRankedOnTheFullData) {
  const FitOptions options;
  obs::Counter& bursts = obs::counter("em.burst_iterations");
  obs::Counter& iterations = obs::counter("em.iterations");
  for (std::uint64_t set = 0; set < 6; ++set) {
    SCOPED_TRACE(testing::Message() << "set " << set);
    const WeightedData d =
        make_weighted_data(bimodal(2000 + 3000 * set, 30 + set), {});
    ASSERT_GT(d.size(), kBurstPoints);
    const WeightedData coarse = coarse_view(d, kBurstPoints);
    FitOptions burst = options;
    burst.em_max_iterations = kBurstIterations;
    double winner = -INFINITY;
    std::size_t burst_iterations = 0;
    for (const auto& start :
         em_starts<stats::SkewNormal>(coarse, 2, kAllStarts, options.seed)) {
      const auto run = run_em(coarse, start, burst);
      burst_iterations += run.report.iterations;
      if (!run.report.collapsed) {
        winner = std::max(winner, run.mixture.log_likelihood(d));
      }
    }
    ASSERT_TRUE(std::isfinite(winner));

    const EmRun<stats::SkewNormal> got = multi_start_em<stats::SkewNormal>(
        d, 2, kAllStarts, options, EmSteps::kAccelerated);
    ASSERT_FALSE(got.report.collapsed);
    EXPECT_GE(got.mixture.log_likelihood(d),
              winner - 1e-12 * std::fabs(winner));
    EXPECT_EQ(got.report.burst_iterations, burst_iterations);
    EXPECT_GT(got.report.iterations, 0u);

    const std::uint64_t bursts_before = bursts.value();
    const std::uint64_t iterations_before = iterations.value();
    EmReport report;
    ASSERT_TRUE(fit_mixture<stats::SkewNormal>(
        d, 2, kAllStarts, options, &report, EmSteps::kAccelerated));
    EXPECT_EQ(report.log_likelihood, got.report.log_likelihood);
    EXPECT_EQ(bursts.value() - bursts_before, burst_iterations);
    EXPECT_EQ(iterations.value() - iterations_before, report.iterations);
  }
}

}  // namespace
}  // namespace lvf2::core
