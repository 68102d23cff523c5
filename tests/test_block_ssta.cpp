// Tests of the block-based SSTA operators: sum (convolution), max,
// chain propagation with deterministic wire delays, and the
// one-grid-at-a-time chain endpoint.

#include <cmath>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "obs/metrics.h"
#include "robust/faults.h"
#include "ssta/block_ssta.h"
#include "stats/normal.h"
#include "stats/rng.h"

namespace lvf2::ssta {
namespace {

stats::GridPdf normal_grid(double mu, double sigma) {
  const stats::Normal n(mu, sigma);
  return stats::GridPdf::from_function([n](double x) { return n.pdf(x); },
                                       mu - 9.0 * sigma, mu + 9.0 * sigma,
                                       2048);
}

TEST(SstaSum, MatchesClosedFormNormalSum) {
  const stats::GridPdf c = ssta_sum(normal_grid(0.10, 0.01),
                                    normal_grid(0.20, 0.02));
  EXPECT_NEAR(c.mean(), 0.30, 1e-5);
  EXPECT_NEAR(c.stddev(), std::sqrt(0.01 * 0.01 + 0.02 * 0.02), 1e-5);
}

TEST(SstaMax, MatchesProductOfCdfs) {
  const stats::GridPdf m = ssta_max(normal_grid(0.0, 1.0),
                                    normal_grid(0.3, 0.8));
  const stats::Normal a(0.0, 1.0), b(0.3, 0.8);
  for (double x : {-1.0, 0.0, 0.5, 1.5}) {
    EXPECT_NEAR(m.cdf(x), a.cdf(x) * b.cdf(x), 3e-3) << x;
  }
}

TEST(SstaMax, DominantOperandWins) {
  // max(X, Y) with Y far below X is X.
  const stats::GridPdf m = ssta_max(normal_grid(10.0, 0.5),
                                    normal_grid(0.0, 0.5));
  EXPECT_NEAR(m.mean(), 10.0, 1e-3);
  EXPECT_NEAR(m.stddev(), 0.5, 1e-3);
}

TEST(PropagateChain, CumulativeMeansAdd) {
  std::vector<stats::GridPdf> stages = {normal_grid(0.1, 0.01),
                                        normal_grid(0.2, 0.01),
                                        normal_grid(0.15, 0.02)};
  const std::vector<stats::GridPdf> cum = propagate_chain(stages);
  ASSERT_EQ(cum.size(), 3u);
  EXPECT_NEAR(cum[0].mean(), 0.10, 1e-5);
  EXPECT_NEAR(cum[1].mean(), 0.30, 1e-4);
  EXPECT_NEAR(cum[2].mean(), 0.45, 1e-4);
  EXPECT_NEAR(cum[2].stddev(),
              std::sqrt(0.01 * 0.01 + 0.01 * 0.01 + 0.02 * 0.02), 1e-4);
}

TEST(PropagateChain, WireDelaysShiftMeans) {
  std::vector<stats::GridPdf> stages = {normal_grid(0.1, 0.01),
                                        normal_grid(0.1, 0.01)};
  const std::vector<double> wires = {0.05, 0.02};
  const std::vector<stats::GridPdf> cum = propagate_chain(stages, wires);
  EXPECT_NEAR(cum[0].mean(), 0.15, 1e-5);
  EXPECT_NEAR(cum[1].mean(), 0.27, 1e-4);
  // Wire delay is deterministic: stddev unchanged.
  EXPECT_NEAR(cum[1].stddev(), std::sqrt(2.0) * 0.01, 1e-4);
}

TEST(PropagateChain, SizeMismatchThrows) {
  std::vector<stats::GridPdf> stages = {normal_grid(0.1, 0.01)};
  const std::vector<double> wires = {0.1, 0.2};
  EXPECT_THROW(propagate_chain(stages, wires), std::invalid_argument);
}

TEST(PropagateChain, EmptyChainIsEmpty) {
  EXPECT_TRUE(propagate_chain({}).empty());
}

TEST(PropagateChain, SkewnessDecaysAlongChain) {
  // CLT check (paper Section 3.4): propagating identical skewed
  // stages drives the cumulative skewness down as O(1/sqrt(n)).
  const auto skewed = stats::GridPdf::from_function(
      [](double x) {
        return (x > 0.0) ? std::exp(-x) : 0.0;  // exponential, skew 2
      },
      -0.5, 20.0, 2048);
  std::vector<stats::GridPdf> stages(9, skewed);
  const std::vector<stats::GridPdf> cum = propagate_chain(stages);
  const double s1 = cum[0].skewness();
  const double s4 = cum[3].skewness();
  const double s9 = cum[8].skewness();
  EXPECT_NEAR(s1, 2.0, 0.05);
  EXPECT_NEAR(s4, s1 / 2.0, 0.05);   // n = 4 -> skew / sqrt(4)
  EXPECT_NEAR(s9, s1 / 3.0, 0.05);   // n = 9 -> skew / sqrt(9)
}

// The `path_ssta` op's shapes: a skewed two-component stage
// tabulated on 512 points, propagated at 1024/2048.
stats::GridPdf serve_stage() {
  const stats::Normal a(0.10, 0.010), b(0.13, 0.015);
  return stats::GridPdf::from_function(
      [&](double x) { return 0.7 * a.pdf(x) + 0.3 * b.pdf(x); }, 0.02, 0.25,
      512);
}

SstaOptions serve_options() {
  SstaOptions options;
  options.grid_points = 1024;
  options.max_conv_points = 2048;
  return options;
}

void expect_bitwise_equal(const stats::GridPdf& a, const stats::GridPdf& b) {
  EXPECT_EQ(a.size(), b.size());
  EXPECT_EQ(a.lo(), b.lo());
  EXPECT_EQ(a.hi(), b.hi());
  const std::vector<double> da(a.density().begin(), a.density().end());
  const std::vector<double> db(b.density().begin(), b.density().end());
  EXPECT_EQ(da, db);
}

TEST(ChainEndpoint, MatchesPropagateChainBackBitwise) {
  const stats::GridPdf stage = serve_stage();
  const SstaOptions options = serve_options();
  for (std::size_t depth : {1u, 2u, 8u, 32u}) {
    SCOPED_TRACE(depth);
    const std::vector<stats::GridPdf> stages(depth, stage);
    const std::vector<stats::GridPdf> cum =
        propagate_chain(stages, {}, options);
    expect_bitwise_equal(chain_endpoint(stage, depth, options), cum.back());
  }
  EXPECT_TRUE(chain_endpoint(stage, 0, options).empty());
}

// Both loops fold through one step, so armed empty-PDF faults poison
// the same stages and the containment carries the same arrival.
TEST(ChainEndpoint, AgreesWithPropagateChainUnderEmptyPdfFaults) {
  const stats::GridPdf stage = serve_stage();
  const SstaOptions options = serve_options();
  robust::FaultInjector& injector = robust::FaultInjector::instance();
  struct Disarm {
    ~Disarm() { robust::FaultInjector::instance().clear(); }
  } disarm;
  obs::Counter& poisoned = obs::counter("robust.ssta.poisoned_stage");
  for (int seed = 1; seed <= 4; ++seed) {
    for (std::size_t depth : {8u, 32u}) {
      SCOPED_TRACE(std::to_string(seed) + "/" + std::to_string(depth));
      const std::string spec =
          "ssta.empty_pdf:0.3;seed=" + std::to_string(seed);
      ASSERT_TRUE(injector.configure(spec).is_ok());
      const std::uint64_t before_chain = poisoned.value();
      const std::vector<stats::GridPdf> stages(depth, stage);
      const std::vector<stats::GridPdf> cum =
          propagate_chain(stages, {}, options);
      const std::uint64_t chain_poisoned = poisoned.value() - before_chain;

      ASSERT_TRUE(injector.configure(spec).is_ok());
      const std::uint64_t before_endpoint = poisoned.value();
      const stats::GridPdf endpoint = chain_endpoint(stage, depth, options);
      const std::uint64_t endpoint_poisoned =
          poisoned.value() - before_endpoint;

      EXPECT_GT(chain_poisoned, 0u);
      EXPECT_EQ(endpoint_poisoned, chain_poisoned);
      expect_bitwise_equal(endpoint, cum.back());
    }
  }
}

}  // namespace
}  // namespace lvf2::ssta
