// Tests of the derivative-free optimizers: Nelder-Mead on standard
// test functions and bisection root finding.

#include <cmath>
#include <span>

#include <gtest/gtest.h>

#include "stats/optimize.h"

namespace lvf2::stats {
namespace {

TEST(NelderMead, QuadraticBowl2D) {
  const auto f = [](std::span<const double> x) {
    return (x[0] - 3.0) * (x[0] - 3.0) + 2.0 * (x[1] + 1.0) * (x[1] + 1.0);
  };
  const double x0[2] = {0.0, 0.0};
  const MinimizeResult r = nelder_mead(f, x0);
  EXPECT_NEAR(r.x[0], 3.0, 1e-5);
  EXPECT_NEAR(r.x[1], -1.0, 1e-5);
  EXPECT_LT(r.value, 1e-9);
}

TEST(NelderMead, Rosenbrock2D) {
  const auto f = [](std::span<const double> x) {
    const double a = 1.0 - x[0];
    const double b = x[1] - x[0] * x[0];
    return a * a + 100.0 * b * b;
  };
  const double x0[2] = {-1.2, 1.0};
  NelderMeadOptions options;
  options.max_evaluations = 5000;
  const MinimizeResult r = nelder_mead(f, x0, options);
  EXPECT_NEAR(r.x[0], 1.0, 1e-3);
  EXPECT_NEAR(r.x[1], 1.0, 2e-3);
}

TEST(NelderMead, QuarticIn4D) {
  const auto f = [](std::span<const double> x) {
    double s = 0.0;
    for (std::size_t i = 0; i < x.size(); ++i) {
      const double d = x[i] - static_cast<double>(i);
      s += d * d * d * d + d * d;
    }
    return s;
  };
  const double x0[4] = {1.0, 1.0, 1.0, 1.0};
  NelderMeadOptions options;
  options.max_evaluations = 4000;
  const MinimizeResult r = nelder_mead(f, x0, options);
  for (std::size_t i = 0; i < 4; ++i) {
    EXPECT_NEAR(r.x[i], static_cast<double>(i), 2e-3) << i;
  }
}

TEST(NelderMead, InfinityActsAsConstraint) {
  // Constrain x > 0 by returning inf; optimum at the boundary-near
  // minimum of (x-2)^2 from a feasible start.
  const auto f = [](std::span<const double> x) {
    if (x[0] <= 0.0) return std::numeric_limits<double>::infinity();
    return (x[0] - 2.0) * (x[0] - 2.0);
  };
  const double x0[1] = {0.5};
  const MinimizeResult r = nelder_mead(f, x0);
  EXPECT_NEAR(r.x[0], 2.0, 1e-6);
}

TEST(NelderMead, NanTreatedAsInfinity) {
  const auto f = [](std::span<const double> x) {
    if (x[0] < -1.0) return std::nan("");
    return x[0] * x[0];
  };
  const double x0[1] = {-0.9};
  const MinimizeResult r = nelder_mead(f, x0);
  EXPECT_NEAR(r.x[0], 0.0, 1e-6);
}

TEST(NelderMead, EmptyInputReturnsDefault) {
  const auto f = [](std::span<const double>) { return 0.0; };
  const MinimizeResult r = nelder_mead(f, {});
  EXPECT_TRUE(r.x.empty());
  EXPECT_FALSE(r.converged);
}

TEST(NelderMead, RespectsEvaluationBudget) {
  const auto f = [](std::span<const double> x) { return x[0] * x[0]; };
  const double x0[1] = {100.0};
  NelderMeadOptions options;
  options.max_evaluations = 25;
  const MinimizeResult r = nelder_mead(f, x0, options);
  EXPECT_LE(r.evaluations, 30u);  // small overshoot from shrink steps
}

TEST(BisectRoot, SimpleRoot) {
  const auto f = [](double x) { return x * x * x - 8.0; };
  const ScalarResult r = bisect_root(f, 0.0, 10.0);
  EXPECT_NEAR(r.x, 2.0, 1e-9);
  EXPECT_TRUE(r.converged);
}

TEST(BisectRoot, ExactEndpointRoots) {
  const auto f = [](double x) { return x - 1.0; };
  EXPECT_DOUBLE_EQ(bisect_root(f, 1.0, 5.0).x, 1.0);
  EXPECT_DOUBLE_EQ(bisect_root(f, -3.0, 1.0).x, 1.0);
}

TEST(BisectRoot, NoSignChangeReportsNotConverged) {
  const auto f = [](double x) { return x * x + 1.0; };
  const ScalarResult r = bisect_root(f, -1.0, 1.0);
  EXPECT_FALSE(r.converged);
}

TEST(BisectRoot, MonotoneDecreasing) {
  const auto f = [](double x) { return 3.0 - x; };
  EXPECT_NEAR(bisect_root(f, 0.0, 10.0).x, 3.0, 1e-9);
}

}  // namespace
}  // namespace lvf2::stats
