// Tests of the shared solvers: the damped 3x3 SPD solve and
// bisection root finding.

#include <cmath>
#include <limits>

#include <gtest/gtest.h>

#include "stats/optimize.h"

namespace lvf2::stats {
namespace {

TEST(DampedSpdSolve, SolvesPositiveDefiniteSystemUndamped) {
  // A = [[4, 1, 0], [1, 3, 1], [0, 1, 2]], x = (1, -2, 3).
  const double a[6] = {4.0, 1.0, 0.0, 3.0, 1.0, 2.0};
  const double b[3] = {2.0, -2.0, 4.0};
  double d[3];
  ASSERT_TRUE(solve_damped_spd(a, b, d));
  EXPECT_NEAR(d[0], 1.0, 1e-14);
  EXPECT_NEAR(d[1], -2.0, 1e-14);
  EXPECT_NEAR(d[2], 3.0, 1e-14);
}

TEST(DampedSpdSolve, DampsIndefiniteAndSingularSystems) {
  // Indefinite: the damped direction is finite and still a descent
  // direction (d . b > 0); singular: a zero row is damped by mu.
  const double indefinite[6] = {1.0, 0.0, 0.0, -1.0, 0.0, 1.0};
  const double singular[6] = {1.0, 0.0, 0.0, 0.0, 0.0, 1.0};
  for (const auto* a : {&indefinite, &singular}) {
    const double b[3] = {1.0, 1.0, 1.0};
    double d[3];
    ASSERT_TRUE(solve_damped_spd(*a, b, d));
    EXPECT_GT(d[0] * b[0] + d[1] * b[1] + d[2] * b[2], 0.0);
  }
  const double nan = std::numeric_limits<double>::quiet_NaN();
  const double bad[6] = {nan, 0.0, 0.0, 1.0, 0.0, 1.0};
  const double b[3] = {1.0, 1.0, 1.0};
  double d[3];
  EXPECT_FALSE(solve_damped_spd(bad, b, d));
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
