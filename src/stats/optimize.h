#pragma once
// The numerical solvers shared by the model fits: one family, Newton
// steps with Levenberg-Marquardt damping plus bracketed bisection.
//  - solve_damped_spd: the 3x3 Newton / Gauss-Newton system of the
//    skew-normal M-step and the log-ESN four-moment fit,
//  - bisect_root: 1-D root finding for quantile inversion (ESN and
//    mixture quantiles).

#include <cstddef>
#include <functional>

namespace lvf2::stats {

/// Solves A d = b for a symmetric 3x3 A (packed xx, xy, xz, yy, yz,
/// zz) by Cholesky. When A is not numerically positive definite
/// (a pivot at or below 1e-12 of its diagonal entry), retries with
/// Levenberg-Marquardt damping A_kk += mu |A_kk| (mu on a zero
/// diagonal) for mu = 1e-4, 1e-3, ..., 1e8. Returns false when no
/// damping level gives a finite solution.
bool solve_damped_spd(const double (&a)[6], const double (&b)[3],
                      double (&d)[3]);

/// Result of a 1-D root find.
struct ScalarResult {
  double x = 0.0;
  bool converged = false;
};

/// Bisection root find on [lo, hi]. Requires a sign change; returns
/// converged = false (and the midpoint) otherwise.
ScalarResult bisect_root(const std::function<double(double)>& f, double lo,
                         double hi, double tolerance = 1e-12,
                         std::size_t max_iterations = 200);

}  // namespace lvf2::stats
