#pragma once
// Derivative-free optimizers used by the model fits:
//  - Nelder-Mead simplex (multi-dimensional) for the ESN and log-ESN
//    shape fits,
//  - bisection root finding (1-D) for quantile inversion (ESN and
//    mixture quantiles).

#include <functional>
#include <span>
#include <vector>

namespace lvf2::stats {

/// Result of a multi-dimensional minimization.
struct MinimizeResult {
  std::vector<double> x;       ///< best point found
  double value = 0.0;          ///< objective at `x`
  std::size_t evaluations = 0;
  bool converged = false;
};

/// Nelder-Mead options. Defaults tuned for 3-4 parameter likelihood
/// maximizations where the objective costs O(bins) per evaluation.
struct NelderMeadOptions {
  std::size_t max_evaluations = 2000;
  double x_tolerance = 1e-9;     ///< simplex size stop criterion
  double f_tolerance = 1e-12;    ///< spread of objective values
  double initial_step = 0.1;     ///< per-coordinate simplex extent
};

/// Minimizes `f` starting from `x0` with the Nelder-Mead simplex
/// method (adaptive coefficients per Gao & Han 2012 for dim > 2).
/// Non-finite objective values are treated as +infinity, which lets
/// callers express hard constraints by returning NaN/inf.
MinimizeResult nelder_mead(const std::function<double(std::span<const double>)>& f,
                           std::span<const double> x0,
                           const NelderMeadOptions& options = {});

/// Result of a 1-D root find.
struct ScalarResult {
  double x = 0.0;
  double value = 0.0;
  std::size_t evaluations = 0;
  bool converged = false;
};

/// Bisection root find on [lo, hi]. Requires a sign change; returns
/// converged = false (and the midpoint) otherwise.
ScalarResult bisect_root(const std::function<double(double)>& f, double lo,
                         double hi, double tolerance = 1e-12,
                         std::size_t max_iterations = 200);

}  // namespace lvf2::stats
