#include "stats/optimize.h"

#include <algorithm>
#include <cmath>
#include <limits>
#include <numeric>

namespace lvf2::stats {

namespace {

double guarded(const std::function<double(std::span<const double>)>& f,
               std::span<const double> x, std::size_t& evals) {
  ++evals;
  const double v = f(x);
  return std::isfinite(v) ? v : std::numeric_limits<double>::infinity();
}

}  // namespace

MinimizeResult nelder_mead(
    const std::function<double(std::span<const double>)>& f,
    std::span<const double> x0, const NelderMeadOptions& options) {
  MinimizeResult result;
  const std::size_t n = x0.size();
  if (n == 0) return result;

  // Adaptive coefficients (Gao & Han) help for n > 2.
  const double dim = static_cast<double>(n);
  const double alpha = 1.0;
  const double beta = 1.0 + 2.0 / dim;
  const double gamma = 0.75 - 0.5 / dim;
  const double delta = 1.0 - 1.0 / dim;

  std::vector<std::vector<double>> pts(n + 1,
                                       std::vector<double>(x0.begin(), x0.end()));
  std::vector<double> vals(n + 1);
  std::size_t evals = 0;
  for (std::size_t i = 0; i < n; ++i) {
    const double base = pts[i + 1][i];
    pts[i + 1][i] =
        base + (base != 0.0 ? options.initial_step * std::fabs(base)
                            : options.initial_step);
  }
  for (std::size_t i = 0; i <= n; ++i) vals[i] = guarded(f, pts[i], evals);

  std::vector<std::size_t> order(n + 1);
  std::vector<double> centroid(n), trial(n), trial2(n);

  while (evals < options.max_evaluations) {
    std::iota(order.begin(), order.end(), std::size_t{0});
    std::sort(order.begin(), order.end(),
              [&](std::size_t a, std::size_t b) { return vals[a] < vals[b]; });
    const std::size_t best = order.front();
    const std::size_t worst = order.back();
    const std::size_t second_worst = order[n - 1];

    // Convergence checks: simplex extent and value spread.
    double extent = 0.0;
    for (std::size_t i = 0; i <= n; ++i) {
      for (std::size_t d = 0; d < n; ++d) {
        extent = std::max(extent, std::fabs(pts[i][d] - pts[best][d]));
      }
    }
    const double spread = vals[worst] - vals[best];
    if (extent < options.x_tolerance ||
        (std::isfinite(spread) && spread < options.f_tolerance)) {
      result.converged = true;
      break;
    }

    // Centroid of all points but the worst.
    std::fill(centroid.begin(), centroid.end(), 0.0);
    for (std::size_t i = 0; i <= n; ++i) {
      if (i == worst) continue;
      for (std::size_t d = 0; d < n; ++d) centroid[d] += pts[i][d];
    }
    for (double& c : centroid) c /= dim;

    // Reflection.
    for (std::size_t d = 0; d < n; ++d) {
      trial[d] = centroid[d] + alpha * (centroid[d] - pts[worst][d]);
    }
    const double fr = guarded(f, trial, evals);

    if (fr < vals[best]) {
      // Expansion.
      for (std::size_t d = 0; d < n; ++d) {
        trial2[d] = centroid[d] + beta * (trial[d] - centroid[d]);
      }
      const double fe = guarded(f, trial2, evals);
      if (fe < fr) {
        pts[worst] = trial2;
        vals[worst] = fe;
      } else {
        pts[worst] = trial;
        vals[worst] = fr;
      }
    } else if (fr < vals[second_worst]) {
      pts[worst] = trial;
      vals[worst] = fr;
    } else {
      // Contraction (outside if reflected point improved on worst).
      const bool outside = fr < vals[worst];
      const auto& toward = outside ? trial : pts[worst];
      for (std::size_t d = 0; d < n; ++d) {
        trial2[d] = centroid[d] + gamma * (toward[d] - centroid[d]);
      }
      const double fc = guarded(f, trial2, evals);
      if (fc < std::min(fr, vals[worst])) {
        pts[worst] = trial2;
        vals[worst] = fc;
      } else {
        // Shrink toward the best vertex.
        for (std::size_t i = 0; i <= n; ++i) {
          if (i == best) continue;
          for (std::size_t d = 0; d < n; ++d) {
            pts[i][d] = pts[best][d] + delta * (pts[i][d] - pts[best][d]);
          }
          vals[i] = guarded(f, pts[i], evals);
        }
      }
    }
  }

  const auto best_it = std::min_element(vals.begin(), vals.end());
  result.x = pts[static_cast<std::size_t>(best_it - vals.begin())];
  result.value = *best_it;
  result.evaluations = evals;
  return result;
}

ScalarResult bisect_root(const std::function<double(double)>& f, double lo,
                         double hi, double tolerance,
                         std::size_t max_iterations) {
  ScalarResult result;
  double flo = f(lo);
  double fhi = f(hi);
  result.evaluations = 2;
  if (flo == 0.0) {
    result.x = lo;
    result.converged = true;
    return result;
  }
  if (fhi == 0.0) {
    result.x = hi;
    result.converged = true;
    return result;
  }
  if (!(flo * fhi < 0.0)) {
    result.x = 0.5 * (lo + hi);
    return result;
  }
  for (std::size_t iter = 0; iter < max_iterations; ++iter) {
    const double mid = 0.5 * (lo + hi);
    const double fm = f(mid);
    ++result.evaluations;
    if (fm == 0.0 || 0.5 * (hi - lo) < tolerance) {
      result.x = mid;
      result.value = fm;
      result.converged = true;
      return result;
    }
    if (flo * fm < 0.0) {
      hi = mid;
    } else {
      lo = mid;
      flo = fm;
    }
  }
  result.x = 0.5 * (lo + hi);
  result.converged = true;
  return result;
}

}  // namespace lvf2::stats
