#include "stats/optimize.h"

#include <algorithm>
#include <cmath>

namespace lvf2::stats {

bool solve_damped_spd(const double (&a)[6], const double (&b)[3],
                      double (&d)[3]) {
  // Cholesky pivots at or below 1e-12 of their diagonal entry count as
  // "not positive definite".
  const auto pivot = [](double v, double diag) {
    return (v > 1e-12 * diag) ? std::sqrt(v) : 0.0;
  };
  // mu = 0 is the undamped solve.
  for (double mu = 0.0; mu <= 1e8; mu = (mu == 0.0) ? 1e-4 : mu * 10.0) {
    double m[6];
    std::copy(a, a + 6, m);
    for (const int k : {0, 3, 5}) {
      const double scale = std::fabs(a[k]) > 0.0 ? std::fabs(a[k]) : 1.0;
      if (mu > 0.0) m[k] += mu * scale;
    }
    const double l00 = pivot(m[0], m[0]);
    if (l00 == 0.0) continue;
    const double l10 = m[1] / l00;
    const double l20 = m[2] / l00;
    const double l11 = pivot(m[3] - l10 * l10, m[3]);
    if (l11 == 0.0) continue;
    const double l21 = (m[4] - l20 * l10) / l11;
    const double l22 = pivot(m[5] - l20 * l20 - l21 * l21, m[5]);
    if (l22 == 0.0) continue;
    const double y0 = b[0] / l00;
    const double y1 = (b[1] - l10 * y0) / l11;
    const double y2 = (b[2] - l20 * y0 - l21 * y1) / l22;
    d[2] = y2 / l22;
    d[1] = (y1 - l21 * d[2]) / l11;
    d[0] = (y0 - l10 * d[1] - l20 * d[2]) / l00;
    if (std::isfinite(d[0]) && std::isfinite(d[1]) && std::isfinite(d[2])) {
      return true;
    }
  }
  return false;
}

ScalarResult bisect_root(const std::function<double(double)>& f, double lo,
                         double hi, double tolerance,
                         std::size_t max_iterations) {
  ScalarResult result;
  double flo = f(lo);
  const double fhi = f(hi);
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
    if (fm == 0.0 || 0.5 * (hi - lo) < tolerance) {
      result.x = mid;
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
