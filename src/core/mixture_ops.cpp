#include "core/mixture_ops.h"

#include <algorithm>
#include <cmath>
#include <limits>

#include "core/lvfk_model.h"

namespace lvf2::core {

namespace {

// (mean, variance, third central moment) of a skew-normal.
struct M3 {
  double mean;
  double var;
  double m3;
};

M3 moments_of(const stats::SkewNormal& sn) {
  const double var = sn.variance();
  return M3{sn.mean(), var, sn.skewness() * var * std::sqrt(var)};
}

stats::SkewNormal from_m3(const M3& m) {
  const double sd = std::sqrt(std::max(m.var, 1e-300));
  const double skew = m.m3 / (m.var * sd);
  return stats::SkewNormal::from_moments(m.mean, sd, skew);
}

}  // namespace

stats::SkewNormal convolve_skew_normals(const stats::SkewNormal& x,
                                        const stats::SkewNormal& y) {
  const M3 a = moments_of(x);
  const M3 b = moments_of(y);
  // Cumulants (= central moments through order 3) are additive for
  // independent sums.
  return from_m3(M3{a.mean + b.mean, a.var + b.var, a.m3 + b.m3});
}

stats::SkewNormal merge_skew_normals(double w1, const stats::SkewNormal& a,
                                     double w2, const stats::SkewNormal& b) {
  const double total = w1 + w2;
  const double p = (total > 0.0) ? w1 / total : 0.5;
  const double q = 1.0 - p;
  const M3 ma = moments_of(a);
  const M3 mb = moments_of(b);
  const double mean = p * ma.mean + q * mb.mean;
  const double da = ma.mean - mean;
  const double db = mb.mean - mean;
  const double var = p * (ma.var + da * da) + q * (mb.var + db * db);
  const double m3 = p * (ma.m3 + 3.0 * da * ma.var + da * da * da) +
                    q * (mb.m3 + 3.0 * db * mb.var + db * db * db);
  return from_m3(M3{mean, var, m3});
}

SnMixture reduce_mixture(const SnMixture& model,
                         std::size_t max_components) {
  std::vector<SnMixture::Component> comps = model.components();
  if (max_components == 0) max_components = 1;
  while (comps.size() > max_components) {
    // Find the pair with the smallest moment-space distance,
    // weighted so that merging light components is preferred.
    double best = std::numeric_limits<double>::infinity();
    std::size_t bi = 0, bj = 1;
    const double scale = std::max(model.stddev(), 1e-300);
    for (std::size_t i = 0; i < comps.size(); ++i) {
      for (std::size_t j = i + 1; j < comps.size(); ++j) {
        const double dmu =
            (comps[i].dist.mean() - comps[j].dist.mean()) / scale;
        const double dsd =
            (comps[i].dist.stddev() - comps[j].dist.stddev()) / scale;
        const double w = comps[i].weight * comps[j].weight /
                         (comps[i].weight + comps[j].weight);
        const double cost = w * (dmu * dmu + dsd * dsd);
        if (cost < best) {
          best = cost;
          bi = i;
          bj = j;
        }
      }
    }
    const SnMixture::Component merged{
        comps[bi].weight + comps[bj].weight,
        merge_skew_normals(comps[bi].weight, comps[bi].dist,
                           comps[bj].weight, comps[bj].dist)};
    comps.erase(comps.begin() + static_cast<std::ptrdiff_t>(bj));
    comps[bi] = merged;
  }
  return LvfKModel(std::move(comps)).mixture();
}

SnMixture convolve_mixtures(const SnMixture& x, const SnMixture& y,
                            std::size_t max_components) {
  std::vector<SnMixture::Component> comps;
  comps.reserve(x.size() * y.size());
  for (const auto& a : x.components()) {
    for (const auto& b : y.components()) {
      if (a.weight > 0.0 && b.weight > 0.0) {
        comps.push_back(
            {a.weight * b.weight, convolve_skew_normals(a.dist, b.dist)});
      }
    }
  }
  return reduce_mixture(LvfKModel(std::move(comps)).mixture(),
                        max_components);
}

Lvf2Model convolve_lvf2(const Lvf2Model& x, const Lvf2Model& y) {
  return Lvf2Model(convolve_mixtures(x.mixture(), y.mixture(), 2).components());
}

}  // namespace lvf2::core
