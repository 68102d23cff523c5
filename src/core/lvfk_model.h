#pragma once
// LVF^k — the K-component generalization of LVF^2. Paper Section 3.3:
// "Although LVF^2 assumes only two Gaussian components, one can
// easily extend the library to support more components by following
// similar attribute naming conventions." This model implements that
// extension: a K-component skew-normal mixture
//
//   f(x) = sum_k w_k f_SN(x | theta_k),   sum_k w_k = 1,
//
// fitted by the same mixture-EM engine as LVF^2 (core/em.h). K = 1
// degenerates to LVF and K = 2 to LVF^2 — the same fit, start for
// start.

#include <optional>
#include <vector>

#include "core/em.h"
#include "core/mixture.h"
#include "stats/skew_normal.h"

namespace lvf2::core {

/// K-component skew-normal mixture.
class LvfKModel final
    : public MixtureModel<stats::SkewNormal, ModelKind::kLvfK> {
 public:
  /// Direct construction; weights are normalized to sum to 1 and
  /// components are sorted by ascending mean. Requires >= 1 component
  /// and positive total weight.
  explicit LvfKModel(std::vector<Component> components);

  /// EM fit with `k` components: the k-means start, plus the width
  /// and tail splits at K = 2. Hostile data walks the degradation
  /// chain of Lvf2Model::fit; only an empty sample set returns
  /// nullopt.
  static std::optional<LvfKModel> fit(std::span<const double> samples,
                                      std::size_t k,
                                      const FitOptions& options = {},
                                      EmReport* report = nullptr);

  /// EM fit on weighted observations (tabulated densities), by plain
  /// EM.
  static std::optional<LvfKModel> fit_weighted(const WeightedData& data,
                                               std::size_t k,
                                               const FitOptions& options = {},
                                               EmReport* report = nullptr);

  /// Bayesian information criterion for model-order selection:
  /// -2 logL + p ln(n) with p = 4K - 1 free parameters.
  double bic(const WeightedData& data) const;
};

}  // namespace lvf2::core
