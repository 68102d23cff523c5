#pragma once
// Norm^2 baseline (paper ref. [10], Takahashi et al. DAC'09): a
// two-component Gaussian mixture
//   f(x) = (1 - lambda) N(x | mu1, sigma1) + lambda N(x | mu2, sigma2)
// fitted by the mixture-EM engine of core/em.h with the closed-form
// Normal M-step and only the k-means start of the reference method.
// Unlike LVF^2 it ignores the skewness of the components.

#include <optional>

#include "core/em.h"
#include "core/mixture.h"
#include "stats/normal.h"

namespace lvf2::core {

/// Two-component Gaussian mixture model.
class Norm2Model final : public PairModel<stats::Normal, ModelKind::kNorm2> {
 public:
  using PairModel::PairModel;

  /// EM fit (k-means start, closed-form M-step) behind the same
  /// degradation chain as Lvf2Model::fit; only an empty sample set
  /// returns nullopt. `report`, when non-null, receives diagnostics.
  static std::optional<Norm2Model> fit(std::span<const double> samples,
                                       const FitOptions& options = {},
                                       EmReport* report = nullptr);

  /// EM fit directly on weighted observations (e.g. a tabulated
  /// density from block-based SSTA propagation), by plain EM.
  static std::optional<Norm2Model> fit_weighted(const WeightedData& data,
                                                const FitOptions& options = {},
                                                EmReport* report = nullptr);
};

}  // namespace lvf2::core
