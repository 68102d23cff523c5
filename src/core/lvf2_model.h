#pragma once
// LVF^2 — the paper's contribution (Section 3): a two-component
// weighted skew-normal mixture
//
//   f_LVF2(x | lambda, theta1, theta2) =
//       (1 - lambda) f_LVF(x | theta1) + lambda f_LVF(x | theta2)
//
// (paper Eq. 4), fitted by the mixture-EM engine of core/em.h with all
// three starts: K-means + method of moments (Section 3.2), plus the
// width and tail splits.
//
// Backward compatibility (Section 3.3 / Eq. 10): lambda == 0 makes
// LVF^2 collapse to the plain LVF skew-normal, and `from_lvf`
// constructs exactly that.

#include <optional>

#include "core/em.h"
#include "core/mixture.h"
#include "stats/skew_normal.h"

namespace lvf2::core {

/// Full LVF^2 parameter set in moment space, as stored in a Liberty
/// library: theta_i = (mean, stddev, skewness), plus the weight.
struct Lvf2Parameters {
  double lambda = 0.0;           ///< weight of the second component
  stats::SnMoments theta1;       ///< first skew-normal (LVF-compatible)
  stats::SnMoments theta2;       ///< second skew-normal
};

/// Two-component skew-normal mixture model: the named K <= 2
/// Liberty/paper API.
class Lvf2Model final : public PairModel<stats::SkewNormal, ModelKind::kLvf2> {
 public:
  using PairModel::PairModel;

  /// Backward compatibility (Eq. 10): an LVF^2 with lambda = 0 whose
  /// first component is the given LVF skew-normal.
  static Lvf2Model from_lvf(const stats::SkewNormal& lvf);

  /// Construction from Liberty moment-space parameters.
  static Lvf2Model from_parameters(const Lvf2Parameters& p);

  /// EM fit per paper Section 3.2, hardened by a graceful-degradation
  /// chain: non-finite samples are dropped and absurd outliers
  /// winsorized first; if EM cannot hold a mixture the fit falls back
  /// to a lambda = 0 single skew-normal (Eq. 10), then to a
  /// moment-matched point mass for constant data. Only an empty
  /// sample set returns nullopt. `report->degradation` (and the
  /// robust.downgrade.* counters) record which rung was used.
  static std::optional<Lvf2Model> fit(std::span<const double> samples,
                                      const FitOptions& options = {},
                                      EmReport* report = nullptr);

  /// EM fit directly on weighted observations (e.g. a tabulated
  /// density from block-based SSTA propagation — the family refit at
  /// each timing-graph node), by plain EM (EmSteps::kPlain).
  static std::optional<Lvf2Model> fit_weighted(const WeightedData& data,
                                               const FitOptions& options = {},
                                               EmReport* report = nullptr);

  /// Moment-space parameters for Liberty export.
  Lvf2Parameters parameters() const;

  /// True when the model is an LVF-compatible single skew-normal.
  bool is_pure_lvf() const { return lambda() == 0.0; }
};

}  // namespace lvf2::core
