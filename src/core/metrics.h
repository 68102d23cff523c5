#pragma once
// Evaluation metrics (paper Section 4): binning error, 3-sigma yield
// error and CDF RMSE, each normalized as error reduction against the
// LVF baseline (Eq. 12). `ModelEvaluation` bundles a full assessment
// of the four models against one golden sample set — every table and
// figure bench in bench/ is built on it.

#include <array>
#include <functional>
#include <memory>
#include <optional>
#include <span>
#include <vector>

#include "core/timing_model.h"
#include "obs/manifest.h"
#include "stats/descriptive.h"

namespace lvf2::core {

class Lvf2Model;

/// Root-mean-square error between a model CDF and the golden
/// empirical CDF, evaluated on `points` uniformly spaced points over
/// the central golden range [q(eps), q(1-eps)].
double cdf_rmse(const std::function<double(double)>& model_cdf,
                const stats::EmpiricalCdf& golden, std::size_t points = 256,
                double eps = 1e-4);

/// Batch variant: evaluates the model CDF over the whole grid with
/// one cdf_batch pass; the sum of squares stays sequential, so the
/// result matches the functional overload bitwise on the scalar
/// kernel tier.
double cdf_rmse(const TimingModel& model, const stats::EmpiricalCdf& golden,
                std::size_t points = 256, double eps = 1e-4);

/// Kolmogorov-Smirnov distance between a model CDF and the golden
/// empirical CDF (sup over golden sample points).
double ks_distance(const std::function<double(double)>& model_cdf,
                   const stats::EmpiricalCdf& golden);

/// Raw error metrics of one model against one golden sample set.
struct ModelErrors {
  double binning = 0.0;
  double yield_3sigma = 0.0;
  double cdf_rmse = 0.0;
};

/// Error-reduction multiples of one model (vs the LVF baseline).
struct ModelErrorReduction {
  double binning = 1.0;
  double yield_3sigma = 1.0;
  double cdf_rmse = 1.0;
};

/// Full four-model assessment of one golden distribution.
struct ModelEvaluation {
  /// Models in `all_model_kinds()` order (LVF2, Norm2, LESN, LVF).
  std::vector<std::unique_ptr<TimingModel>> models;
  std::array<ModelErrors, 4> errors{};
  std::array<ModelErrorReduction, 4> reductions{};
  stats::Moments golden_moments;

  const TimingModel* model(ModelKind kind) const;
  const ModelErrors& errors_of(ModelKind kind) const;
  const ModelErrorReduction& reduction_of(ModelKind kind) const;
};

/// Fits all four models to `samples` and computes every metric and
/// its error reduction vs LVF. A non-null `fitted_lvf2` is the LVF2
/// model the caller already fitted to `samples` with `options`; it is
/// assessed instead of a refit (fit_all_models). Every evaluation
/// also streams the LVF2 raw errors into the qor.cdf_rmse /
/// qor.binning_err / qor.yield_err histograms of the process metrics
/// registry.
ModelEvaluation evaluate_models(std::span<const double> samples,
                                const FitOptions& options = {},
                                const Lvf2Model* fitted_lvf2 = nullptr);

/// Converts an evaluation into a run-manifest QoR row: golden
/// moments plus the four models' raw errors and error-reduction
/// multiples. Identity fields (table / cell / arc / grid indices)
/// and the EM report are the caller's to fill — they carry the
/// attribution context this layer does not have.
obs::ArcQor to_arc_qor(const ModelEvaluation& eval);

}  // namespace lvf2::core
