#pragma once
// The one EM engine behind every mixture model (LVF^2, Norm^2, LVF^k)
// and its binned-likelihood data. The paper's recipe (Section 3.2):
// k-means + method-of-moments start, E-step responsibilities (Eq. 6),
// weighted-MLE M-step (Eq. 7-9). A component family (em.cpp) supplies
// only its start and M-step on top of the component's batched log-pdf,
// from_moments and affine rescale; the engine owns everything else
// (DESIGN.md decision 23).

#include <cstddef>
#include <optional>
#include <span>
#include <vector>

#include "core/mixture.h"
#include "core/timing_model.h"

namespace lvf2::core {

/// Weighted observation set. For raw fits, weights are all 1; for
/// binned-likelihood fits, x are bin centers and w are occupancies.
/// Binning is an O(n) compression that leaves the likelihood surface
/// unchanged at the bin resolution — see DESIGN.md decision 1.
struct WeightedData {
  std::vector<double> x;
  std::vector<double> w;
  double total_weight = 0.0;

  std::size_t size() const { return x.size(); }
  void add(double xi, double wi) {
    x.push_back(xi);
    w.push_back(wi);
    total_weight += wi;
  }
};

/// Compresses `samples` per `options.likelihood_bins` (0 keeps raw
/// samples with unit weights). Bins with zero occupancy are dropped.
WeightedData make_weighted_data(std::span<const double> samples,
                                const FitOptions& options);

/// Weighted data from a tabulated density: grid points weighted by
/// density * step, binned like the sample overload: negligible tails
/// trimmed, then runs of points merged at their weighted centroids
/// (DESIGN.md decision 1). Used to refit a model family to a
/// propagated (convolved) distribution in block-based SSTA.
WeightedData make_weighted_data(const stats::GridPdf& pdf,
                                const FitOptions& options);

/// How far down the graceful-degradation chain a fit had to walk:
///   validated samples -> mixture EM -> single component ->
///   moment-matched point mass.
/// Every downgrade is also counted under a robust.downgrade.* metric.
enum class FitDegradation : int {
  kNone = 0,       ///< full mixture fit
  kSingleSn,       ///< one moment-matched component (for LVF^2 the
                   ///< lambda = 0 skew-normal of paper Eq. 10)
  kMomentNormal,   ///< moment-matched point mass (last rung)
  kRejected,       ///< nothing fittable at all (fit returned nullopt)
};

/// Stable short name ("none", "single_sn", "moment_normal",
/// "rejected") — used for counter names and logs.
const char* to_string(FitDegradation degradation);

/// Convergence report of an EM run.
struct EmReport {
  std::size_t iterations = 0;
  double log_likelihood = 0.0;
  bool converged = false;
  bool collapsed = false;   ///< a component degenerated; fit fell back
  bool oscillated = false;  ///< log-likelihood decreased repeatedly
                            ///< (numerical pathology; treated as collapse)
  std::size_t dropped_samples = 0;  ///< non-finite samples removed
  std::size_t clipped_samples = 0;  ///< outlier samples winsorized
  FitDegradation degradation = FitDegradation::kNone;
};

/// EM starts (DESIGN.md decision 7); the splits apply at K = 2 only.
enum class EmStart {
  kKMeans,      ///< k-means clusters + per-cluster moments (Sec. 3.2)
  kWidthSplit,  ///< same-center narrow/wide pair (scale mixtures)
  kTailSplit,   ///< bulk vs upper 15 % tail (low-weight minority modes)
};
inline constexpr EmStart kAllStarts[] = {
    EmStart::kKMeans, EmStart::kWidthSplit, EmStart::kTailSplit};

/// One EM run. report.collapsed marks a run that failed (a weight
/// below 1e-6, a failed M-step, a non-finite or oscillating
/// likelihood); its mixture is then empty.
template <class C>
struct EmRun {
  Mixture<C> mixture;
  EmReport report;
};

/// How run_em steps (DESIGN.md decision 26).
enum class EmSteps {
  /// SQUAREM: two EM maps, then one squared-extrapolation step in
  /// unconstrained coordinates, kept only if it is at least as likely
  /// as the first map's point. The skew-normal M-step is generalized:
  /// its Newton iteration stops after a step that moves the component
  /// by less than 1 % (one step near convergence).
  kAccelerated,
  /// Plain EM with the M-step's Newton iteration run to convergence.
  /// Grid refits use it: on a smooth convolved density the likelihood
  /// has flat ridges along which an accelerated run's stopping point
  /// depends on the rebinning (RefitModel.RebinnedMatchesFullGrid).
  kPlain,
};

/// EM from `start` for at most options.em_max_iterations iterations
/// (every E-step counts, an extrapolated one too): the single loop
/// every fit runs. It stops when consecutive iterates (SQUAREM cycle
/// starts; every E-step of plain EM) differ by at most
/// options.em_tolerance relative log-likelihood. report.log_likelihood
/// is that of the last kept E-step, i.e. of the parameters before the
/// last M-step, and never decreases with the iteration cap.
template <class C>
EmRun<C> run_em(const WeightedData& data, const Mixture<C>& start,
                const FitOptions& options,
                EmSteps steps = EmSteps::kAccelerated);

/// K-component fit from `starts` (in tie-breaking order; staged
/// multi-start when two or more apply), with ascending-mean order,
/// moment pinning and the single-component likelihood guard.
/// Degenerate data walks the degradation chain; only empty or
/// non-finite data returns nullopt. K = 1 is the moment fit.
template <class C>
std::optional<Mixture<C>> fit_mixture(const WeightedData& data,
                                      std::size_t k,
                                      std::span<const EmStart> starts,
                                      const FitOptions& options,
                                      EmReport* report, EmSteps steps);

/// Raw-sample form: drops non-finite samples and winsorizes absurd
/// outliers first, then bins per `options` and runs accelerated EM.
template <class C>
std::optional<Mixture<C>> fit_mixture(std::span<const double> samples,
                                      std::size_t k,
                                      std::span<const EmStart> starts,
                                      const FitOptions& options,
                                      EmReport* report);

}  // namespace lvf2::core
