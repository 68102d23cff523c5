#pragma once
// Common interface of the statistical timing models compared in the
// paper: LVF (single skew-normal, the industry baseline), Norm^2
// (two-component Gaussian mixture, ref. [10]), LESN (log-extended-
// skew-normal, ref. [7]) and LVF^2 (two-component skew-normal
// mixture, the paper's contribution).

#include <memory>
#include <span>
#include <string>

#include "stats/grid_pdf.h"
#include "stats/rng.h"

namespace lvf2::core {

/// Identifies a timing model family. The first four are the paper's
/// compared models; kLvfK is the K-component extension of Section 3.3.
enum class ModelKind {
  kLvf,    ///< single skew-normal (industry baseline)
  kNorm2,  ///< two-component Gaussian mixture
  kLesn,   ///< log-extended-skew-normal (kurtosis matching)
  kLvf2,   ///< two-component skew-normal mixture (this paper)
  kLvfK,   ///< K-component skew-normal mixture (Section 3.3 extension)
};

/// Short display name ("LVF", "Norm2", "LESN", "LVF2", "LVFk").
std::string to_string(ModelKind kind);

/// The paper's four compared kinds in table order
/// (LVF2, Norm2, LESN, LVF).
std::span<const ModelKind> all_model_kinds();

/// Options shared by the model fitting routines.
struct FitOptions {
  /// Samples are compressed into this many equal-width bins before
  /// likelihood fitting (binned-likelihood EM). 0 fits raw samples.
  std::size_t likelihood_bins = 512;
  /// EM iteration cap (mixture models). Every E-step counts, the one
  /// evaluating an extrapolated point too.
  std::size_t em_max_iterations = 80;
  /// Relative log-likelihood improvement below which EM stops,
  /// measured between consecutive iterates of the accelerated
  /// sequence (SQUAREM cycle starts; every E-step for plain EM). Plain
  /// EM on the binned likelihood converges only linearly (rate ~0.95
  /// on overlapping mixtures); the squared extrapolation carries a
  /// cycle along those slow directions, so a cycle's gain stays above
  /// this tolerance until the extrapolation stops paying too. Sample
  /// fits stop at a higher likelihood than plain EM did, at fewer
  /// iterations (DESIGN.md decision 26). A tighter stop does buy QoR
  /// (ROADMAP O22's probe, with full-data bursts): at 1e-7, Table 1
  /// over seeds 1-30 lost 34 instead of 53 of its 150 rows, for ~16 %
  /// more LVF^2 fit time. The rule is relative to |ll|, so it also
  /// depends on the time unit (O23).
  double em_tolerance = 1e-6;
  /// Seed for k-means initialization (deterministic fits).
  std::uint64_t seed = 0x5eed;
};

/// A fitted univariate timing distribution model.
class TimingModel {
 public:
  virtual ~TimingModel() = default;

  virtual ModelKind kind() const = 0;
  std::string name() const { return to_string(kind()); }

  virtual double pdf(double x) const = 0;
  virtual double cdf(double x) const = 0;
  virtual double quantile(double p) const = 0;
  virtual double mean() const = 0;
  virtual double stddev() const = 0;
  virtual double sample(stats::Rng& rng) const = 0;

  /// Batch evaluation: out[i] = pdf(x[i]) / cdf(x[i]) for i <
  /// x.size() (out.size() must be >= x.size()). The base
  /// implementations loop per sample; concrete models override them
  /// with the dispatch-selected batch kernels (simd.h), which on the
  /// scalar tier reproduce the per-sample results bitwise.
  virtual void pdf_batch(std::span<const double> x,
                         std::span<double> out) const;
  virtual void cdf_batch(std::span<const double> x,
                         std::span<double> out) const;

  /// Tabulates the model on a uniform grid covering
  /// mean +/- span_sigmas * stddev, for SSTA propagation. The grid is
  /// filled with one pdf_batch pass.
  stats::GridPdf to_grid(std::size_t points = 1024,
                         double span_sigmas = 8.0) const;
};

}  // namespace lvf2::core
