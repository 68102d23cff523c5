#pragma once
// Unified entry point: fit any of the four compared models to a
// sample set and get it back behind the TimingModel interface.

#include <memory>
#include <span>
#include <vector>

#include "core/timing_model.h"

namespace lvf2::core {

/// Fits the model of the requested kind. Returns nullptr for
/// degenerate data (empty / constant sample sets).
std::unique_ptr<TimingModel> fit_model(ModelKind kind,
                                       std::span<const double> samples,
                                       const FitOptions& options = {});

class Lvf2Model;

/// Fits all four models (paper order: LVF2, Norm2, LESN, LVF).
/// Entries for models that failed to fit are nullptr. A non-null
/// `fitted_lvf2` (already fitted to `samples` with `options`) fills
/// the LVF2 slot in place of a second, identical fit.
std::vector<std::unique_ptr<TimingModel>> fit_all_models(
    std::span<const double> samples, const FitOptions& options = {},
    const Lvf2Model* fitted_lvf2 = nullptr);

/// Refits a model family to a tabulated distribution — the node
/// refit of block-based SSTA, which maintains each model's
/// parametric form along propagation. Moments-based families (LVF,
/// LESN) match the grid moments; the mixtures run weighted EM over
/// the grid.
std::unique_ptr<TimingModel> refit_model(ModelKind kind,
                                         const stats::GridPdf& pdf,
                                         const FitOptions& options = {});

}  // namespace lvf2::core
