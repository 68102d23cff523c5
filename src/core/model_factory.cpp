#include "core/model_factory.h"

#include "exec/pool.h"

#include "core/lesn_model.h"
#include "core/lvf2_model.h"
#include "core/lvf_model.h"
#include "core/lvfk_model.h"
#include "core/norm2_model.h"

namespace lvf2::core {

namespace {

template <typename Model>
std::unique_ptr<TimingModel> wrap(std::optional<Model> fitted) {
  if (!fitted) return nullptr;
  return std::make_unique<Model>(std::move(*fitted));
}

}  // namespace

std::unique_ptr<TimingModel> fit_model(ModelKind kind,
                                       std::span<const double> samples,
                                       const FitOptions& options) {
  switch (kind) {
    case ModelKind::kLvf:
      return wrap(LvfModel::fit(samples));
    case ModelKind::kNorm2:
      return wrap(Norm2Model::fit(samples, options));
    case ModelKind::kLesn:
      return wrap(LesnModel::fit(samples));
    case ModelKind::kLvf2:
      return wrap(Lvf2Model::fit(samples, options));
    case ModelKind::kLvfK:
      // Default extension order for the factory path; use
      // LvfKModel::fit directly to choose K.
      return wrap(LvfKModel::fit(samples, 3, options));
  }
  return nullptr;
}

std::unique_ptr<TimingModel> refit_model(ModelKind kind,
                                         const stats::GridPdf& pdf,
                                         const FitOptions& options) {
  if (pdf.empty()) return nullptr;
  stats::Moments moments;
  moments.count = pdf.size();
  moments.mean = pdf.mean();
  moments.stddev = pdf.stddev();
  moments.skewness = pdf.skewness();
  moments.kurtosis = pdf.kurtosis();
  if (!(moments.stddev > 0.0)) return nullptr;
  const auto data = [&] { return make_weighted_data(pdf, options); };
  switch (kind) {
    case ModelKind::kLvf:
      return std::make_unique<LvfModel>(LvfModel::from_moments(
          {moments.mean, moments.stddev, moments.skewness}));
    case ModelKind::kLesn:
      return wrap(LesnModel::fit_moments(moments, pdf.lo() > 0.0));
    case ModelKind::kNorm2:
      return wrap(Norm2Model::fit_weighted(data(), options));
    case ModelKind::kLvf2:
      return wrap(Lvf2Model::fit_weighted(data(), options));
    case ModelKind::kLvfK:
      return wrap(LvfKModel::fit_weighted(data(), 3, options));
  }
  return nullptr;
}

std::vector<std::unique_ptr<TimingModel>> fit_all_models(
    std::span<const double> samples, const FitOptions& options,
    const Lvf2Model* fitted_lvf2) {
  // The four fits are independent (each is a pure function of the
  // samples and options), so they fan out across the pool; slot
  // writes keep the kind ordering, making the result identical to a
  // serial run. Cuts the per-entry QoR attribution price ~4x.
  const auto kinds = all_model_kinds();
  return exec::parallel_map<std::unique_ptr<TimingModel>>(
      kinds.size(),
      [&](std::size_t i) -> std::unique_ptr<TimingModel> {
        if (fitted_lvf2 != nullptr && kinds[i] == ModelKind::kLvf2) {
          return std::make_unique<Lvf2Model>(*fitted_lvf2);
        }
        return fit_model(kinds[i], samples, options);
      });
}

}  // namespace lvf2::core
