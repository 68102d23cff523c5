#include "core/norm2_model.h"

namespace lvf2::core {

namespace {

// The ref-[10] baseline initializes from k-means only; the split
// starts are LVF^2's (DESIGN.md decision 23).
constexpr EmStart kStarts[] = {EmStart::kKMeans};

}  // namespace

std::optional<Norm2Model> Norm2Model::fit(std::span<const double> samples,
                                          const FitOptions& options,
                                          EmReport* report) {
  return as_model<Norm2Model>(
      fit_mixture<stats::Normal>(samples, 2, kStarts, options, report));
}

std::optional<Norm2Model> Norm2Model::fit_weighted(const WeightedData& data,
                                                   const FitOptions& options,
                                                   EmReport* report) {
  return as_model<Norm2Model>(
      fit_mixture<stats::Normal>(data, 2, kStarts, options, report,
                                 EmSteps::kPlain));
}

}  // namespace lvf2::core
