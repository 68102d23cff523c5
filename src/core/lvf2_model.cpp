#include "core/lvf2_model.h"

namespace lvf2::core {

Lvf2Model Lvf2Model::from_lvf(const stats::SkewNormal& lvf) {
  return Lvf2Model(0.0, lvf, lvf);
}

Lvf2Model Lvf2Model::from_parameters(const Lvf2Parameters& p) {
  return Lvf2Model(p.lambda, stats::SkewNormal::from_moments(p.theta1),
                   stats::SkewNormal::from_moments(p.theta2));
}

Lvf2Parameters Lvf2Model::parameters() const {
  return Lvf2Parameters{lambda(), component1().to_moments(),
                        component2().to_moments()};
}

std::optional<Lvf2Model> Lvf2Model::fit(std::span<const double> samples,
                                        const FitOptions& options,
                                        EmReport* report) {
  return as_model<Lvf2Model>(fit_mixture<stats::SkewNormal>(
      samples, 2, kAllStarts, options, report));
}

std::optional<Lvf2Model> Lvf2Model::fit_weighted(const WeightedData& data,
                                                 const FitOptions& options,
                                                 EmReport* report) {
  return as_model<Lvf2Model>(
      fit_mixture<stats::SkewNormal>(data, 2, kAllStarts, options, report,
                                     EmSteps::kPlain));
}

}  // namespace lvf2::core
