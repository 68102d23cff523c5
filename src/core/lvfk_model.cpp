#include "core/lvfk_model.h"

#include <algorithm>
#include <cmath>
#include <stdexcept>

namespace lvf2::core {

namespace {

std::vector<SnMixture::Component> normalized(
    std::vector<SnMixture::Component> components) {
  if (components.empty()) {
    throw std::invalid_argument("LvfKModel: need at least one component");
  }
  double total = 0.0;
  for (const auto& c : components) {
    if (!(c.weight >= 0.0)) {
      throw std::invalid_argument("LvfKModel: negative component weight");
    }
    total += c.weight;
  }
  if (!(total > 0.0)) {
    throw std::invalid_argument("LvfKModel: zero total weight");
  }
  for (auto& c : components) c.weight /= total;
  std::stable_sort(components.begin(), components.end(),
                   [](const auto& a, const auto& b) {
                     return a.dist.mean() < b.dist.mean();
                   });
  return components;
}

}  // namespace

LvfKModel::LvfKModel(std::vector<Component> components)
    : MixtureModel(normalized(std::move(components))) {}

std::optional<LvfKModel> LvfKModel::fit(std::span<const double> samples,
                                        std::size_t k,
                                        const FitOptions& options,
                                        EmReport* report) {
  return as_model<LvfKModel>(fit_mixture<stats::SkewNormal>(
      samples, k, kAllStarts, options, report));
}

std::optional<LvfKModel> LvfKModel::fit_weighted(const WeightedData& data,
                                                 std::size_t k,
                                                 const FitOptions& options,
                                                 EmReport* report) {
  return as_model<LvfKModel>(
      fit_mixture<stats::SkewNormal>(data, k, kAllStarts, options, report,
                                     EmSteps::kPlain));
}

double LvfKModel::bic(const WeightedData& data) const {
  const double p = 4.0 * static_cast<double>(component_count()) - 1.0;
  return -2.0 * log_likelihood(data) +
         p * std::log(std::max(data.total_weight, 1.0));
}

}  // namespace lvf2::core
