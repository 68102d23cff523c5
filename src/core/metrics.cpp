#include "core/metrics.h"

#include <algorithm>
#include <cmath>
#include <stdexcept>
#include <vector>

#include "core/binning.h"
#include "core/model_factory.h"
#include "core/yield.h"
#include "obs/metrics.h"
#include "obs/trace.h"

namespace lvf2::core {

double cdf_rmse(const std::function<double(double)>& model_cdf,
                const stats::EmpiricalCdf& golden, std::size_t points,
                double eps) {
  if (golden.empty() || points == 0) {
    throw std::invalid_argument("cdf_rmse: empty input");
  }
  const double lo = golden.quantile(eps);
  const double hi = golden.quantile(1.0 - eps);
  const double step =
      (points > 1) ? (hi - lo) / static_cast<double>(points - 1) : 0.0;
  double sum = 0.0;
  for (std::size_t i = 0; i < points; ++i) {
    const double x = lo + step * static_cast<double>(i);
    const double d = model_cdf(x) - golden(x);
    sum += d * d;
  }
  return std::sqrt(sum / static_cast<double>(points));
}

double cdf_rmse(const TimingModel& model, const stats::EmpiricalCdf& golden,
                std::size_t points, double eps) {
  if (golden.empty() || points == 0) {
    throw std::invalid_argument("cdf_rmse: empty input");
  }
  const double lo = golden.quantile(eps);
  const double hi = golden.quantile(1.0 - eps);
  const double step =
      (points > 1) ? (hi - lo) / static_cast<double>(points - 1) : 0.0;
  std::vector<double> xs(points);
  for (std::size_t i = 0; i < points; ++i) {
    xs[i] = lo + step * static_cast<double>(i);
  }
  std::vector<double> model_cdf(points);
  model.cdf_batch(xs, model_cdf);
  double sum = 0.0;
  for (std::size_t i = 0; i < points; ++i) {
    const double d = model_cdf[i] - golden(xs[i]);
    sum += d * d;
  }
  return std::sqrt(sum / static_cast<double>(points));
}

double ks_distance(const std::function<double(double)>& model_cdf,
                   const stats::EmpiricalCdf& golden) {
  const auto& xs = golden.sorted_samples();
  const double n = static_cast<double>(xs.size());
  double sup = 0.0;
  for (std::size_t i = 0; i < xs.size(); ++i) {
    const double m = model_cdf(xs[i]);
    const double lo = static_cast<double>(i) / n;
    const double hi = static_cast<double>(i + 1) / n;
    sup = std::max({sup, std::fabs(m - lo), std::fabs(m - hi)});
  }
  return sup;
}

const TimingModel* ModelEvaluation::model(ModelKind kind) const {
  for (const auto& m : models) {
    if (m && m->kind() == kind) return m.get();
  }
  return nullptr;
}

namespace {

std::size_t index_of(ModelKind kind) {
  const auto kinds = all_model_kinds();
  for (std::size_t i = 0; i < kinds.size(); ++i) {
    if (kinds[i] == kind) return i;
  }
  throw std::logic_error("unknown ModelKind");
}

}  // namespace

const ModelErrors& ModelEvaluation::errors_of(ModelKind kind) const {
  return errors[index_of(kind)];
}

const ModelErrorReduction& ModelEvaluation::reduction_of(
    ModelKind kind) const {
  return reductions[index_of(kind)];
}

ModelEvaluation evaluate_models(std::span<const double> samples,
                                const FitOptions& options,
                                const Lvf2Model* fitted_lvf2) {
  obs::TraceSpan span("qor.evaluate");
  ModelEvaluation eval;
  eval.golden_moments = stats::compute_moments(samples);
  eval.models = fit_all_models(samples, options, fitted_lvf2);

  const stats::EmpiricalCdf golden(samples);
  const std::vector<double> boundaries = sigma_bin_boundaries(
      eval.golden_moments.mean, eval.golden_moments.stddev);
  const std::vector<double> golden_bins =
      bin_probabilities(golden, boundaries);

  const auto kinds = all_model_kinds();
  for (std::size_t i = 0; i < kinds.size(); ++i) {
    const TimingModel* m = eval.models[i].get();
    if (m == nullptr) continue;
    const std::vector<double> model_bins =
        bin_probabilities(*m, boundaries);
    eval.errors[i].binning = binning_error(model_bins, golden_bins);
    eval.errors[i].yield_3sigma = three_sigma_yield_error(*m, golden);
    eval.errors[i].cdf_rmse = cdf_rmse(*m, golden);
  }

  const ModelErrors& base = eval.errors_of(ModelKind::kLvf);
  const std::size_t count = eval.golden_moments.count;
  for (std::size_t i = 0; i < kinds.size(); ++i) {
    eval.reductions[i].binning = error_reduction(
        base.binning, eval.errors[i].binning, binning_error_floor(count));
    eval.reductions[i].yield_3sigma =
        error_reduction(base.yield_3sigma, eval.errors[i].yield_3sigma,
                        yield_error_floor(count));
    eval.reductions[i].cdf_rmse = error_reduction(
        base.cdf_rmse, eval.errors[i].cdf_rmse, cdf_rmse_floor(count));
  }

  // QoR attribution: the paper's headline metrics (for the LVF2
  // model) always land in the registry histograms, so any run of
  // evaluations yields an accuracy distribution next to the em.*
  // fit-health instruments. Same always-on policy as the counters.
  static obs::Histogram& h_rmse = obs::histogram(
      "qor.cdf_rmse", {1e-4, 3e-4, 1e-3, 3e-3, 0.01, 0.03, 0.1});
  static obs::Histogram& h_binning = obs::histogram(
      "qor.binning_err", {1e-4, 3e-4, 1e-3, 3e-3, 0.01, 0.03, 0.1});
  static obs::Histogram& h_yield = obs::histogram(
      "qor.yield_err", {1e-5, 1e-4, 1e-3, 0.01, 0.1});
  const ModelErrors& lvf2 = eval.errors_of(ModelKind::kLvf2);
  h_rmse.observe(lvf2.cdf_rmse);
  h_binning.observe(lvf2.binning);
  h_yield.observe(lvf2.yield_3sigma);
  return eval;
}

obs::ArcQor to_arc_qor(const ModelEvaluation& eval) {
  obs::ArcQor row;
  row.golden_mean = eval.golden_moments.mean;
  row.golden_stddev = eval.golden_moments.stddev;
  row.golden_skewness = eval.golden_moments.skewness;
  const auto kinds = all_model_kinds();
  row.models.reserve(kinds.size());
  for (std::size_t i = 0; i < kinds.size(); ++i) {
    obs::ModelQor m;
    m.model = to_string(kinds[i]);
    m.binning = eval.errors[i].binning;
    m.yield_3sigma = eval.errors[i].yield_3sigma;
    m.cdf_rmse = eval.errors[i].cdf_rmse;
    m.x_binning = eval.reductions[i].binning;
    m.x_yield_3sigma = eval.reductions[i].yield_3sigma;
    m.x_cdf_rmse = eval.reductions[i].cdf_rmse;
    row.models.push_back(std::move(m));
  }
  return row;
}

}  // namespace lvf2::core
