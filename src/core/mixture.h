#pragma once
// Mixture<Component> — the finite-mixture value type behind every
// mixture timing model (LVF^2, Norm^2, LVF^k):
//
//   f(x) = sum_k w_k f_k(x)
//
// Weights are stored exactly as given: no normalization, no sorting.
// That keeps a two-component model built from (1 - lambda, lambda)
// bit-identical to the paper's Eq. 4 evaluation. MixtureModel makes a
// mixture a TimingModel; the named models derive from it and add only
// their construction and fitting API.

#include <optional>
#include <span>
#include <stdexcept>
#include <string>
#include <vector>

#include "core/timing_model.h"
#include "stats/normal.h"
#include "stats/rng.h"
#include "stats/skew_normal.h"

namespace lvf2::core {

struct WeightedData;

template <class C>
class Mixture {
 public:
  /// One weighted component.
  struct Component {
    double weight = 1.0;
    C dist;
  };

  Mixture() = default;
  explicit Mixture(std::vector<Component> components)
      : components_(std::move(components)) {}

  const std::vector<Component>& components() const { return components_; }
  std::size_t size() const { return components_.size(); }

  double pdf(double x) const;
  /// Skips zero-weight components.
  double log_pdf(double x) const;
  double cdf(double x) const;
  /// Batch forms accumulate in component order, matching pdf()/cdf()
  /// bitwise on the scalar tier.
  void pdf_batch(std::span<const double> x, std::span<double> out) const;
  void cdf_batch(std::span<const double> x, std::span<double> out) const;
  double quantile(double p) const;
  double mean() const;
  double stddev() const;
  double skewness() const;
  /// Walks from the last component, so for two components u < w_2
  /// draws the second one (the paper's lambda convention).
  double sample(stats::Rng& rng) const;
  /// The E-step (paper Eq. 6) over the positive-weight components:
  /// returns the weighted log-likelihood (Eq. 5) and, given `resp`,
  /// fills resp[k][i] with the posterior of component k >= 1 (the
  /// first one's share is the remainder). Two components combine
  /// through simd::em_responsibilities, more by a sequential
  /// log_sum_exp; the reduction over points stays sequential.
  double e_step(const WeightedData& data,
                std::vector<std::vector<double>>* resp = nullptr) const;
  double log_likelihood(const WeightedData& data) const {
    return e_step(data);
  }

 private:
  std::vector<Component> components_;
};

using SnMixture = Mixture<stats::SkewNormal>;
using NormalMixture = Mixture<stats::Normal>;

/// A Mixture<C> as a TimingModel of the given kind.
template <class C, ModelKind Kind>
class MixtureModel : public TimingModel, public Mixture<C> {
 public:
  using Mixture<C>::Mixture;

  const Mixture<C>& mixture() const { return *this; }
  std::size_t component_count() const { return this->size(); }

  ModelKind kind() const override { return Kind; }
  double pdf(double x) const override { return Mixture<C>::pdf(x); }
  double cdf(double x) const override { return Mixture<C>::cdf(x); }
  void pdf_batch(std::span<const double> x,
                 std::span<double> out) const override {
    Mixture<C>::pdf_batch(x, out);
  }
  void cdf_batch(std::span<const double> x,
                 std::span<double> out) const override {
    Mixture<C>::cdf_batch(x, out);
  }
  double quantile(double p) const override {
    return Mixture<C>::quantile(p);
  }
  double mean() const override { return Mixture<C>::mean(); }
  double stddev() const override { return Mixture<C>::stddev(); }
  double sample(stats::Rng& rng) const override {
    return Mixture<C>::sample(rng);
  }
};

/// The paper's two-component form (Eq. 4): weights (1 - lambda,
/// lambda), so the first weight is always bitwise 1 - lambda.
template <class C, ModelKind Kind>
class PairModel : public MixtureModel<C, Kind> {
 public:
  using Component = typename Mixture<C>::Component;

  /// `lambda` in [0,1] weights `second`.
  PairModel(double lambda, const C& first, const C& second)
      : MixtureModel<C, Kind>(
            std::vector<Component>{{1.0 - lambda, first}, {lambda, second}}) {
    if (!(lambda >= 0.0 && lambda <= 1.0)) {
      throw std::invalid_argument(to_string(Kind) +
                                  ": lambda must be in [0,1]");
    }
  }
  /// From one or two components (an EM result); one is lambda = 0.
  explicit PairModel(const std::vector<Component>& c)
      : PairModel(c.size() > 1 ? c[1].weight : 0.0, c.front().dist,
                  c.back().dist) {}

  double lambda() const { return this->components()[1].weight; }
  const C& component1() const { return this->components()[0].dist; }
  const C& component2() const { return this->components()[1].dist; }
};

/// A fit result as a named model.
template <class Model, class C>
std::optional<Model> as_model(const std::optional<Mixture<C>>& fit) {
  if (!fit) return std::nullopt;
  return Model(fit->components());
}

}  // namespace lvf2::core
