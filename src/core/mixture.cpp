#include "core/mixture.h"

#include <algorithm>
#include <cmath>
#include <limits>

#include "core/em.h"
#include "simd/simd.h"
#include "stats/optimize.h"
#include "stats/special_functions.h"

namespace lvf2::core {

namespace {

// out[i] = sum_k w_k eval_k(x)[i], accumulated in component order.
template <class C, class Eval>
void weighted_sum(const std::vector<typename Mixture<C>::Component>& comps,
                  std::span<const double> x, std::span<double> out,
                  Eval eval) {
  const std::size_t n = x.size();
  std::fill_n(out.begin(), n, 0.0);
  std::vector<double> buf(n);
  for (const auto& c : comps) {
    eval(c.dist, x, std::span<double>(buf));
    for (std::size_t i = 0; i < n; ++i) out[i] += c.weight * buf[i];
  }
}

}  // namespace

template <class C>
double Mixture<C>::pdf(double x) const {
  double sum = 0.0;
  for (const Component& c : components_) sum += c.weight * c.dist.pdf(x);
  return sum;
}

template <class C>
double Mixture<C>::log_pdf(double x) const {
  double lse = -std::numeric_limits<double>::infinity();
  for (const Component& c : components_) {
    if (c.weight <= 0.0) continue;
    lse = stats::log_sum_exp(lse, std::log(c.weight) + c.dist.log_pdf(x));
  }
  return lse;
}

template <class C>
double Mixture<C>::cdf(double x) const {
  double sum = 0.0;
  for (const Component& c : components_) sum += c.weight * c.dist.cdf(x);
  return sum;
}

template <class C>
void Mixture<C>::pdf_batch(std::span<const double> x,
                           std::span<double> out) const {
  weighted_sum<C>(components_, x, out,
                  [](const C& d, auto in, auto o) { d.pdf(in, o); });
}

template <class C>
void Mixture<C>::cdf_batch(std::span<const double> x,
                           std::span<double> out) const {
  weighted_sum<C>(components_, x, out,
                  [](const C& d, auto in, auto o) { d.cdf(in, o); });
}

template <class C>
double Mixture<C>::quantile(double p) const {
  if (p <= 0.0) return -std::numeric_limits<double>::infinity();
  if (p >= 1.0) return std::numeric_limits<double>::infinity();
  double lo = std::numeric_limits<double>::infinity();
  double hi = -lo;
  for (const Component& c : components_) {
    lo = std::min(lo, c.dist.quantile(1e-12));
    hi = std::max(hi, c.dist.quantile(1.0 - 1e-12));
  }
  const auto f = [&](double x) { return cdf(x) - p; };
  return stats::bisect_root(f, lo, hi, 1e-13 * std::max(stddev(), 1e-30)).x;
}

template <class C>
double Mixture<C>::mean() const {
  double m = 0.0;
  for (const Component& c : components_) m += c.weight * c.dist.mean();
  return m;
}

template <class C>
double Mixture<C>::stddev() const {
  const double mu = mean();
  double var = 0.0;
  for (const Component& c : components_) {
    const double d = c.dist.mean() - mu;
    var += c.weight * (c.dist.variance() + d * d);
  }
  return std::sqrt(var);
}

template <class C>
double Mixture<C>::skewness() const {
  // Third central moment of a mixture from component central moments:
  //   m3 = sum_k w_k (m3_k + 3 d_k var_k + d_k^3),  d_k = mu_k - mu.
  const double mu = mean();
  double m2 = 0.0, m3 = 0.0;
  for (const Component& c : components_) {
    const double d = c.dist.mean() - mu;
    const double var = c.dist.variance();
    const double sk3 = c.dist.skewness() * var * c.dist.stddev();
    m2 += c.weight * (var + d * d);
    m3 += c.weight * (sk3 + 3.0 * d * var + d * d * d);
  }
  return (m2 > 0.0) ? m3 / (m2 * std::sqrt(m2)) : 0.0;
}

template <class C>
double Mixture<C>::sample(stats::Rng& rng) const {
  double u = rng.uniform();
  for (std::size_t k = components_.size() - 1; k > 0; --k) {
    if (u < components_[k].weight) return components_[k].dist.sample(rng);
    u -= components_[k].weight;
  }
  return components_.front().dist.sample(rng);
}

template <class C>
double Mixture<C>::e_step(const WeightedData& data,
                          std::vector<std::vector<double>>* resp) const {
  const std::size_t n = data.size();
  std::vector<double> log_w, lse(n);
  std::vector<std::vector<double>> lp;
  for (const Component& c : components_) {
    if (c.weight <= 0.0) continue;
    log_w.push_back(std::log(c.weight));
    lp.emplace_back(n);
    c.dist.log_pdf(data.x, lp.back());
  }
  const std::size_t k = lp.size();
  std::vector<std::vector<double>> scratch;
  if (resp == nullptr) resp = &scratch;
  resp->resize(k, std::vector<double>(n));
  if (k == 2) {
    simd::em_responsibilities(log_w[0], log_w[1], lp[0], lp[1], (*resp)[1],
                              lse);
  } else {
    for (std::size_t i = 0; i < n; ++i) {
      lse[i] = -std::numeric_limits<double>::infinity();
      for (std::size_t c = 0; c < k; ++c) {
        lp[c][i] += log_w[c];
        lse[i] = stats::log_sum_exp(lse[i], lp[c][i]);
      }
      for (std::size_t c = 1; c < k; ++c) {
        (*resp)[c][i] = std::exp(lp[c][i] - lse[i]);
      }
    }
  }
  double ll = 0.0;
  for (std::size_t i = 0; i < n; ++i) ll += data.w[i] * lse[i];
  return ll;
}

template class Mixture<stats::SkewNormal>;
template class Mixture<stats::Normal>;

}  // namespace lvf2::core
