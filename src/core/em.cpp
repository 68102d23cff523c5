#include "core/em.h"

#include <algorithm>
#include <cmath>
#include <iterator>
#include <limits>
#include <numeric>
#include <string>

#include "core/cancel.h"
#include "obs/obs.h"
#include "robust/faults.h"
#include "stats/descriptive.h"
#include "stats/grid_pdf.h"
#include "stats/kmeans.h"

namespace lvf2::core {

namespace {

constexpr double kWeightFloor = 1e-6;
// The accelerated loop's skew-normal M-step stops after a Newton step
// that moved the component by less than 1 % (of omega, or of
// max(|alpha|, 1)): near convergence that is one step, two fused
// passes instead of ~5 (DESIGN.md decision 26).
constexpr double kGeneralizedMove = 1e-2;

// A component family: its k-means start (from a cluster's weights) and
// its M-step. Log-pdf, from-moments and the affine rescale come from
// the component type.
template <class C>
struct Family;

template <>
struct Family<stats::SkewNormal> {
  using C = stats::SkewNormal;

  // Method of moments per cluster (paper Section 3.2).
  static C from_cluster(std::span<const double> x, std::span<const double> w,
                        double, const stats::Moments& global) {
    const auto m = stats::compute_weighted_moments(x, w);
    if (m.stddev > 1e-6 * global.stddev) {
      return C::from_moments(m.mean, m.stddev, m.skewness);
    }
    return C::from_moments(m.mean, 0.05 * global.stddev, 0.0);
  }
  // Weighted MLE (Eq. 7/8): damped Newton on the closed-form score
  // and Hessian, warm-started from the current component. A
  // generalized M-step stops after the first step that moves the
  // component by less than kGeneralizedMove. Only steps that do not
  // raise the weighted NLL are taken, so EM stays monotone.
  static std::optional<C> m_step(std::span<const double> x,
                                 std::span<const double> w, double,
                                 const C& current, double,
                                 bool generalized) {
    return C::fit_weighted_mle(x, w, &current, C::kMaxNewtonIterations,
                               nullptr, generalized ? kGeneralizedMove : 0.0);
  }
  // Unconstrained coordinates of the extrapolation: (xi / scale,
  // log omega, alpha). A point with omega below 1e-5 scale (the
  // Normal M-step's sigma floor) or |alpha| beyond kMaxAlpha is
  // infeasible.
  static constexpr std::size_t kParams = 3;
  static void to_params(const C& c, double scale, double* p) {
    p[0] = c.xi() / scale;
    p[1] = std::log(c.omega());
    p[2] = c.alpha();
  }
  static std::optional<C> from_params(const double* p, double scale) {
    const double xi = p[0] * scale, omega = std::exp(p[1]);
    if (!std::isfinite(xi) || !(omega >= 1e-5 * scale) ||
        !std::isfinite(omega) || !(std::fabs(p[2]) <= C::kMaxAlpha)) {
      return std::nullopt;
    }
    return C(xi, omega, p[2]);
  }
};

// The paper's ref-[10] baseline: closed-form weighted mean and sigma,
// floored at 1e-4 of the data sigma at the start, 1e-5 in the M-step.
template <>
struct Family<stats::Normal> {
  using C = stats::Normal;

  static C from_cluster(std::span<const double> x, std::span<const double> w,
                        double total, const stats::Moments& global) {
    return weighted(x, w, total, 1e-4 * global.stddev);
  }
  static std::optional<C> m_step(std::span<const double> x,
                                 std::span<const double> w, double total,
                                 const C&, double scale, bool) {
    return weighted(x, w, total, 1e-5 * scale);
  }
  // Unconstrained coordinates: (mu / scale, log sigma), sigma floored
  // as in the M-step.
  static constexpr std::size_t kParams = 2;
  static void to_params(const C& c, double scale, double* p) {
    p[0] = c.mean() / scale;
    p[1] = std::log(c.stddev());
  }
  static std::optional<C> from_params(const double* p, double scale) {
    const double mu = p[0] * scale, sigma = std::exp(p[1]);
    if (!std::isfinite(mu) || !(sigma >= 1e-5 * scale) ||
        !std::isfinite(sigma)) {
      return std::nullopt;
    }
    return C(mu, sigma);
  }
  static C weighted(std::span<const double> x, std::span<const double> w,
                    double total, double sigma_floor) {
    double m = 0.0, s = 0.0;
    for (std::size_t i = 0; i < x.size(); ++i) m += w[i] * x[i];
    const double mu = m / total;
    for (std::size_t i = 0; i < x.size(); ++i) {
      const double d = x[i] - mu;
      s += w[i] * d * d;
    }
    return C(mu, std::max(std::sqrt(s / total), sigma_floor));
  }
};

template <class C>
using Components = std::vector<typename Mixture<C>::Component>;

// The first weight is the remainder 1 - sum(others), as in the
// paper's (1 - lambda, lambda).
template <class C>
Mixture<C> with_first_weight(Components<C> comps) {
  double others = 0.0;
  for (std::size_t c = 1; c < comps.size(); ++c) others += comps[c].weight;
  comps[0].weight = 1.0 - others;
  return Mixture<C>(std::move(comps));
}

template <class C>
Mixture<C> single(const stats::Moments& m) {
  return Mixture<C>({{1.0, C::from_moments(m.mean, m.stddev, m.skewness)}});
}

// Location split (paper Section 3.2): k-means, then one family start
// per cluster.
template <class C>
std::optional<Mixture<C>> kmeans_start(const WeightedData& data,
                                       std::size_t k,
                                       const stats::Moments& global,
                                       std::uint64_t seed) {
  stats::Rng rng(seed);
  const stats::KMeansResult km = stats::kmeans_1d(data.x, k, rng, {}, data.w);
  if (km.centers.size() != k) return std::nullopt;
  Components<C> comps;
  std::vector<double> wc(data.size());
  double total = 0.0;
  for (std::size_t c = 0; c < k; ++c) {
    double wsum = 0.0;
    for (std::size_t i = 0; i < data.size(); ++i) {
      wc[i] = (km.assignment[i] == c) ? data.w[i] : 0.0;
      wsum += wc[i];
    }
    if (wsum <= 0.0) return std::nullopt;
    comps.push_back({wsum, Family<C>::from_cluster(data.x, wc, wsum, global)});
    total += wsum;
  }
  for (auto& c : comps) c.weight /= total;
  return with_first_weight<C>(std::move(comps));
}

// Bulk vs upper 15 % tail split, for low-weight minority modes riding
// on a dominant component (the "Minor Saddle" scenario, Fig. 3(d))
// where k-means balances cluster sizes too aggressively.
template <class C>
std::optional<Mixture<C>> tail_split_start(const WeightedData& data,
                                           const stats::Moments& global) {
  constexpr double kTail = 0.15;
  const std::size_t n = data.size();
  std::vector<std::size_t> order(n);
  std::iota(order.begin(), order.end(), std::size_t{0});
  std::sort(order.begin(), order.end(), [&](std::size_t a, std::size_t b) {
    return data.x[a] < data.x[b];
  });
  std::vector<double> part[2] = {std::vector<double>(n, 0.0),
                                 std::vector<double>(n, 0.0)};
  double acc = 0.0;
  for (std::size_t i : order) {
    part[acc < (1.0 - kTail) * data.total_weight ? 0 : 1][i] = data.w[i];
    acc += data.w[i];
  }
  Components<C> comps;
  for (int p = 0; p < 2; ++p) {
    const auto m = stats::compute_weighted_moments(data.x, part[p]);
    if (!(m.stddev > 1e-9 * global.stddev)) return std::nullopt;
    comps.push_back({p * kTail, C::from_moments(m.mean, m.stddev, m.skewness)});
  }
  return with_first_weight<C>(std::move(comps));
}

// The splits are two-component starts.
bool start_applies(EmStart kind, std::size_t k) {
  return kind == EmStart::kKMeans || k == 2;
}

// Merges the points [lo, hi] (inclusive, x ascending) into at most
// `groups` runs of consecutive points, each at its weighted centroid,
// so mass and mean stay exact (DESIGN.md decision 1).
WeightedData merge_runs(const WeightedData& data, std::size_t lo,
                        std::size_t hi, std::size_t groups) {
  const std::size_t group = (hi - lo + groups) / groups;
  WeightedData merged;
  for (std::size_t g = lo; g <= hi; g += group) {
    double w = 0.0, wx = 0.0;
    for (std::size_t i = g; i <= std::min(g + group - 1, hi); ++i) {
      w += data.w[i];
      wx += data.w[i] * data.x[i];
    }
    if (w > 0.0) merged.add(wx / w, w);
  }
  return merged;
}

// Folds one finished fit into the metrics registry. All instruments
// are created on the first fit so a dump always carries the full em.*
// set, zeros included.
void record_em_metrics(const EmReport& report) {
  static obs::Counter& fits = obs::counter("em.fits");
  static obs::Counter& iterations = obs::counter("em.iterations");
  static obs::Counter& burst_iterations = obs::counter("em.burst_iterations");
  static obs::Counter& nonconverged = obs::counter("em.nonconverged");
  static obs::Counter& collapsed = obs::counter("em.collapsed");
  static obs::Histogram& iter_hist = obs::histogram(
      "em.iterations.per_fit", {1.0, 2.0, 4.0, 8.0, 16.0, 32.0, 64.0, 128.0});
  fits.add(1);
  iterations.add(report.iterations);
  burst_iterations.add(report.burst_iterations);
  if (!report.converged) {
    nonconverged.add(1);
    // Accepting a non-converged fit is itself a (mild) downgrade,
    // counted lazily so clean traces stay unchanged.
    obs::counter("robust.downgrade.em_nonconverged").add(1);
  }
  if (report.collapsed) collapsed.add(1);
  iter_hist.observe(static_cast<double>(report.iterations));
}

// Tags a report with its rung of the degradation chain and counts it
// (lazily: a run that never degrades registers no robust.downgrade.*).
void record_downgrade(EmReport& rep, FitDegradation degradation) {
  rep.degradation = degradation;
  obs::counter(std::string("robust.downgrade.") + to_string(degradation))
      .add(1);
}

// The rest of the chain for data EM cannot take: one component by
// method of moments (for LVF^2 the paper's Eq. 10 target), a point
// mass for constant data, nothing for no data.
template <class C>
std::optional<Mixture<C>> degrade(EmReport& rep, stats::Moments m) {
  if (m.count == 0 || !std::isfinite(m.mean)) {
    record_downgrade(rep, FitDegradation::kRejected);
    return std::nullopt;
  }
  if (m.stddev > 0.0 && std::isfinite(m.stddev)) {
    record_downgrade(rep, FitDegradation::kSingleSn);
  } else {
    record_downgrade(rep, FitDegradation::kMomentNormal);
    m.stddev = m.skewness = 0.0;
  }
  return single<C>(m);
}

// Compression telemetry: raw observations in, weighted points out.
void record_binning(std::size_t in, std::size_t out) {
  static obs::Counter& in_counter = obs::counter("em.binning.samples_in");
  static obs::Counter& out_counter = obs::counter("em.binning.points_out");
  in_counter.add(in);
  out_counter.add(out);
}

// A mixture in the unconstrained coordinates SQUAREM extrapolates in:
// the log-ratios log(w_c / w_0) of the weights c >= 1, then each
// component's family coordinates.
template <class C>
void to_params(const Components<C>& comps, double scale,
               std::vector<double>& p) {
  const std::size_t k = comps.size();
  p.resize(k - 1 + k * Family<C>::kParams);
  for (std::size_t c = 1; c < k; ++c) {
    p[c - 1] = std::log(comps[c].weight / comps[0].weight);
  }
  for (std::size_t c = 0; c < k; ++c) {
    Family<C>::to_params(comps[c].dist, scale,
                         &p[k - 1 + c * Family<C>::kParams]);
  }
}

// The inverse map, into `comps` (sized like the mixture `p` came
// from). False when the point is infeasible: a weight below
// kWeightFloor or a component its family rejects.
template <class C>
bool from_params(const std::vector<double>& p, double scale,
                 Components<C>& comps) {
  const std::size_t k = comps.size();
  double denom = 1.0;
  for (std::size_t c = 1; c < k; ++c) denom += std::exp(p[c - 1]);
  double others = 0.0;
  for (std::size_t c = 1; c < k; ++c) {
    comps[c].weight = std::exp(p[c - 1]) / denom;
    if (!(comps[c].weight >= kWeightFloor)) return false;
    others += comps[c].weight;
  }
  if (!(others <= 1.0 - kWeightFloor)) return false;
  comps[0].weight = 1.0 - others;
  for (std::size_t c = 0; c < k; ++c) {
    const auto dist =
        Family<C>::from_params(&p[k - 1 + c * Family<C>::kParams], scale);
    if (!dist) return false;
    comps[c].dist = *dist;
  }
  return true;
}

}  // namespace

const char* to_string(FitDegradation degradation) {
  switch (degradation) {
    case FitDegradation::kNone: return "none";
    case FitDegradation::kSingleSn: return "single_sn";
    case FitDegradation::kMomentNormal: return "moment_normal";
    case FitDegradation::kRejected: return "rejected";
  }
  return "unknown";
}

template <class C>
std::vector<Mixture<C>> em_starts(const WeightedData& data, std::size_t k,
                                  std::span<const EmStart> kinds,
                                  std::uint64_t seed) {
  const stats::Moments global =
      stats::compute_weighted_moments(data.x, data.w);
  std::vector<Mixture<C>> starts;
  for (const EmStart kind : kinds) {
    if (!start_applies(kind, k)) continue;
    std::optional<Mixture<C>> start;
    if (kind == EmStart::kKMeans) {
      start = kmeans_start<C>(data, k, global, seed);
    } else if (kind == EmStart::kWidthSplit) {
      // Same-center split: location-based k-means cannot separate
      // scale mixtures (the "Kurtosis" scenario, Fig. 3(e)).
      start = Mixture<C>(
          {{0.5, C::from_moments(global.mean, 0.55 * global.stddev, 0.0)},
           {0.5, C::from_moments(global.mean, 1.45 * global.stddev,
                                 global.skewness)}});
    } else {
      start = tail_split_start<C>(data, global);
    }
    if (start) starts.push_back(std::move(*start));
  }
  return starts;
}

WeightedData coarse_view(const WeightedData& data, std::size_t max_points) {
  if (data.size() <= max_points) return data;
  if (std::is_sorted(data.x.begin(), data.x.end())) {
    return merge_runs(data, 0, data.size() - 1, max_points);
  }
  // Raw samples (at most likelihood_bins of them, or likelihood_bins
  // = 0) come unsorted.
  std::vector<std::size_t> order(data.size());
  std::iota(order.begin(), order.end(), std::size_t{0});
  std::stable_sort(order.begin(), order.end(),
                   [&](std::size_t a, std::size_t b) {
                     return data.x[a] < data.x[b];
                   });
  WeightedData sorted;
  for (const std::size_t i : order) sorted.add(data.x[i], data.w[i]);
  return merge_runs(sorted, 0, sorted.size() - 1, max_points);
}

WeightedData make_weighted_data(std::span<const double> samples,
                                const FitOptions& options) {
  obs::TraceSpan span("em.bin");
  WeightedData data;
  if (options.likelihood_bins == 0 ||
      samples.size() <= options.likelihood_bins) {
    data.x.assign(samples.begin(), samples.end());
    data.w.assign(samples.size(), 1.0);
    data.total_weight = static_cast<double>(samples.size());
  } else {
    const stats::BinnedSamples bins =
        stats::bin_samples(samples, options.likelihood_bins);
    for (std::size_t i = 0; i < bins.centers.size(); ++i) {
      if (bins.counts[i] > 0.0) {
        data.add(bins.centers[i], bins.counts[i]);
      }
    }
  }
  record_binning(samples.size(), data.size());
  return data;
}

WeightedData make_weighted_data(const stats::GridPdf& pdf,
                                const FitOptions& options) {
  obs::TraceSpan span("em.bin");
  WeightedData data;
  for (std::size_t i = 0; i < pdf.size(); ++i) {
    const double w = pdf.density()[i] * pdf.step();
    if (w > 0.0) data.add(pdf.x_at(i), w);
  }
  const std::size_t bins = options.likelihood_bins;
  if (bins > 0 && data.size() > bins) {
    // Trim the tails, which together hold < 1e-12 of the mass, then
    // merge the rest into at most `bins` centroid groups.
    const double tail = 0.5e-12 * data.total_weight;
    std::size_t lo = 0, hi = data.size() - 1;  // inclusive
    for (double m = data.w[lo]; m < tail; m += data.w[++lo]) {}
    for (double m = data.w[hi]; m < tail; m += data.w[--hi]) {}
    data = merge_runs(data, lo, hi, bins);
  }
  record_binning(pdf.size(), data.size());
  return data;
}

template <class C>
EmRun<C> run_em(const WeightedData& data, const Mixture<C>& start,
                const FitOptions& options, EmSteps steps) {
  const std::size_t n = data.size();
  const std::size_t k = start.size();
  const double scale = stats::compute_weighted_moments(data.x, data.w).stddev;
  const bool accelerate = steps == EmSteps::kAccelerated;
  EmRun<C> run;
  Components<C> comps = start.components();
  std::vector<std::vector<double>> resp, w(k, std::vector<double>(n));
  std::vector<double> totals(k);
  const auto collapse = [&run] {
    run.report.collapsed = true;
    return run;
  };
  // SQUAREM (Varadhan & Roland 2008; DESIGN.md decision 26). A cycle
  // maps theta0 -> theta1 -> theta2 by two EM iterations, then takes
  // one squared-extrapolation step from the three. `phase` says which
  // point the next E-step evaluates; for kExtrapolated, `plain` holds
  // theta2 to fall back to. The step length is bounded by `step_max`,
  // which grows 4x while steps reach it and shrinks 4x when a step at
  // the bound is rejected (the SQUAREM defaults).
  enum class Phase { kFirstMap, kSecondMap, kExtrapolated };
  Phase phase = Phase::kFirstMap;
  std::vector<double> p0, p1, p2;
  Components<C> plain;
  double ll_theta1 = 0.0;
  double step = 1.0, step_max = 1.0;
  double prev_ll = -std::numeric_limits<double>::infinity();
  double cycle_ll = prev_ll;
  std::size_t ll_decreases = 0;
  for (std::size_t iter = 0; iter < options.em_max_iterations; ++iter) {
    // Deadline checkpoint (lvf2d): at most one more EM iteration runs
    // after a request's budget expires.
    core::checkpoint();
    run.report.iterations = iter + 1;
    if (robust::fire(robust::Fault::kEmCollapse)) return collapse();

    // E-step (Eq. 6). Every weight is positive here (floored below).
    double ll = Mixture<C>(comps).e_step(data, &resp);
    if (robust::fire(robust::Fault::kEmOscillate)) {
      ll += ((iter % 2 == 0) ? -0.5 : 0.5) * (std::fabs(ll) + 1.0);
    }
    if (phase == Phase::kExtrapolated) {
      // Monotone fallback: keep the extrapolated point only if it is
      // at least as likely as theta1, else go on from theta2.
      phase = Phase::kFirstMap;
      if (!(ll >= ll_theta1)) {
        if (step == step_max) step_max = std::max(1.0, step_max / 4.0);
        comps = plain;
        continue;
      }
    }
    // The stop rule compares consecutive iterates of the accelerated
    // sequence, the cycle starts (every E-step of plain EM is one).
    const bool cycle_start = phase == Phase::kFirstMap;
    run.report.log_likelihood = ll;
    obs::trace_counter("em.loglik", ll);

    // EM is monotone up to rounding (every M-step is an ascent); a
    // large repeated decrease means the surface went numerically
    // pathological.
    if (std::isfinite(prev_ll) &&
        ll < prev_ll - 0.01 * (std::fabs(prev_ll) + 1.0) &&
        ++ll_decreases >= 3) {
      static obs::Counter& oscillations =
          obs::counter("robust.em.oscillation_detected");
      oscillations.add(1);
      run.report.oscillated = true;
      return collapse();
    }
    if (!std::isfinite(ll)) return collapse();
    if (accelerate && cycle_start) to_params<C>(comps, scale, p0);

    // M-step (Eq. 9): closed-form weights, the first component taking
    // the remainder of each point's weight, then per-component MLE.
    std::fill(totals.begin(), totals.end(), 0.0);
    for (std::size_t i = 0; i < n; ++i) {
      double rest = data.w[i];
      for (std::size_t c = 1; c < k; ++c) {
        w[c][i] = data.w[i] * resp[c][i];
        rest -= w[c][i];
        totals[c] += w[c][i];
      }
      w[0][i] = std::max(rest, 0.0);
    }
    double others = 0.0;
    totals[0] = data.total_weight;
    for (std::size_t c = 1; c < k; ++c) {
      comps[c].weight = totals[c] / data.total_weight;
      if (comps[c].weight < kWeightFloor) return collapse();
      others += comps[c].weight;
      totals[0] -= totals[c];
    }
    if (others > 1.0 - kWeightFloor) return collapse();
    comps[0].weight = 1.0 - others;
    bool fitted = true;
    for (std::size_t c = 0; c < k; ++c) {
      const auto next = Family<C>::m_step(data.x, w[c], totals[c],
                                          comps[c].dist, scale, accelerate);
      if (next) comps[c].dist = *next;
      fitted = fitted && next.has_value();
    }
    if (!fitted) return collapse();

    if (cycle_start && std::isfinite(cycle_ll) &&
        std::fabs(ll - cycle_ll) <=
            options.em_tolerance * (std::fabs(cycle_ll) + 1.0) &&
        !robust::fire(robust::Fault::kEmExhaust)) {
      run.report.converged = true;
      break;
    }
    prev_ll = ll;
    if (cycle_start) cycle_ll = ll;
    if (!accelerate) continue;

    if (phase == Phase::kFirstMap) {
      to_params<C>(comps, scale, p1);
      phase = Phase::kSecondMap;
      continue;
    }
    // Squared extrapolation from r = theta1 - theta0 and
    // v = theta2 - 2 theta1 + theta0 with step length s = |r| / |v| in
    // [1, step_max]: theta' = theta0 + 2 s r + s^2 v (s = 1 is theta2).
    phase = Phase::kFirstMap;
    ll_theta1 = ll;
    to_params<C>(comps, scale, p2);
    double rr = 0.0, vv = 0.0;
    for (std::size_t j = 0; j < p0.size(); ++j) {
      const double r = p1[j] - p0[j];
      const double v = p2[j] - 2.0 * p1[j] + p0[j];
      rr += r * r;
      vv += v * v;
      p2[j] = v;
    }
    step = std::clamp(std::sqrt(rr / vv), 1.0, step_max);
    if (step == step_max) step_max *= 4.0;
    if (!(step > 1.0)) continue;  // theta2 itself (or a NaN step)
    for (std::size_t j = 0; j < p0.size(); ++j) {
      p2[j] = p0[j] + 2.0 * step * (p1[j] - p0[j]) + step * step * p2[j];
    }
    plain = comps;
    if (from_params<C>(p2, scale, comps)) {
      phase = Phase::kExtrapolated;
    } else {
      comps = plain;
    }
  }
  // The cap can end a cycle before its extrapolated point is
  // evaluated; the result is then theta2, the last EM map's output.
  if (phase == Phase::kExtrapolated) comps = std::move(plain);
  run.mixture = Mixture<C>(std::move(comps));
  return run;
}

template <class C>
EmRun<C> multi_start_em(const WeightedData& data, std::size_t k,
                        std::span<const EmStart> kinds,
                        const FitOptions& options, EmSteps steps) {
  // Staged multi-start (DESIGN.md decision 7): with two or more starts,
  // a short burst each, then the remaining budget on the best burst
  // only (EM is monotone, so the post-burst ranking is a sound pruning
  // heuristic). A lone start runs the whole budget. Accelerated fits
  // burst on a coarse view and rank the bursts on the full data, on
  // which the winner always runs the rest of the budget; plain EM
  // (grid refits) bursts on the full data.
  const bool coarse =
      steps == EmSteps::kAccelerated && data.size() > kBurstPoints &&
      options.em_max_iterations > kBurstIterations &&
      std::count_if(kinds.begin(), kinds.end(), [k](EmStart kind) {
        return start_applies(kind, k);
      }) >= 2;
  const WeightedData coarse_data =
      coarse ? coarse_view(data, kBurstPoints) : WeightedData{};
  const WeightedData& burst_data = coarse ? coarse_data : data;
  const std::vector<Mixture<C>> starts =
      em_starts<C>(burst_data, k, kinds, options.seed);
  static obs::Counter& em_restarts = obs::counter("em.restarts");
  em_restarts.add(starts.size());

  const bool staged = coarse || starts.size() >= 2;
  const std::size_t burst =
      staged ? std::min(kBurstIterations, options.em_max_iterations)
             : options.em_max_iterations;
  FitOptions burst_options = options;
  burst_options.em_max_iterations = burst;
  std::optional<EmRun<C>> best;
  double best_ll = 0.0;
  std::size_t burst_iterations = 0;
  for (const Mixture<C>& start : starts) {
    EmRun<C> run = run_em(burst_data, start, burst_options, steps);
    if (staged) burst_iterations += run.report.iterations;
    if (run.report.collapsed) continue;
    // The coarse view's own likelihood ranks the starts worse.
    const double ll = coarse ? run.mixture.log_likelihood(data)
                             : run.report.log_likelihood;
    if (!best || ll > best_ll) {
      best = std::move(run);
      best_ll = ll;
    }
  }
  if (!best) {
    EmRun<C> none;
    none.report.collapsed = true;
    none.report.burst_iterations = burst_iterations;
    return none;
  }
  if (coarse) best->report.log_likelihood = best_ll;
  if ((coarse || !best->report.converged) &&
      options.em_max_iterations > burst) {
    FitOptions rest = options;
    rest.em_max_iterations = options.em_max_iterations - burst;
    EmRun<C> final_run = run_em(data, best->mixture, rest, steps);
    if (!final_run.report.collapsed) {
      final_run.report.iterations += best->report.iterations;
      best = std::move(final_run);
    }
  }
  best->report.burst_iterations = burst_iterations;
  return std::move(*best);
}

template <class C>
std::optional<Mixture<C>> fit_mixture(const WeightedData& data,
                                      std::size_t k,
                                      std::span<const EmStart> start_kinds,
                                      const FitOptions& options,
                                      EmReport* report, EmSteps steps) {
  obs::TraceSpan span("em.fit", [&] {
    return obs::ArgsBuilder().add("points", data.size()).str();
  });
  EmReport scratch;
  EmReport& rep = (report != nullptr) ? *report : scratch;
  rep = EmReport{};

  stats::Moments global = stats::compute_weighted_moments(data.x, data.w);
  global.count = data.size();
  if (data.size() < std::max<std::size_t>(8, 4 * k) ||
      !(global.stddev > 0.0)) {
    return degrade<C>(rep, global);
  }
  const Mixture<C> fallback = single<C>(global);
  if (k <= 1) {
    rep.iterations = 1;
    rep.converged = true;
    return fallback;
  }

  const EmRun<C> best =
      multi_start_em<C>(data, k, start_kinds, options, steps);
  rep = best.report;
  Mixture<C> model = fallback;
  if (!best.report.collapsed) {
    // Canonical order: ascending mean, so LVF-style consumers reading
    // only component 1 see the dominant early mode.
    Components<C> comps = best.mixture.components();
    std::stable_sort(comps.begin(), comps.end(),
                     [](const auto& a, const auto& b) {
                       return a.dist.mean() < b.dist.mean();
                     });
    model = with_first_weight<C>(comps);
    // Moment pinning (DESIGN.md decision 8): an affine map puts the
    // mixture mean / sigma on the data's, so MLE's O(eps) mismatches
    // cannot accumulate under SSTA convolution.
    const double m_fit = model.mean();
    const double s_fit = model.stddev();
    if (s_fit > 0.0 && std::isfinite(m_fit)) {
      const double b = global.stddev / s_fit;
      const double a = global.mean - b * m_fit;
      for (auto& c : comps) c.dist = c.dist.affine(a, b);
      model = with_first_weight<C>(std::move(comps));
    }
  }
  // No run survived, or EM landed below the single-component
  // likelihood (e.g. truly unimodal data): keep the single fit.
  if (best.report.collapsed ||
      fallback.log_likelihood(data) > model.log_likelihood(data)) {
    rep.collapsed = true;
    record_downgrade(rep, FitDegradation::kSingleSn);
    model = fallback;
  }
  record_em_metrics(rep);
  return model;
}

template <class C>
std::optional<Mixture<C>> fit_mixture(std::span<const double> samples,
                                      std::size_t k,
                                      std::span<const EmStart> starts,
                                      const FitOptions& options,
                                      EmReport* report) {
  EmReport scratch;
  EmReport& rep = (report != nullptr) ? *report : scratch;
  rep = EmReport{};

  // Rung 0 of the degradation chain. Clean data, the common case,
  // passes through without a copy, bit-identical to an unguarded fit.
  const auto finite = [](double x) { return std::isfinite(x); };
  const auto nonfinite = static_cast<std::size_t>(
      samples.size() - std::count_if(samples.begin(), samples.end(), finite));
  std::vector<double> cleaned;
  std::span<const double> use = samples;
  if (nonfinite > 0) {
    std::copy_if(samples.begin(), samples.end(), std::back_inserter(cleaned),
                 finite);
    obs::counter("robust.samples.nonfinite_dropped").add(nonfinite);
    use = cleaned;
  }
  // Winsorize at fences 50 IQRs out: clean Monte-Carlo data never
  // reaches them (~67 sigma for a normal), a poisoned spike always
  // does, and it would wreck the binned-likelihood grid.
  std::size_t clipped = 0;
  if (use.size() >= 8) {
    std::vector<double> sorted(use.begin(), use.end());
    const auto order_stat = [&](std::size_t i) {
      std::nth_element(sorted.begin(), sorted.begin() + i, sorted.end());
      return sorted[i];
    };
    const double q1 = order_stat(sorted.size() / 4);
    const double q3 = order_stat((3 * sorted.size()) / 4);
    const double lo = q1 - 50.0 * (q3 - q1), hi = q3 + 50.0 * (q3 - q1);
    const auto outside = [&](double x) { return x < lo || x > hi; };
    if (q3 > q1 && std::any_of(use.begin(), use.end(), outside)) {
      if (cleaned.empty()) cleaned.assign(use.begin(), use.end());
      clipped = static_cast<std::size_t>(
          std::count_if(cleaned.begin(), cleaned.end(), outside));
      for (double& x : cleaned) x = std::clamp(x, lo, hi);
      obs::counter("robust.samples.outlier_clipped").add(clipped);
      use = cleaned;
    }
  }

  const auto fit = fit_mixture<C>(make_weighted_data(use, options), k,
                                  starts, options, &rep,
                                  EmSteps::kAccelerated);
  rep.dropped_samples = nonfinite;
  rep.clipped_samples = clipped;
  return fit;
}

#define LVF2_EM_FAMILY(C)                                                 \
  template EmRun<C> run_em(const WeightedData&, const Mixture<C>&,        \
                           const FitOptions&, EmSteps);                   \
  template std::vector<Mixture<C>> em_starts(                             \
      const WeightedData&, std::size_t, std::span<const EmStart>,         \
      std::uint64_t);                                                     \
  template EmRun<C> multi_start_em(const WeightedData&, std::size_t,      \
                                   std::span<const EmStart>,              \
                                   const FitOptions&, EmSteps);           \
  template std::optional<Mixture<C>> fit_mixture(                         \
      const WeightedData&, std::size_t, std::span<const EmStart>,         \
      const FitOptions&, EmReport*, EmSteps);                             \
  template std::optional<Mixture<C>> fit_mixture(                         \
      std::span<const double>, std::size_t, std::span<const EmStart>,     \
      const FitOptions&, EmReport*);
LVF2_EM_FAMILY(stats::SkewNormal)
LVF2_EM_FAMILY(stats::Normal)
#undef LVF2_EM_FAMILY

}  // namespace lvf2::core
