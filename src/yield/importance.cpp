#include "yield/importance.h"

#include <algorithm>
#include <cmath>
#include <limits>
#include <mutex>
#include <utility>
#include <vector>

#include "core/cancel.h"
#include "exec/pool.h"
#include "obs/json.h"
#include "obs/log.h"
#include "obs/manifest.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "stats/lhs.h"
#include "stats/normal.h"
#include "stats/rng.h"

namespace lvf2::yield {

namespace {

// Deadline-checkpoint block size, matching spice/montecarlo.cpp: at
// most this many more simulations run after a serve deadline expires.
constexpr std::size_t kCheckpointBlock = 256;

constexpr double kInf = std::numeric_limits<double>::infinity();

bool is_shifted(const ShiftVector& shift) {
  for (const double s : shift) {
    if (s != 0.0) return true;
  }
  return false;
}

double norm(const ShiftVector& v) {
  double s = 0.0;
  for (const double x : v) s += x * x;
  return std::sqrt(s);
}

// Accumulated proposal draws of one estimation run, in draw order.
// `z` and `delay` are filled only when the caller needs the raw
// points back (the cross-entropy pilot); estimation proper keeps just
// the scalars.
struct DrawSet {
  std::vector<double> log_weight;
  std::vector<unsigned char> fail;
  std::vector<double> z;      ///< row-major kShiftDims per draw when kept
  std::vector<double> delay;  ///< per-draw delay (ns) when kept
};

// One contiguous shard of a batch: draws its own independently-seeded
// z set, applies the proposal shift, simulates, and writes weights and
// failure flags into [begin, end) of the output slices. Mirrors
// spice::run_monte_carlo's run_shard draw order exactly so a zero
// shift reproduces the plain MC sample set bitwise.
void run_is_shard(const spice::StageElectrical& stage,
                  const spice::ArcCondition& condition,
                  const spice::ProcessCorner& corner, const IsConfig& config,
                  const ShiftVector& shift, double threshold_ns,
                  std::uint64_t shard_seed, std::size_t begin, std::size_t end,
                  bool keep_z, DrawSet& out, std::size_t out_offset) {
  stats::Rng rng(shard_seed);
  const spice::VariationSampler sampler(corner);
  const std::size_t count = end - begin;
  const bool shifted = is_shifted(shift);

  // Raw standard-normal draws: LHS-stratified (per shard, as in
  // spice::McConfig) or plain, in the exact order VariationSampler
  // consumes its rng.
  std::vector<double> z(count * kShiftDims);
  if (config.use_lhs) {
    const stats::LhsDesign design =
        stats::lhs_normal(count, kShiftDims, rng);
    z = design.values;
  } else {
    for (std::size_t i = 0; i < count; ++i) {
      for (std::size_t d = 0; d < kShiftDims; ++d) {
        z[i * kShiftDims + d] = rng.normal();
      }
    }
  }

  // Apply the defensive-mixture proposal and compute log-weights.
  // The first (1 - alpha) fraction of the shard's rows is shifted by
  // s, the rest stays on the nominal density (LHS row order carries
  // no structure — strata are permuted per dimension — so a block
  // split is as stratified as any interleaving). Every draw is
  // weighted by the same mixture density regardless of which
  // component generated it. The zero-shift branch leaves the draw
  // bits untouched (x + 0.0 is not an identity for -0.0) and pins
  // every log-weight to exactly 0.
  const double alpha = IsConfig::kDefensiveAlpha;
  const std::size_t shifted_rows =
      shifted ? static_cast<std::size_t>(
                    (1.0 - alpha) * static_cast<double>(count) + 0.5)
              : 0;
  const double log_alpha = std::log(alpha);
  const double log_beta = std::log1p(-alpha);
  const stats::Normal standard(0.0, 1.0);
  std::array<stats::Normal, kShiftDims> proposal;
  for (std::size_t d = 0; d < kShiftDims; ++d) {
    proposal[d] = stats::Normal(shift[d], 1.0);
  }
  std::vector<spice::VariationSample> draws(count);
  for (std::size_t i = 0; i < count; ++i) {
    double* zi = &z[i * kShiftDims];
    double lw = 0.0;
    if (shifted) {
      if (i < shifted_rows) {
        for (std::size_t d = 0; d < kShiftDims; ++d) zi[d] += shift[d];
      }
      double l0 = 0.0;  // log phi(z) summed over dimensions
      double l1 = 0.0;  // log phi(z - s)
      for (std::size_t d = 0; d < kShiftDims; ++d) {
        l0 += standard.log_pdf(zi[d]);
        l1 += proposal[d].log_pdf(zi[d]);
      }
      const double la = log_alpha + l0;
      const double lb = log_beta + l1;
      const double m = std::max(la, lb);
      const double log_q = m + std::log(std::exp(la - m) + std::exp(lb - m));
      lw = l0 - log_q;
    }
    draws[i] = sampler.from_standard_normal(zi);
    out.log_weight[out_offset + begin + i] = lw;
  }
  if (keep_z) {
    std::copy(z.begin(), z.end(),
              out.z.begin() + (out_offset + begin) * kShiftDims);
  }

  // Simulate in checkpoint blocks (delay only; the transition output
  // is scratch) so an armed serve deadline fires within one block.
  std::vector<double> delay(count);
  std::vector<double> transition(count);
  const std::span<const spice::VariationSample> draw_span(draws);
  for (std::size_t j = 0; j < count; j += kCheckpointBlock) {
    core::checkpoint_every(j, kCheckpointBlock);
    const std::size_t n = std::min(kCheckpointBlock, count - j);
    spice::simulate_stage_batch(stage, condition, corner,
                                draw_span.subspan(j, n),
                                std::span<double>(delay).subspan(j, n),
                                std::span<double>(transition).subspan(j, n));
  }
  for (std::size_t i = 0; i < count; ++i) {
    out.fail[out_offset + begin + i] =
        delay[i] > threshold_ns ? 1 : 0;
  }
  if (keep_z) {
    std::copy(delay.begin(), delay.end(),
              out.delay.begin() + out_offset + begin);
  }
}

// Appends one batch of `n` draws to `out`. Shard seeds derive from
// `base_seed` with the spice::run_monte_carlo rule: the single-shard
// stream uses the seed directly, sharded streams combine per shard.
void run_batch(const spice::StageElectrical& stage,
               const spice::ArcCondition& condition,
               const spice::ProcessCorner& corner, const IsConfig& config,
               const ShiftVector& shift, double threshold_ns,
               std::uint64_t base_seed, std::size_t n, bool keep_z,
               DrawSet& out) {
  const std::size_t offset = out.log_weight.size();
  out.log_weight.resize(offset + n);
  out.fail.resize(offset + n);
  if (keep_z) {
    out.z.resize((offset + n) * kShiftDims);
    out.delay.resize(offset + n);
  }
  const std::size_t shards =
      std::min(std::max<std::size_t>(config.shards, 1), n);
  if (shards <= 1) {
    run_is_shard(stage, condition, corner, config, shift, threshold_ns,
                 base_seed, 0, n, keep_z, out, offset);
    return;
  }
  exec::parallel_for(shards, 1, [&](std::size_t s) {
    const std::size_t begin = n * s / shards;
    const std::size_t end = n * (s + 1) / shards;
    if (begin == end) return;
    run_is_shard(stage, condition, corner, config, shift, threshold_ns,
                 stats::combine_seed(base_seed, s + 1), begin, end, keep_z,
                 out, offset);
  });
}

// Batch seed sequence: batch 0 uses the configured seed verbatim (so
// a single-batch zero-shift run is bit-identical to run_monte_carlo
// with the same seed), later batches derive independent streams.
std::uint64_t batch_seed(std::uint64_t seed, std::size_t batch_index) {
  return batch_index == 0 ? seed : stats::combine_seed(seed, batch_index);
}

}  // namespace

WeightStats analyze_weights(std::span<const double> log_weights,
                            std::span<const unsigned char> fail) {
  WeightStats stats;
  const std::size_t n = log_weights.size();
  if (n == 0) return stats;
  // Log-sum-exp: shift by the max log-weight so the largest weight is
  // exactly 1. Every output below is a ratio of the shifted sums, so
  // the shift (and any constant log-weight offset) cancels exactly.
  double max_lw = log_weights[0];
  for (const double lw : log_weights) max_lw = std::max(max_lw, lw);
  double sum_w = 0.0;
  double sum_w2 = 0.0;
  double sum_wf = 0.0;
  for (std::size_t i = 0; i < n; ++i) {
    const double w = std::exp(log_weights[i] - max_lw);
    sum_w += w;
    sum_w2 += w * w;
    if (fail[i] != 0) {
      sum_wf += w;
      ++stats.failures;
    }
  }
  if (!(sum_w > 0.0)) return stats;
  stats.p_fail = sum_wf / sum_w;
  stats.ess = sum_w * sum_w / sum_w2;
  stats.max_weight_fraction = 1.0 / sum_w;  // max shifted weight is 1
  // Delta-method variance of the ratio estimator:
  //   Var(p) ~= sum_i (wbar_i * (f_i - p))^2,  wbar_i = w_i / sum(w).
  // For all-equal weights this reduces exactly to the binomial
  // p(1-p)/n, so the brute-force baseline shares this code path.
  double var = 0.0;
  double norm_sum = 0.0;
  for (std::size_t i = 0; i < n; ++i) {
    const double wbar = std::exp(log_weights[i] - max_lw) / sum_w;
    norm_sum += wbar;
    const double d = (fail[i] != 0 ? 1.0 : 0.0) - stats.p_fail;
    var += (wbar * d) * (wbar * d);
  }
  stats.normalized_sum = norm_sum;
  stats.std_err = std::sqrt(var);
  return stats;
}

double brute_force_equivalent_samples(double p_fail, double rel_err) {
  if (!(p_fail > 0.0) || p_fail >= 1.0 || !(rel_err > 0.0)) return kInf;
  return (1.0 - p_fail) / (p_fail * rel_err * rel_err);
}

ImportanceSampler::ImportanceSampler(const spice::StageElectrical& stage,
                                     const spice::ArcCondition& condition,
                                     const spice::ProcessCorner& corner,
                                     const IsConfig& config)
    : stage_(stage), condition_(condition), corner_(corner), config_(config) {}

double ImportanceSampler::delay_at(const ShiftVector& z) const {
  const spice::VariationSampler sampler(corner_);
  const spice::VariationSample sample =
      sampler.from_standard_normal(z.data());
  return spice::simulate_stage(stage_, condition_, corner_, sample).delay_ns;
}

ShiftVector ImportanceSampler::find_shift(double threshold_ns) const {
  obs::TraceSpan span("yield.pilot", [&] {
    return obs::ArgsBuilder().add("threshold_ns", threshold_ns).str();
  });
  static obs::Counter& pilot_sims = obs::counter("yield.pilot.sims");
  std::size_t sims = 0;
  const auto probe = [&](const ShiftVector& z) {
    ++sims;
    return delay_at(z);
  };

  ShiftVector shift{};
  ShiftVector z{};
  const double delay0 = probe(z);
  if (!(delay0 < threshold_ns)) {
    // The nominal die already fails: not a rare event, no shift
    // needed (plain MC sees failures immediately).
    pilot_sims.add(sims);
    return shift;
  }

  // Candidate ascent directions. The gradient at the origin alone is
  // not enough: a bimodal response ("2 Peaks") keeps its dominant
  // failure region where the competing mechanism engages, which the
  // local mechanism-A slope does not point at — the boundary along
  // the origin gradient can sit at |z| ~ 8 while the true design
  // point is at |z| ~ 3. So the pilot scans the gradient direction,
  // every coordinate axis (both signs) and a seeded spread of random
  // unit vectors, bisects the boundary distance along each ray, and
  // keeps the closest failing point — a deterministic multi-start
  // FORM search (a few hundred analytic simulations, microseconds
  // each).
  const double h = IsConfig::kGradientStep;
  ShiftVector grad{};
  for (std::size_t d = 0; d < kShiftDims; ++d) {
    z = ShiftVector{};
    z[d] = h;
    const double up = probe(z);
    z[d] = -h;
    const double down = probe(z);
    grad[d] = (up - down) / (2.0 * h);
  }
  std::vector<ShiftVector> directions;
  const double gnorm = norm(grad);
  if (gnorm > 0.0 && std::isfinite(gnorm)) {
    ShiftVector dir{};
    for (std::size_t d = 0; d < kShiftDims; ++d) dir[d] = grad[d] / gnorm;
    directions.push_back(dir);
  }
  for (std::size_t d = 0; d < kShiftDims; ++d) {
    ShiftVector dir{};
    dir[d] = 1.0;
    directions.push_back(dir);
    dir[d] = -1.0;
    directions.push_back(dir);
  }
  {
    stats::Rng dir_rng(stats::combine_seed(config_.seed, 0xD12ull));
    for (int k = 0; k < 24; ++k) {
      ShiftVector dir{};
      for (double& v : dir) v = dir_rng.normal();
      const double dnorm = norm(dir);
      if (!(dnorm > 0.0)) continue;
      for (double& v : dir) v /= dnorm;
      directions.push_back(dir);
    }
  }

  // Boundary distance along one ray: expanding bracket + bisection;
  // infinity when the ray never fails within the shift cap.
  const double t_max = IsConfig::kMaxShiftNorm;
  const auto boundary_distance = [&](const ShiftVector& dir) {
    const auto ray_delay = [&](double t) {
      ShiftVector point{};
      for (std::size_t d = 0; d < kShiftDims; ++d) point[d] = t * dir[d];
      return probe(point);
    };
    double lo = 0.0;
    double hi = 0.5;
    while (hi < t_max && ray_delay(hi) < threshold_ns) {
      lo = hi;
      hi = std::min(hi * 2.0, t_max);
    }
    if (ray_delay(hi) < threshold_ns) return kInf;
    for (int iter = 0; iter < 30; ++iter) {
      const double mid = 0.5 * (lo + hi);
      if (ray_delay(mid) < threshold_ns) {
        lo = mid;
      } else {
        hi = mid;
      }
    }
    return hi;
  };
  double best_t = kInf;
  ShiftVector best_dir{};
  for (const ShiftVector& dir : directions) {
    const double t = boundary_distance(dir);
    if (t < best_t) {
      best_t = t;
      best_dir = dir;
    }
  }
  // The on-ray design point, when any ray crossed within the cap.
  // This is only a fallback: for bimodal and mixed failure regions the
  // closest *on-ray* crossing can sit far past the true design point
  // (the dominant failure mass needs movement no single ray combines),
  // and anchoring a proposal there puts the elite draws in a region of
  // negligible nominal density where the guarded CE updates below
  // never engage. The cross-entropy schedule therefore always starts
  // from the nominal proposal and only falls back here when it fails.
  ShiftVector on_ray{};
  const bool have_on_ray = best_t < t_max;
  if (have_on_ray) {
    for (std::size_t d = 0; d < kShiftDims; ++d) {
      on_ray[d] = best_t * best_dir[d];
    }
  }
  pilot_sims.add(sims);
  if (config_.pilot_samples == 0 || config_.refine_iterations == 0) {
    return on_ray;  // refinement disabled: best deterministic answer
  }

  // Adaptive cross-entropy with a quantile schedule, from the nominal
  // proposal: each round draws a pilot batch from the current proposal
  // and re-centers the shift on the weighted mean of the "elite"
  // draws above a running threshold gamma = min(target,
  // 90th-percentile pilot delay). Walking gamma up instead of jumping
  // straight to the target is what makes the pilot robust: the top
  // decile of every pilot batch always exists, so the schedule climbs
  // toward the failure region one conditional mean at a time,
  // whatever its shape. Once gamma reaches the target,
  // `refine_iterations` polish rounds run against the real threshold.
  // The refined shift is frozen before estimation, so estimation
  // weights always match the proposal that generated the draws.
  static obs::Counter& pilot_samples = obs::counter("yield.pilot.samples");
  constexpr std::size_t kMaxRounds = 16;
  constexpr double kEliteFraction = 0.10;
  std::size_t target_rounds = 0;
  bool reached_target = false;
  for (std::size_t round = 0;
       round < kMaxRounds && target_rounds < config_.refine_iterations;
       ++round) {
    DrawSet pilot;
    run_batch(stage_, condition_, corner_, config_, shift, threshold_ns,
              stats::combine_seed(stats::combine_seed(config_.seed, 0xCEull),
                                  round + 1),
              config_.pilot_samples, /*keep_z=*/true, pilot);
    pilot_samples.add(config_.pilot_samples);
    std::vector<double> sorted(pilot.delay);
    const std::size_t q_idx = static_cast<std::size_t>(
        (1.0 - kEliteFraction) * static_cast<double>(sorted.size()));
    std::nth_element(sorted.begin(),
                     sorted.begin() + static_cast<std::ptrdiff_t>(q_idx),
                     sorted.end());
    double gamma = sorted[q_idx];
    if (!(gamma < threshold_ns)) {
      gamma = threshold_ns;
      ++target_rounds;
    }
    double max_lw = -kInf;
    for (std::size_t i = 0; i < pilot.delay.size(); ++i) {
      if (pilot.delay[i] > gamma) {
        max_lw = std::max(max_lw, pilot.log_weight[i]);
      }
    }
    if (max_lw == -kInf) continue;  // empty elite set: redraw
    double sum_w = 0.0;
    double sum_w2 = 0.0;
    ShiftVector mean{};
    for (std::size_t i = 0; i < pilot.delay.size(); ++i) {
      if (!(pilot.delay[i] > gamma)) continue;
      const double w = std::exp(pilot.log_weight[i] - max_lw);
      sum_w += w;
      sum_w2 += w * w;
      for (std::size_t d = 0; d < kShiftDims; ++d) {
        mean[d] += w * pilot.z[i * kShiftDims + d];
      }
    }
    if (!(sum_w > 0.0)) continue;
    // Guarded update: the weighted conditional mean is heavy-tailed —
    // one maximal-weight elite draw can drag the shift far from the
    // design point. Skip (not freeze: the next round redraws with a
    // fresh seed) any round whose effective elite count is too thin
    // to trust.
    const double effective_elites = sum_w * sum_w / sum_w2;
    if (effective_elites < 8.0) continue;
    for (double& v : mean) v /= sum_w;
    const double mnorm = norm(mean);
    if (mnorm > t_max) {
      for (double& v : mean) v *= t_max / mnorm;
    }
    shift = mean;
    if (gamma == threshold_ns) reached_target = true;
    obs::log_debug("yield.ce_round", {{"round", round},
                                      {"gamma", gamma},
                                      {"target_rounds", target_rounds},
                                      {"effective_elites", effective_elites},
                                      {"shift_norm", norm(shift)}});
  }
  // The schedule never produced an accepted target-level proposal:
  // fall back to the on-ray design point (or, failing that too, plain
  // MC under a zero shift — correct, just not accelerated).
  if (!reached_target) return on_ray;
  return shift;
}

IsEstimate ImportanceSampler::estimate(double threshold_ns) const {
  return estimate_with_shift(threshold_ns, find_shift(threshold_ns));
}

IsEstimate ImportanceSampler::estimate_with_shift(
    double threshold_ns, const ShiftVector& shift) const {
  obs::TraceSpan span("yield.is", [&] {
    return obs::ArgsBuilder()
        .add("threshold_ns", threshold_ns)
        .add("max_samples", config_.max_samples)
        .str();
  });
  static obs::Counter& is_samples = obs::counter("yield.is.samples");
  static obs::Counter& is_batches = obs::counter("yield.is.batches");

  IsEstimate est;
  est.threshold_ns = threshold_ns;
  est.shift = shift;
  est.rel_err = kInf;

  DrawSet draws;
  std::size_t batch_index = 0;
  const std::size_t batch =
      std::max<std::size_t>(config_.batch_samples, 1);
  while (draws.log_weight.size() < config_.max_samples) {
    const std::size_t n =
        std::min(batch, config_.max_samples - draws.log_weight.size());
    run_batch(stage_, condition_, corner_, config_, shift, threshold_ns,
              batch_seed(config_.seed, batch_index), n, /*keep_z=*/false,
              draws);
    ++batch_index;
    is_samples.add(n);
    is_batches.add(1);
    const WeightStats stats = analyze_weights(draws.log_weight, draws.fail);
    est.p_fail = stats.p_fail;
    est.std_err = stats.std_err;
    est.ess = stats.ess;
    est.max_weight_fraction = stats.max_weight_fraction;
    est.failures = stats.failures;
    est.samples = draws.log_weight.size();
    est.rel_err = stats.p_fail > 0.0 ? stats.std_err / stats.p_fail : kInf;
    if (est.p_fail > 0.0 && est.rel_err <= config_.target_rel_err) {
      est.converged = true;
      break;
    }
  }
  obs::digest("yield.is.ess").observe(est.ess);
  return est;
}

BruteForceEstimate ImportanceSampler::brute_force(
    double threshold_ns, std::size_t max_samples,
    double target_rel_err) const {
  obs::TraceSpan span("yield.bruteforce", [&] {
    return obs::ArgsBuilder()
        .add("threshold_ns", threshold_ns)
        .add("max_samples", max_samples)
        .str();
  });
  static obs::Counter& bf_samples = obs::counter("yield.bf.samples");

  // The unshifted run shares the batching, draw path and estimator of
  // the IS loop — with all weights exactly 1 the self-normalized
  // estimate reduces to failures / n and the delta-method error to
  // the binomial sqrt(p(1-p)/n).
  IsConfig cfg = config_;
  cfg.max_samples = max_samples;
  cfg.target_rel_err = target_rel_err > 0.0 ? target_rel_err : -1.0;

  BruteForceEstimate est;
  est.threshold_ns = threshold_ns;
  est.rel_err = kInf;
  DrawSet draws;
  std::size_t batch_index = 0;
  const ShiftVector zero{};
  const std::size_t batch = std::max<std::size_t>(cfg.batch_samples, 1);
  while (draws.log_weight.size() < cfg.max_samples) {
    const std::size_t n =
        std::min(batch, cfg.max_samples - draws.log_weight.size());
    run_batch(stage_, condition_, corner_, cfg, zero, threshold_ns,
              batch_seed(cfg.seed, batch_index), n, /*keep_z=*/false, draws);
    ++batch_index;
    bf_samples.add(n);
    const WeightStats stats = analyze_weights(draws.log_weight, draws.fail);
    est.p_fail = stats.p_fail;
    est.std_err = stats.std_err;
    est.failures = stats.failures;
    est.samples = draws.log_weight.size();
    est.rel_err = stats.p_fail > 0.0 ? stats.std_err / stats.p_fail : kInf;
    if (target_rel_err > 0.0 && est.p_fail > 0.0 &&
        est.rel_err <= target_rel_err) {
      est.converged = true;
      break;
    }
  }
  return est;
}

namespace {

// Process-lifetime registry behind the manifest `yield_hs` section.
// Leaked singleton like the metrics registry: the section provider
// outlives every ManifestRecorder start/stop cycle.
struct YieldHsRow {
  std::string label;
  IsEstimate estimate;
};

struct YieldHsRegistry {
  static YieldHsRegistry& instance() {
    static YieldHsRegistry* registry = new YieldHsRegistry;
    return *registry;
  }

  obs::JsonValue render() const {
    // Numbers render at the manifest's %.9g: the canonical golden is
    // parse-then-reserialize of this text, and %.9g is idempotent
    // under that round trip (17 digits would not survive canon and
    // break the zero-tolerance yield-gate diff).
    using obs::json_number;
    std::lock_guard<std::mutex> lock(mutex);
    obs::JsonValue out = obs::json_array();
    for (const YieldHsRow& row : rows) {
      const IsEstimate& e = row.estimate;
      obs::JsonValue shift = obs::json_array();
      for (const double v : e.shift) shift.array.push_back(json_number(v));
      out.array.push_back(obs::json_object(
          {{"label", obs::json_string(row.label)},
           {"sigma", json_number(e.sigma_level)},
           {"threshold_ns", json_number(e.threshold_ns)},
           {"p_fail", json_number(e.p_fail)},
           {"std_err", json_number(e.std_err)},
           {"rel_err", json_number(e.rel_err)},
           {"samples", json_number(static_cast<double>(e.samples))},
           {"failures", json_number(static_cast<double>(e.failures))},
           {"ess", json_number(e.ess)},
           {"max_weight_fraction", json_number(e.max_weight_fraction)},
           {"converged", obs::json_bool(e.converged)},
           {"shift", std::move(shift)}}));
    }
    return obs::json_object({{"rows", std::move(out)}});
  }

  mutable std::mutex mutex;
  std::vector<YieldHsRow> rows;
  bool provider_registered = false;
};

}  // namespace

void record_yield_hs(std::string_view label, const IsEstimate& estimate) {
  YieldHsRegistry& registry = YieldHsRegistry::instance();
  bool need_provider = false;
  {
    std::lock_guard<std::mutex> lock(registry.mutex);
    registry.rows.push_back(YieldHsRow{std::string(label), estimate});
    if (!registry.provider_registered) {
      registry.provider_registered = true;
      need_provider = true;
    }
  }
  if (need_provider) {
    obs::ManifestRecorder::instance().set_section_provider(
        "yield_hs", [] { return YieldHsRegistry::instance().render(); });
  }
}

obs::JsonValue yield_hs_section() {
  return YieldHsRegistry::instance().render();
}

void clear_yield_hs() {
  YieldHsRegistry& registry = YieldHsRegistry::instance();
  std::lock_guard<std::mutex> lock(registry.mutex);
  registry.rows.clear();
}

}  // namespace lvf2::yield
