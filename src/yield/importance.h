#pragma once
// High-sigma yield estimation by self-normalized importance sampling.
//
// Brute-force Monte Carlo needs ~(1-p)/(p*re^2) samples to estimate a
// failure probability p at relative error re — hopeless past ~4 sigma
// (p = 3e-5 at 4 sigma already wants 3e7 samples for re = 0.1). The
// engine here instead draws from a defensive mean-shifted mixture
// proposal in the 7-dimensional standard-normal space of the process
// variations (spice::VariationSampler maps z to physical units):
//
//   q(z) = alpha * phi(z) + (1 - alpha) * phi(z - s)
//
// A (1 - alpha) fraction of the draws is shifted by s onto the
// failure boundary, so failures stop being rare under q; the alpha
// fraction stays on the nominal density, which bounds every
// likelihood ratio w(z) = phi(z)/q(z) by 1/alpha (Hesterberg's
// defensive mixture). Without the defensive component a
// 7-dimensional mean shift self-normalizes terribly — E_q[w^2] =
// exp(|s|^2) blows up the weight variance and the effective sample
// size collapses to a handful of draws; with it ESS >= alpha * n by
// construction. Weights accumulate in log space:
//
//   log w(z) = l0 - logsumexp(log(alpha) + l0, log(1 - alpha) + l1),
//   l0 = sum_d log phi(z_d),   l1 = sum_d log phi(z_d - s_d)
//
// The estimate is self-normalized, p = sum(w*1{fail}) / sum(w): the
// normal densities' shared constants cancel exactly and the estimator
// is invariant to any constant offset of the log-weights, which is
// what makes the log-sum-exp evaluation safe at large shifts. The
// price is a small O(1/ESS) bias, negligible once the defensive
// component holds the ESS up (DESIGN.md decision 22).
//
// The shift is chosen by quantile-scheduled cross-entropy starting
// from the NOMINAL proposal: each pilot round thresholds its batch at
// the 90th delay percentile (capped at the target threshold) and
// re-centers the shift on the phi/q-weighted mean of the draws above
// it, walking toward the failure region until the schedule reaches
// the target; an effective-elite-count guard skips heavy-tailed
// updates. A multi-start FORM-style search (boundary bisection along
// a fan of candidate rays: the central-difference gradient at z = 0,
// every coordinate axis in both signs, a seeded spread of random unit
// vectors) supplies the fallback design point when refinement is
// disabled or CE never reaches the target — fallback, not anchor,
// because for bimodal responses on-ray threshold crossings land in
// the far tail where phi-mass is negligible, and CE anchored there
// never walks (DESIGN.md decision 22). The shift is frozen before
// estimation begins — weights are only valid for the proposal that
// actually generated the draws.
//
// Determinism: proposals are Latin-Hypercube stratified and generated
// in seed-sharded contiguous slices exactly like spice::run_monte_carlo
// (one rng per shard, seed = combine_seed(seed, shard + 1), serial
// fixed-order reduction), so every estimate is byte-identical at any
// thread count, and a zero shift reproduces the plain MC sample set
// bitwise.
//
// Diagnostics: every estimate carries the effective sample size
// ESS = (sum w)^2 / sum w^2 and the largest normalized weight; a
// collapsed ESS or a single dominating weight is the classic sign of
// a bad proposal, and the yield gate asserts on both.

#include <array>
#include <cstddef>
#include <cstdint>
#include <span>
#include <string>
#include <string_view>

#include "obs/json.h"
#include "spice/cellsim.h"
#include "spice/process.h"

namespace lvf2::yield {

/// Dimensionality of the proposal space (one shift per process
/// variation dimension).
inline constexpr std::size_t kShiftDims = spice::VariationSample::kDimensions;

/// A proposal mean shift in standard-normal (z) space.
using ShiftVector = std::array<double, kShiftDims>;

/// Importance-sampling run configuration.
struct IsConfig {
  /// Samples drawn between convergence checks.
  std::size_t batch_samples = 8192;
  /// Hard sample budget; the estimate is returned unconverged when
  /// the relative-error target is still unmet at the budget.
  std::size_t max_samples = 262144;
  /// Stop once std_err / p_fail drops to this (with p_fail > 0).
  double target_rel_err = 0.10;
  std::uint64_t seed = 0x1234;
  /// Sampling shards per batch, exactly as spice::McConfig::shards:
  /// 1 reproduces the single-stream draw order, > 1 derives one seed
  /// per shard and generates shards in parallel (deterministic for a
  /// fixed shard count at any thread count).
  std::size_t shards = 1;
  /// Latin Hypercube (stratified) proposals vs plain MC.
  bool use_lhs = true;
  /// Mass of the defensive (unshifted) mixture component: bounds
  /// every likelihood ratio by 1/alpha and keeps ESS >= alpha * n.
  static constexpr double kDefensiveAlpha = 0.5;

  // Pilot (shift search) knobs.
  /// Draws per cross-entropy refinement round (0 disables refinement
  /// together with refine_iterations = 0).
  std::size_t pilot_samples = 2048;
  /// Target-level cross-entropy polish rounds. The quantile schedule
  /// runs as many extra sub-target walking rounds as it needs first
  /// (capped internally); 0 disables refinement entirely.
  std::size_t refine_iterations = 2;
  /// Central-difference step in z units for the pilot gradient.
  static constexpr double kGradientStep = 0.05;
  /// Cap on |shift| in z units (8 sigma of joint shift is already far
  /// beyond any yield target this engine serves).
  static constexpr double kMaxShiftNorm = 8.0;
};

/// One importance-sampling estimate with its diagnostics.
struct IsEstimate {
  double threshold_ns = 0.0;  ///< failure boundary: delay > threshold
  double sigma_level = 0.0;   ///< caller-set label (mu + sigma*sd), 0 when n/a
  double p_fail = 0.0;        ///< self-normalized failure probability
  double std_err = 0.0;       ///< delta-method standard error of p_fail
  double rel_err = 0.0;       ///< std_err / p_fail (inf while p_fail == 0)
  std::size_t samples = 0;    ///< proposal draws consumed
  std::size_t failures = 0;   ///< draws past the threshold
  double ess = 0.0;           ///< effective sample size, in (0, samples]
  double max_weight_fraction = 0.0;  ///< largest normalized weight
  ShiftVector shift{};        ///< proposal mean shift used
  bool converged = false;     ///< hit target_rel_err within max_samples
};

/// One brute-force (unshifted) Monte-Carlo estimate — the baseline
/// the bench and the accuracy gate compare against.
struct BruteForceEstimate {
  double threshold_ns = 0.0;
  double p_fail = 0.0;
  double std_err = 0.0;  ///< sqrt(p(1-p)/n), the binomial error
  double rel_err = 0.0;
  std::size_t samples = 0;
  std::size_t failures = 0;
  bool converged = false;
};

/// Normalized-weight diagnostics of one weighted sample set, computed
/// with a single log-sum-exp pass. Exposed (with analyze_weights) for
/// the statistical property tests.
struct WeightStats {
  double p_fail = 0.0;    ///< sum(w*fail) / sum(w)
  double std_err = 0.0;   ///< delta-method SE of p_fail
  double ess = 0.0;       ///< (sum w)^2 / sum w^2
  double max_weight_fraction = 0.0;
  double normalized_sum = 0.0;  ///< sum of w_i / sum(w) — 1 by construction
  std::size_t failures = 0;
};

/// Self-normalized estimate + diagnostics from raw log-weights and
/// failure flags (fail[i] != 0 means draw i crossed the threshold).
/// Invariant under any constant offset of the log-weights.
WeightStats analyze_weights(std::span<const double> log_weights,
                            std::span<const unsigned char> fail);

/// The number of plain Monte-Carlo samples a binomial estimator needs
/// to reach relative error `rel_err` at failure probability `p_fail`:
/// (1 - p) / (p * re^2). The "brute-force equivalent" yardstick of
/// bench_yield_sigma.
double brute_force_equivalent_samples(double p_fail, double rel_err);

/// Importance-sampling yield estimator for one arc at one condition.
/// Immutable after construction; all methods are const and
/// deterministic functions of (config, threshold).
class ImportanceSampler {
 public:
  ImportanceSampler(const spice::StageElectrical& stage,
                    const spice::ArcCondition& condition,
                    const spice::ProcessCorner& corner, const IsConfig& config);

  /// Deterministic pilot: quantile-scheduled cross-entropy from the
  /// nominal proposal, falling back to multi-start boundary bisection
  /// over a fan of candidate rays when refinement is disabled or
  /// never reaches the target threshold.
  /// Returns the zero shift when the nominal point already fails.
  ShiftVector find_shift(double threshold_ns) const;

  /// find_shift + estimate_with_shift.
  IsEstimate estimate(double threshold_ns) const;

  /// Runs the batched relative-error-stopped estimation under a fixed
  /// proposal shift. A zero shift degenerates to plain Monte Carlo
  /// (all weights exactly 1, same draws as spice::run_monte_carlo).
  IsEstimate estimate_with_shift(double threshold_ns,
                                 const ShiftVector& shift) const;

  /// Unshifted baseline with the same batching, draw path and
  /// stopping rule; `target_rel_err` <= 0 disables early stopping
  /// and always consumes `max_samples`.
  BruteForceEstimate brute_force(double threshold_ns,
                                 std::size_t max_samples,
                                 double target_rel_err) const;

  /// Delay of the deterministic die at standard-normal point z —
  /// the pilot's probe, exposed for tests.
  double delay_at(const ShiftVector& z) const;

  const IsConfig& config() const { return config_; }

 private:
  spice::StageElectrical stage_;
  spice::ArcCondition condition_;
  spice::ProcessCorner corner_;
  IsConfig config_;
};

/// Appends one estimate to the manifest `yield_hs` section (rows keep
/// insertion order; the provider is registered on first use).
void record_yield_hs(std::string_view label, const IsEstimate& estimate);

/// The `yield_hs` section document (test support).
obs::JsonValue yield_hs_section();

/// Drops all recorded rows (test support).
void clear_yield_hs();

}  // namespace lvf2::yield
