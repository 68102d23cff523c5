// path-ssta: ssta::assess_path on circuits::build_adder_critical_path
// (16-bit ripple-carry carry chain, 17 stages) — per-stage path Monte
// Carlo, all four model fits per stage, and ssta_sum + refit_model at
// every stage. It runs serially, so exec changes should not move it,
// and it is the only workload on the Norm^2, LESN and weighted-grid
// refit EM paths.
//
// The traced pass replays assess_path step by step through the public
// calls it makes (run_path_monte_carlo, fit_model, to_grid, ssta_sum,
// refit_model), with a span around each, and must reproduce the
// untraced binning reductions bit for bit.

#include <array>
#include <cctype>
#include <cmath>
#include <map>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "circuits/adder.h"
#include "core/binning.h"
#include "core/model_factory.h"
#include "obs/metrics.h"
#include "ssta/block_ssta.h"
#include "ssta/mc_ssta.h"
#include "ssta/path_analysis.h"
#include "stats.h"
#include "stats/descriptive.h"
#include "stats/rng.h"
#include "workloads.h"

namespace lvf2bench {

namespace {

using namespace lvf2;

/// Distinct input sets per run (see workload_charlib.cpp): pass k
/// assesses set k mod kInputSets, whose path-MC and fit seeds derive
/// from the run seed.
constexpr std::size_t kInputSets = 2;
/// Stages of the set-up warm-up.
constexpr std::size_t kWarmStages = 3;

ssta::PathAssessmentOptions path_options(std::uint64_t seed) {
  ssta::PathAssessmentOptions options;
  options.mc.seed = stats::combine_seed(options.mc.seed, seed);
  options.fit.seed = stats::combine_seed(options.fit.seed, seed);
  return options;
}

std::string kind_key(core::ModelKind kind) {
  std::string name = core::to_string(kind);
  for (char& c : name) c = static_cast<char>(std::tolower(c));
  return name;  // "lvf2", "norm2", "lesn", "lvf"
}

/// assess_path, one public call at a time, spans around each. Returns
/// the per-stage binning reductions (all_model_kinds() order).
std::vector<std::array<double, 4>> traced_assessment(
    const ssta::TimingPath& path, const spice::ProcessCorner& corner,
    const ssta::PathAssessmentOptions& options) {
  ScopedSpan pass_span("bench.pass");
  const std::size_t depth = path.stages.size();
  ssta::PathMcResult golden;
  {
    ScopedSpan span("ssta.path_mc");
    golden = ssta::run_path_monte_carlo(path, corner, options.mc);
  }
  const auto kinds = core::all_model_kinds();
  std::array<std::vector<stats::GridPdf>, 4> stage_pdfs;
  for (std::size_t i = 0; i < depth; ++i) {
    core::FitOptions fit = options.fit;
    fit.seed = stats::combine_seed(fit.seed, i + 1);
    for (std::size_t k = 0; k < kinds.size(); ++k) {
      std::unique_ptr<core::TimingModel> model;
      {
        ScopedSpan span("core.fit." + kind_key(kinds[k]));
        model = core::fit_model(kinds[k], golden.stage_delays[i], fit);
      }
      ScopedSpan span("core.to_grid");
      if (!model) {
        const stats::Moments m =
            stats::compute_moments(golden.stage_delays[i]);
        stage_pdfs[k].push_back(stats::GridPdf::from_function(
            [](double) { return 1.0; }, m.mean - 1e-6, m.mean + 1e-6,
            options.model_grid_points));
        continue;
      }
      stage_pdfs[k].push_back(model->to_grid(options.model_grid_points, 8.0));
    }
  }
  std::array<std::vector<stats::GridPdf>, 4> cumulative;
  for (std::size_t k = 0; k < kinds.size(); ++k) {
    stats::GridPdf carried = stage_pdfs[k].front();
    cumulative[k].push_back(carried);
    for (std::size_t i = 1; i < depth; ++i) {
      stats::GridPdf conv;
      {
        ScopedSpan span("ssta.sum");
        conv = ssta::ssta_sum(carried, stage_pdfs[k][i], options.ssta);
      }
      core::FitOptions fit = options.fit;
      fit.seed = stats::combine_seed(fit.seed, 1000 + i);
      std::unique_ptr<core::TimingModel> refit;
      {
        ScopedSpan span("core.refit." + kind_key(kinds[k]));
        refit = core::refit_model(kinds[k], conv, fit);
      }
      ScopedSpan span("core.to_grid");
      carried = refit ? refit->to_grid(options.model_grid_points, 8.0) : conv;
      cumulative[k].push_back(carried);
    }
  }
  std::vector<std::array<double, 4>> reductions(depth);
  ScopedSpan span("core.binning");
  const std::size_t lvf_index = kinds.size() - 1;
  for (std::size_t i = 0; i < depth; ++i) {
    const stats::EmpiricalCdf golden_cdf(golden.cumulative[i]);
    const stats::Moments gm = stats::compute_moments(golden.cumulative[i]);
    const std::vector<double> bounds =
        core::sigma_bin_boundaries(gm.mean, gm.stddev);
    const std::vector<double> golden_bins =
        core::bin_probabilities(golden_cdf, bounds);
    std::array<double, 4> err{};
    for (std::size_t k = 0; k < kinds.size(); ++k) {
      const stats::GridPdf& dist = cumulative[k][i];
      err[k] = core::binning_error(
          core::bin_probabilities([&dist](double x) { return dist.cdf(x); },
                                  bounds),
          golden_bins);
    }
    for (std::size_t k = 0; k < kinds.size(); ++k) {
      reductions[i][k] = core::error_reduction(
          err[lvf_index], err[k],
          core::binning_error_floor(options.mc.samples));
    }
  }
  return reductions;
}

void check_assessment(const ssta::PathAssessment& a, std::size_t depth,
                      RunResult& result) {
  std::uint64_t bad = 0;
  for (std::size_t i = 0; i < a.binning_reduction.size(); ++i) {
    bool finite = true;
    for (std::size_t k = 0; k < 4; ++k) {
      finite = finite && std::isfinite(a.binning_reduction[i][k]) &&
               std::isfinite(a.cdf_rmse_reduction[i][k]);
    }
    bad += finite ? 0 : 1;
  }
  result.attempted += depth;
  result.failed += bad + (a.binning_reduction.size() == depth ? 0 : depth);
  result.check(a.binning_reduction.size() == depth,
               "assessment does not cover every stage");
  result.check(bad == 0, std::to_string(bad) + " stages with non-finite "
                                               "reductions");
  // Stage 1 is the bit-0 generate gate that follows the path's input
  // stage (stage 0), as numbered by examples/ssta_path and paper Fig. 5.
  result.check(a.binning_reduction.size() > 1 &&
                   a.binning_reduction[1][0] > 1.0,
               "stage-1 LVF^2 binning reduction is not above 1");
}

/// Set-up: build the path and the FO4 reference, and warm every fitter
/// on the first stages of a fixed-seed path Monte Carlo.
double setup_once(std::optional<ssta::TimingPath>& path,
                  const spice::ProcessCorner& corner) {
  return time_s([&] {
    path.emplace(circuits::build_adder_critical_path(circuits::AdderOptions{},
                                                     corner));
    (void)ssta::fo4_delay_ns(corner);
    ssta::TimingPath prefix;
    prefix.name = "warmup";
    prefix.stages.assign(path->stages.begin(),
                         path->stages.begin() + kWarmStages);
    ssta::PathMcConfig mc;
    mc.samples = 2000;
    const ssta::PathMcResult warm =
        ssta::run_path_monte_carlo(prefix, corner, mc);
    for (const std::vector<double>& stage : warm.stage_delays) {
      for (const core::ModelKind kind : core::all_model_kinds()) {
        (void)core::fit_model(kind, stage);
      }
    }
  });
}

}  // namespace

RunResult run_path_ssta(const WorkloadOptions& options) {
  RunResult result;
  const spice::ProcessCorner corner =
      spice::ProcessCorner::tt_global_local_mc();
  std::optional<ssta::TimingPath> path;
  std::vector<double> setups;
  for (int i = 0; i < kSetupRepeats; ++i) {
    setups.push_back(setup_once(path, corner));
  }
  const std::size_t depth = path->depth();
  std::vector<ssta::PathAssessmentOptions> sets;
  for (std::size_t k = 0; k < kInputSets; ++k) {
    sets.push_back(path_options(stats::combine_seed(options.seed, k)));
  }
  const ssta::PathAssessmentOptions& popts = sets.front();
  result.note("stages", static_cast<double>(depth));
  result.note("mc_samples", static_cast<double>(popts.mc.samples));

  if (!options.trace) {
    result.set("setup_s", median(setups));
    std::vector<double> walls;
    std::vector<double> lvf2_reductions;
    const Clock::time_point start = Clock::now();
    for (std::size_t k = 0;
         k < kInputSets || seconds_since(start) < options.seconds; ++k) {
      std::optional<ssta::PathAssessment> a;
      walls.push_back(time_s([&] {
        a = ssta::assess_path(*path, corner, sets[k % kInputSets]);
      }));
      check_assessment(*a, depth, result);
      if (k < kInputSets) {
        for (const auto& row : a->binning_reduction) {
          lvf2_reductions.push_back(row[0]);
        }
        result.note("stage1_lvf2_bin_x." + std::to_string(k),
                    a->binning_reduction[1][0]);
      }
    }
    double total_s = 0.0;
    for (const double w : walls) total_s += w;
    const LatencySummary lat = summarize(walls);
    result.set("wall_s", median(walls));
    result.set("items_per_s",
               static_cast<double>(depth * walls.size()) / total_s);
    result.set("p50_ms", lat.p50 * 1e3);
    result.note("p99_ms", lat.tail * 1e3);
    result.set("qor_bin_x", geometric_mean(lvf2_reductions));
    result.note("passes", static_cast<double>(walls.size()));
    result.note("input_sets", static_cast<double>(kInputSets));
    result.note("p99_ms_percentile", lat.tail_q * 100.0);
    return result;
  }

  // Traced run: assess_path untraced as the baseline, then the traced
  // step-by-step replay.
  std::optional<ssta::PathAssessment> plain;
  const double plain_s =
      time_s([&] { plain = ssta::assess_path(*path, corner, popts); });
  check_assessment(*plain, depth, result);
  obs::Counter& fits = obs::counter("em.fits");
  obs::Counter& iterations = obs::counter("em.iterations");
  const std::uint64_t fits0 = fits.value();
  const std::uint64_t iter0 = iterations.value();
  SpanRecorder::instance().enable(true);
  std::vector<std::array<double, 4>> replayed;
  const double traced_s =
      time_s([&] { replayed = traced_assessment(*path, corner, popts); });
  SpanRecorder::instance().enable(false);
  result.check(replayed == plain->binning_reduction,
               "traced replay differs from assess_path");

  const std::map<std::string, SpanRollup> spans =
      rollup(SpanRecorder::instance().snapshot());
  double fit_total = 0.0;
  for (const core::ModelKind kind : core::all_model_kinds()) {
    const std::string k = kind_key(kind);
    const double fit_ms = total_ms(spans, "core.fit." + k);
    const double refit_ms = total_ms(spans, "core.refit." + k);
    result.set("core.fit_ms." + k, fit_ms);
    result.set("core.refit_ms." + k, refit_ms);
    fit_total += fit_ms + refit_ms;
  }
  result.set("unattributed_ms", unattributed_ms());
  result.set("trace_overhead_frac", (traced_s - plain_s) / plain_s);
  result.set("core.em_fits", static_cast<double>(fits.value() - fits0));
  result.set("core.em_iterations",
             static_cast<double>(iterations.value() - iter0));
  result.set("core.fit_share", fit_total / (traced_s * 1e3));
  result.set("ssta.path_mc_ms", total_ms(spans, "ssta.path_mc"));
  result.set("ssta.sum_ms", total_ms(spans, "ssta.sum"));
  result.note("untraced_pass_s", plain_s);
  result.note("traced_pass_s", traced_s);
  return result;
}

}  // namespace lvf2bench
