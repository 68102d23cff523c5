// google-benchmark microbenchmarks: cost of the statistical kernels
// and the fitting pipeline, including the binned-vs-raw likelihood
// ablation called out in DESIGN.md (decision 1).

#include <benchmark/benchmark.h>

#include <cstdlib>
#include <string>
#include <utility>
#include <vector>

#include "bench_util.h"
#include "cache/cache.h"
#include "cells/characterize.h"
#include "cells/library.h"
#include "core/em.h"
#include "core/lvf2_model.h"
#include "exec/pool.h"
#include "core/mixture_ops.h"
#include "core/model_factory.h"
#include "obs/obs.h"
#include "robust/faults.h"
#include "serve/handlers.h"
#include "serve/protocol.h"
#include "serve/reqtrace.h"
#include "simd/simd.h"
#include "spice/cellsim.h"
#include "spice/montecarlo.h"
#include "stats/grid_pdf.h"
#include "stats/lhs.h"
#include "stats/skew_normal.h"
#include "stats/special_functions.h"

using namespace lvf2;

namespace {

std::vector<double> bimodal_samples(std::size_t n) {
  spice::StageElectrical stage;
  stage.mechanism_gain = 2.0;
  spice::McConfig cfg;
  cfg.samples = n;
  cfg.seed = 42;
  return spice::run_monte_carlo(stage, {0.05, 0.02},
                                spice::ProcessCorner{}, cfg)
      .delay_ns;
}

void BM_NormalCdf(benchmark::State& state) {
  double x = -4.0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(stats::normal_cdf(x));
    x += 1e-6;
  }
}
BENCHMARK(BM_NormalCdf);

void BM_OwensT(benchmark::State& state) {
  double h = 0.1;
  for (auto _ : state) {
    benchmark::DoNotOptimize(stats::owens_t(h, 2.3));
    h += 1e-6;
  }
}
BENCHMARK(BM_OwensT);

void BM_SkewNormalLogPdf(benchmark::State& state) {
  const stats::SkewNormal sn(0.1, 0.01, 2.0);
  double x = 0.05;
  for (auto _ : state) {
    benchmark::DoNotOptimize(sn.log_pdf(x));
    x += 1e-9;
  }
}
BENCHMARK(BM_SkewNormalLogPdf);

void BM_SkewNormalCdf(benchmark::State& state) {
  const stats::SkewNormal sn(0.1, 0.01, 2.0);
  double x = 0.05;
  for (auto _ : state) {
    benchmark::DoNotOptimize(sn.cdf(x));
    x += 1e-9;
  }
}
BENCHMARK(BM_SkewNormalCdf);

// ---- Batch kernel throughput (src/simd), per dispatch tier. ----
// The benchmark Arg is the simd::Tier (0 scalar, 2 avx2);
// tiers the host cannot run are skipped, so one binary covers any
// machine. Per-iteration time divided by kKernelBatch is the cost per
// sample; the recorded JSON keys keep the /tier suffix.

constexpr std::size_t kKernelBatch = 4096;

std::vector<double> kernel_inputs(double lo, double hi) {
  std::vector<double> x(kKernelBatch);
  for (std::size_t i = 0; i < kKernelBatch; ++i) {
    x[i] = lo + (hi - lo) * static_cast<double>(i) /
                    static_cast<double>(kKernelBatch - 1);
  }
  return x;
}

// Selects the benched tier for the duration of one benchmark run and
// restores the dispatched tier afterwards.
class TierGuard {
 public:
  explicit TierGuard(simd::Tier tier)
      : prev_(simd::set_tier_for_testing(tier)) {}
  ~TierGuard() { simd::set_tier_for_testing(prev_); }

 private:
  simd::Tier prev_;
};

bool skip_unavailable(benchmark::State& state, simd::Tier tier) {
  if (simd::tier_available(tier)) return false;
  state.SkipWithError("simd tier unavailable on this host");
  return true;
}

void tally_batch(benchmark::State& state, simd::Tier tier) {
  state.SetLabel(simd::tier_name(tier));
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(kKernelBatch));
}

void BM_NormalCdfKernel(benchmark::State& state) {
  const auto tier = static_cast<simd::Tier>(state.range(0));
  if (skip_unavailable(state, tier)) return;
  const TierGuard guard(tier);
  const std::vector<double> x = kernel_inputs(-8.0, 8.0);
  std::vector<double> out(kKernelBatch);
  for (auto _ : state) {
    simd::normal_cdf(x, out);
    benchmark::DoNotOptimize(out.data());
    benchmark::ClobberMemory();
  }
  tally_batch(state, tier);
}
BENCHMARK(BM_NormalCdfKernel)->Arg(0)->Arg(2);

void BM_OwensTKernel(benchmark::State& state) {
  const auto tier = static_cast<simd::Tier>(state.range(0));
  if (skip_unavailable(state, tier)) return;
  const TierGuard guard(tier);
  const std::vector<double> h = kernel_inputs(-4.0, 4.0);
  std::vector<double> out(kKernelBatch);
  for (auto _ : state) {
    simd::owens_t(h, 2.3, out);
    benchmark::DoNotOptimize(out.data());
    benchmark::ClobberMemory();
  }
  tally_batch(state, tier);
}
BENCHMARK(BM_OwensTKernel)->Arg(0)->Arg(2);

void BM_SkewNormalLogPdfKernel(benchmark::State& state) {
  const auto tier = static_cast<simd::Tier>(state.range(0));
  if (skip_unavailable(state, tier)) return;
  const TierGuard guard(tier);
  const std::vector<double> x = kernel_inputs(0.05, 0.15);
  std::vector<double> out(kKernelBatch);
  for (auto _ : state) {
    simd::sn_log_pdf(0.1, 0.01, 2.0, x, out);
    benchmark::DoNotOptimize(out.data());
    benchmark::ClobberMemory();
  }
  tally_batch(state, tier);
}
BENCHMARK(BM_SkewNormalLogPdfKernel)->Arg(0)->Arg(2);

void BM_SkewNormalCdfKernel(benchmark::State& state) {
  const auto tier = static_cast<simd::Tier>(state.range(0));
  if (skip_unavailable(state, tier)) return;
  const TierGuard guard(tier);
  const std::vector<double> x = kernel_inputs(0.05, 0.15);
  std::vector<double> out(kKernelBatch);
  for (auto _ : state) {
    simd::sn_cdf(0.1, 0.01, 2.0, x, out);
    benchmark::DoNotOptimize(out.data());
    benchmark::ClobberMemory();
  }
  tally_batch(state, tier);
}
BENCHMARK(BM_SkewNormalCdfKernel)->Arg(0)->Arg(2);

// The fused M-step pass (NLL + score + Hessian) over one batch.
void BM_SkewNormalNllScoreKernel(benchmark::State& state) {
  const auto tier = static_cast<simd::Tier>(state.range(0));
  if (skip_unavailable(state, tier)) return;
  const TierGuard guard(tier);
  const std::vector<double> x = kernel_inputs(0.05, 0.15);
  const std::vector<double> w(kKernelBatch, 1.0);
  for (auto _ : state) {
    benchmark::DoNotOptimize(simd::sn_weighted_nll_score(0.1, 0.01, 2.0, x, w));
  }
  tally_batch(state, tier);
}
BENCHMARK(BM_SkewNormalNllScoreKernel)->Arg(0)->Arg(2);

void BM_EmResponsibilitiesKernel(benchmark::State& state) {
  const auto tier = static_cast<simd::Tier>(state.range(0));
  if (skip_unavailable(state, tier)) return;
  const TierGuard guard(tier);
  const std::vector<double> x = kernel_inputs(0.05, 0.15);
  std::vector<double> lpa(kKernelBatch), lpb(kKernelBatch);
  simd::sn_log_pdf(0.09, 0.010, 1.5, x, lpa);
  simd::sn_log_pdf(0.12, 0.014, -0.5, x, lpb);
  std::vector<double> resp(kKernelBatch), lse(kKernelBatch);
  for (auto _ : state) {
    simd::em_responsibilities(-0.51, -0.92, lpa, lpb, resp, lse);
    benchmark::DoNotOptimize(resp.data());
    benchmark::ClobberMemory();
  }
  tally_batch(state, tier);
}
BENCHMARK(BM_EmResponsibilitiesKernel)->Arg(0)->Arg(2);

void BM_NormalQuantileKernel(benchmark::State& state) {
  const auto tier = static_cast<simd::Tier>(state.range(0));
  if (skip_unavailable(state, tier)) return;
  const TierGuard guard(tier);
  const std::vector<double> p = kernel_inputs(1e-6, 1.0 - 1e-6);
  std::vector<double> out(kKernelBatch);
  for (auto _ : state) {
    simd::normal_quantile(p, out);
    benchmark::DoNotOptimize(out.data());
    benchmark::ClobberMemory();
  }
  tally_batch(state, tier);
}
BENCHMARK(BM_NormalQuantileKernel)->Arg(0)->Arg(2);

void BM_McSampleThroughput(benchmark::State& state) {
  const spice::StageElectrical stage;
  const spice::ProcessCorner corner;
  const spice::VariationSampler sampler(corner);
  stats::Rng rng(1);
  const auto draws = sampler.sample_lhs(1024, rng);
  std::size_t i = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(spice::simulate_stage(
        stage, {0.05, 0.05}, corner, draws[i++ & 1023]));
  }
}
BENCHMARK(BM_McSampleThroughput);

void BM_LhsDesign(benchmark::State& state) {
  const auto n = static_cast<std::size_t>(state.range(0));
  stats::Rng rng(1);
  for (auto _ : state) {
    benchmark::DoNotOptimize(stats::lhs_normal(n, 7, rng));
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(n));
}
BENCHMARK(BM_LhsDesign)->Arg(1024)->Arg(16384);

// SoA batch variant of the sample loop above: per-condition
// invariants hoisted once, outputs written to SoA slices.
void BM_McSampleBatch(benchmark::State& state) {
  const spice::StageElectrical stage;
  const spice::ProcessCorner corner;
  const spice::VariationSampler sampler(corner);
  stats::Rng rng(1);
  const auto draws = sampler.sample_lhs(1024, rng);
  std::vector<double> delay(draws.size()), transition(draws.size());
  for (auto _ : state) {
    spice::simulate_stage_batch(stage, {0.05, 0.05}, corner, draws, delay,
                                transition);
    benchmark::DoNotOptimize(delay.data());
    benchmark::ClobberMemory();
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(draws.size()));
}
BENCHMARK(BM_McSampleBatch);

// L1 of the layer ladder: one skew-normal weighted M-step — the
// damped Newton SkewNormal::fit_weighted_mle that EM runs per
// component per iteration, at the default iteration cap — on 512
// bins of 20k SN(0.1, 0.01, 4) draws, per tier. It starts from the
// weighted method of moments, like the first M-step after a k-means
// start, so it sits at the costly end of what EM's warm-started
// M-steps take. Counters: Newton iterations and fused-kernel passes
// per M-step.
void BM_SkewNormalMStep(benchmark::State& state) {
  const auto tier = static_cast<simd::Tier>(state.range(0));
  if (skip_unavailable(state, tier)) return;
  const TierGuard guard(tier);
  const stats::SkewNormal truth(0.1, 0.01, 4.0);
  stats::Rng rng(7);
  std::vector<double> xs(20000);
  for (double& x : xs) x = truth.sample(rng);
  const core::FitOptions options;
  const core::WeightedData data = core::make_weighted_data(xs, options);
  const auto start = stats::SkewNormal::fit_moments(data.x, data.w);
  double iterations = 0.0, evaluations = 0.0;
  for (auto _ : state) {
    stats::MleReport report;
    benchmark::DoNotOptimize(stats::SkewNormal::fit_weighted_mle(
        data.x, data.w, &*start, stats::SkewNormal::kMaxNewtonIterations,
        &report));
    iterations += static_cast<double>(report.iterations);
    evaluations += static_cast<double>(report.evaluations);
  }
  state.counters["newton_iterations"] =
      benchmark::Counter(iterations, benchmark::Counter::kAvgIterations);
  state.counters["evaluations"] =
      benchmark::Counter(evaluations, benchmark::Counter::kAvgIterations);
  state.SetLabel(simd::tier_name(tier));
}
BENCHMARK(BM_SkewNormalMStep)
    ->Arg(0)
    ->Arg(2)
    ->Unit(benchmark::kMicrosecond);

// Cold cost of one characterization entry: Monte-Carlo + all four
// model fits + metrics, with no result cache involved (LVF2_CACHE
// unset). This is the end-to-end number the batch kernels move. The
// Arg selects the dispatch tier (0 scalar, 2 avx2) so one run records
// the scalar-vs-vector cold-entry pair side by side.
void BM_CharacterizeEntryCold(benchmark::State& state) {
  if (cache::enabled()) {
    state.SkipWithError("LVF2_CACHE is set; cold-entry bench is void");
    return;
  }
  const auto tier = static_cast<simd::Tier>(state.range(0));
  if (skip_unavailable(state, tier)) return;
  const TierGuard guard(tier);
  cells::CharacterizeOptions options;
  options.mc_samples = 2000;
  const cells::Cell inv = cells::build_cell(cells::CellFamily::kInv, 1, 1.0);
  const cells::Characterizer ch(spice::ProcessCorner{}, options);
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        ch.characterize_entry(inv, inv.arcs[0], "bench", 0, 0));
  }
  state.SetLabel(simd::tier_name(tier));
}
BENCHMARK(BM_CharacterizeEntryCold)
    ->Arg(0)
    ->Arg(2)
    ->Unit(benchmark::kMillisecond);

// Fit-cost ablation: LVF^2 EM with binned likelihood at different
// resolutions vs raw samples (bins = 0). DESIGN.md decision 1. The
// /512 row is the L2 ledger row (one production LVF^2 fit); its
// counters are the EM iterations per fit and whether it converged.
void BM_Lvf2FitBinned(benchmark::State& state) {
  const auto samples = bimodal_samples(20000);
  core::FitOptions options;
  options.likelihood_bins = static_cast<std::size_t>(state.range(0));
  core::EmReport report;
  for (auto _ : state) {
    benchmark::DoNotOptimize(core::Lvf2Model::fit(samples, options, &report));
  }
  state.counters["em_iterations"] = static_cast<double>(report.iterations);
  state.counters["converged"] = report.converged ? 1.0 : 0.0;
}
BENCHMARK(BM_Lvf2FitBinned)
    ->Arg(128)
    ->Arg(256)
    ->Arg(512)
    ->Arg(0)  // raw samples
    ->Unit(benchmark::kMillisecond);

void BM_FitModel(benchmark::State& state) {
  const auto samples = bimodal_samples(20000);
  const auto kind = static_cast<core::ModelKind>(state.range(0));
  for (auto _ : state) {
    benchmark::DoNotOptimize(core::fit_model(kind, samples));
  }
  state.SetLabel(core::to_string(kind));
}
BENCHMARK(BM_FitModel)
    ->Arg(static_cast<int>(core::ModelKind::kLvf))
    ->Arg(static_cast<int>(core::ModelKind::kNorm2))
    ->Arg(static_cast<int>(core::ModelKind::kLesn))
    ->Arg(static_cast<int>(core::ModelKind::kLvf2))
    ->Unit(benchmark::kMillisecond);

void BM_GridConvolve(benchmark::State& state) {
  const auto n = static_cast<std::size_t>(state.range(0));
  const stats::SkewNormal sn(0.1, 0.01, 2.0);
  const auto g = stats::GridPdf::from_function(
      [&sn](double x) { return sn.pdf(x); }, 0.0, 0.2, n);
  for (auto _ : state) {
    benchmark::DoNotOptimize(stats::GridPdf::convolve(g, g, 4 * n));
  }
}
BENCHMARK(BM_GridConvolve)->Arg(512)->Arg(1024)->Arg(2048)->Unit(
    benchmark::kMillisecond);

// One block-SSTA node refit (paper Section 3.4): a family refitted to
// the ~4096-point convolution of a 2048-point two-component mixture
// grid and a 2048-point stage grid. The refit EM runs on the grid
// rebinned to likelihood_bins weighted points (DESIGN.md decision 1).
void BM_RefitGrid(benchmark::State& state) {
  const auto kind = static_cast<core::ModelKind>(state.range(0));
  const stats::SkewNormal c1 = stats::SkewNormal::from_moments(1.0, 0.05, 0.3);
  const stats::SkewNormal c2 =
      stats::SkewNormal::from_moments(1.25, 0.06, -0.2);
  const stats::SkewNormal stage = stats::SkewNormal::from_moments(0.4, 0.03, 0.5);
  const auto conv = stats::GridPdf::convolve(
      stats::GridPdf::from_function(
          [&](double x) { return 0.65 * c1.pdf(x) + 0.35 * c2.pdf(x); }, 0.6,
          1.6, 2048),
      stats::GridPdf::from_function([&](double x) { return stage.pdf(x); },
                                    0.2, 0.6, 2048));
  const core::FitOptions options;
  for (auto _ : state) {
    benchmark::DoNotOptimize(core::refit_model(kind, conv, options));
  }
  state.counters["grid_points"] = static_cast<double>(conv.size());
  state.counters["weighted_points"] =
      static_cast<double>(core::make_weighted_data(conv, options).size());
  state.SetLabel(core::to_string(kind));
}
BENCHMARK(BM_RefitGrid)
    ->Arg(static_cast<int>(core::ModelKind::kNorm2))
    ->Arg(static_cast<int>(core::ModelKind::kLvf2))
    ->Unit(benchmark::kMillisecond);

// Analytic mixture convolution (grid-free SSTA sum) vs the grid
// convolution above: the moment-space operation is O(K*L) closed
// forms instead of O(n^2) grid work.
void BM_AnalyticMixtureConvolve(benchmark::State& state) {
  const core::Lvf2Model x(
      0.4, stats::SkewNormal::from_moments(0.10, 0.01, 0.4),
      stats::SkewNormal::from_moments(0.13, 0.012, 0.0));
  const core::Lvf2Model y(
      0.2, stats::SkewNormal::from_moments(0.05, 0.006, 0.1),
      stats::SkewNormal::from_moments(0.06, 0.007, 0.3));
  for (auto _ : state) {
    benchmark::DoNotOptimize(core::convolve_lvf2(x, y));
  }
}
BENCHMARK(BM_AnalyticMixtureConvolve);

// Disabled-path cost of the observability layer: the README promises
// a disabled span or counter is a single relaxed atomic load
// (< 5 ns/call). Run without LVF2_TRACE to measure the guarantee.
void BM_DisabledSpan(benchmark::State& state) {
  if (obs::trace_enabled()) {
    state.SkipWithError("LVF2_TRACE is set; disabled-path bench is void");
    return;
  }
  for (auto _ : state) {
    obs::TraceSpan span("bench.disabled");
    benchmark::DoNotOptimize(&span);
  }
}
BENCHMARK(BM_DisabledSpan);

void BM_DisabledSpanWithArgs(benchmark::State& state) {
  if (obs::trace_enabled()) {
    state.SkipWithError("LVF2_TRACE is set; disabled-path bench is void");
    return;
  }
  std::size_t i = 0;
  for (auto _ : state) {
    obs::TraceSpan span("bench.disabled", [&] {
      return obs::ArgsBuilder().add("i", i).str();
    });
    benchmark::DoNotOptimize(&span);
    ++i;
  }
}
BENCHMARK(BM_DisabledSpanWithArgs);

void BM_DisabledTraceCounter(benchmark::State& state) {
  if (obs::trace_enabled()) {
    state.SkipWithError("LVF2_TRACE is set; disabled-path bench is void");
    return;
  }
  double v = 0.0;
  for (auto _ : state) {
    obs::trace_counter("bench.disabled", v);
    v += 1.0;
  }
}
BENCHMARK(BM_DisabledTraceCounter);

// Disabled-path cost of a manifest hook: with LVF2_MANIFEST unset,
// with_manifest() is a single relaxed atomic load and the record
// lambda is never invoked — same contract as the disabled span.
void BM_DisabledManifest(benchmark::State& state) {
  if (obs::manifest_enabled()) {
    state.SkipWithError("LVF2_MANIFEST is set; disabled-path bench is void");
    return;
  }
  std::size_t i = 0;
  for (auto _ : state) {
    obs::with_manifest([&](obs::ManifestRecorder& m) {
      m.set_config("bench.never", static_cast<std::uint64_t>(i));
    });
    benchmark::DoNotOptimize(i);
    ++i;
  }
}
BENCHMARK(BM_DisabledManifest);

// Disabled-path cost of the fault-injection harness: with LVF2_FAULTS
// unset every robust::fire() hook is a single relaxed atomic load —
// the same contract as the disabled trace span above.
void BM_DisabledFaultHook(benchmark::State& state) {
  if (robust::faults_enabled()) {
    state.SkipWithError("LVF2_FAULTS is set; disabled-path bench is void");
    return;
  }
  for (auto _ : state) {
    benchmark::DoNotOptimize(robust::fire(robust::Fault::kSamplesNan));
  }
}
BENCHMARK(BM_DisabledFaultHook);

// Disabled-path cost of the result cache: with LVF2_CACHE unset,
// cache::enabled() is a single relaxed atomic load and no key is ever
// hashed — the same contract as the disabled trace span above.
void BM_DisabledCacheLookup(benchmark::State& state) {
  if (cache::enabled()) {
    state.SkipWithError("LVF2_CACHE is set; disabled-path bench is void");
    return;
  }
  for (auto _ : state) {
    benchmark::DoNotOptimize(cache::enabled());
  }
}
BENCHMARK(BM_DisabledCacheLookup);

// Disabled-path cost of the sampling profiler: with LVF2_PROFILE
// unset, a hook site (TraceSpan stage tagging) is a single relaxed
// atomic load — the same contract as the disabled trace span above.
void BM_DisabledProfilerSample(benchmark::State& state) {
  if (obs::prof::profiler_enabled()) {
    state.SkipWithError("LVF2_PROFILE is set; disabled-path bench is void");
    return;
  }
  for (auto _ : state) {
    benchmark::DoNotOptimize(obs::prof::profiler_enabled());
  }
}
BENCHMARK(BM_DisabledProfilerSample);

// Disabled-path cost of pool telemetry: with LVF2_EXEC_TELEMETRY
// unset, each fork-join chunk pays one relaxed atomic load before
// running its body.
void BM_PoolTelemetryOverhead(benchmark::State& state) {
  if (exec::telemetry_enabled()) {
    state.SkipWithError(
        "LVF2_EXEC_TELEMETRY is set; disabled-path bench is void");
    return;
  }
  for (auto _ : state) {
    benchmark::DoNotOptimize(exec::telemetry_enabled());
  }
}
BENCHMARK(BM_PoolTelemetryOverhead);

// Disabled-path cost of per-request tracing: with LVF2_ACCESS_LOG
// unset, the request path pays one relaxed atomic load per trace
// point (DESIGN.md decision 20's cost budget) — the same contract as
// the disabled trace span above.
void BM_DisabledRequestTrace(benchmark::State& state) {
  if (serve::reqtrace_enabled()) {
    state.SkipWithError(
        "LVF2_ACCESS_LOG is set; disabled-path bench is void");
    return;
  }
  for (auto _ : state) {
    benchmark::DoNotOptimize(serve::reqtrace_enabled());
  }
}
BENCHMARK(BM_DisabledRequestTrace);

// Always-on cost of a registry counter increment (relaxed fetch_add).
void BM_MetricsCounterAdd(benchmark::State& state) {
  obs::Counter& c = obs::counter("bench.counter");
  for (auto _ : state) {
    c.add(1);
  }
}
BENCHMARK(BM_MetricsCounterAdd);

// Thread-scaling of the characterization hot loop: one full arc
// (reduced 2x2 grid) at 1/2/4/8 threads. Output is byte-identical at
// every argument (per-entry seed derivation); only the wall time
// should move. Expect ~linear scaling up to the physical core count
// and a flat line beyond it.
void BM_CharacterizeArcParallel(benchmark::State& state) {
  cells::CharacterizeOptions options;
  options.grid = cells::SlewLoadGrid::reduced(4);  // 2x2
  options.mc_samples = 2000;
  const cells::Cell inv = cells::build_cell(cells::CellFamily::kInv, 1, 1.0);
  const cells::Characterizer ch(spice::ProcessCorner{}, options);
  exec::set_thread_count(static_cast<std::size_t>(state.range(0)));
  for (auto _ : state) {
    benchmark::DoNotOptimize(ch.characterize_arc(inv, inv.arcs[0]));
  }
  exec::set_thread_count(0);
  state.SetItemsProcessed(
      static_cast<std::int64_t>(state.iterations()) *
      static_cast<std::int64_t>(options.grid.rows() * options.grid.cols()));
}
BENCHMARK(BM_CharacterizeArcParallel)
    ->Arg(1)
    ->Arg(2)
    ->Arg(4)
    ->Arg(8)
    ->Unit(benchmark::kMillisecond)
    ->UseRealTime();

// Fork-join fixed cost: dispatching a near-empty job to the pool.
// This bounds the smallest work item worth parallelizing. Arg(1)
// measures the inline path (no pool involvement) as the baseline.
void BM_PoolDispatchOverhead(benchmark::State& state) {
  exec::set_thread_count(static_cast<std::size_t>(state.range(0)));
  const std::size_t n = 64;
  for (auto _ : state) {
    std::size_t sink = 0;
    exec::parallel_for(n, 1, [&](std::size_t i) {
      benchmark::DoNotOptimize(sink += i);
    });
  }
  exec::set_thread_count(0);
}
BENCHMARK(BM_PoolDispatchOverhead)
    ->Arg(1)
    ->Arg(4)
    ->UseRealTime();

void BM_StatisticalMax(benchmark::State& state) {
  const stats::SkewNormal sn(0.1, 0.01, 2.0);
  const auto g = stats::GridPdf::from_function(
      [&sn](double x) { return sn.pdf(x); }, 0.0, 0.2, 2048);
  for (auto _ : state) {
    benchmark::DoNotOptimize(stats::GridPdf::statistical_max(g, g));
  }
}
BENCHMARK(BM_StatisticalMax)->Unit(benchmark::kMicrosecond);

// L7 ledger row: one served yield_hs request (sigma 4, INV_X1 at grid
// point 0/0) through serve::handle_request, its entry already in the
// hot LRU. /0 is cold: the proposal-shift memo is cleared every
// iteration, so each request runs the pilot and then samples. /1 is
// warm: the memo holds the shift and the request only samples.
void BM_ServeYieldHs(benchmark::State& state) {
  static serve::HandlerContext ctx;
  if (ctx.library.size() == 0) ctx.library = cells::build_paper_library();
  serve::Request request;
  if (!serve::parse_request(
           R"({"id":1,"op":"yield_hs","params":{"cell":"INV_X1",)"
           R"("load_idx":0,"slew_idx":0,"sigma":4,"max_samples":16384}})",
           request)
           .is_ok()) {
    state.SkipWithError("bad yield_hs request");
    return;
  }
  const bool warm = state.range(0) == 1;
  serve::handle_request(ctx, request, serve::ExecMode::kFull);  // entry
  for (auto _ : state) {
    if (!warm) ctx.yield_shift.clear();
    benchmark::DoNotOptimize(
        serve::handle_request(ctx, request, serve::ExecMode::kFull));
  }
  state.SetLabel(warm ? "warm" : "cold");
}
BENCHMARK(BM_ServeYieldHs)->Arg(0)->Arg(1)->Unit(benchmark::kMillisecond);

// Forwards to the console reporter while capturing each run's
// per-iteration real time, so the scaling numbers (most importantly
// BM_CharacterizeArcParallel/{1,2,4,8}) land in BENCH_perf_micro.json
// when LVF2_BENCH_JSON names a directory. Per-iteration counters
// (BM_SkewNormalMStep's Newton iterations and evaluations) ride along
// as <name>/<counter>; throughput rates stay console-only.
class RecordingReporter : public benchmark::ConsoleReporter {
 public:
  void ReportRuns(const std::vector<Run>& runs) override {
    for (const Run& run : runs) {
      if (run.error_occurred) continue;
      results.emplace_back(run.benchmark_name(), run.GetAdjustedRealTime());
      for (const auto& [name, counter] : run.counters) {
        if (counter.flags & benchmark::Counter::kIsRate) continue;
        results.emplace_back(run.benchmark_name() + "/" + name,
                             counter.value);
      }
    }
    benchmark::ConsoleReporter::ReportRuns(runs);
  }

  std::vector<std::pair<std::string, double>> results;
};

}  // namespace

int main(int argc, char** argv) {
  benchmark::Initialize(&argc, argv);
  if (benchmark::ReportUnrecognizedArguments(argc, argv)) return 1;
  RecordingReporter reporter;
  benchmark::RunSpecifiedBenchmarks(&reporter);
  const char* dir = std::getenv("LVF2_BENCH_JSON");
  if (dir != nullptr && dir[0] != '\0') {
    // Keys are the benchmark names with JSON-hostile characters
    // flattened; values are per-iteration real times in each bench's
    // own time unit (ns unless the bench sets one).
    bench::PerfRecord record("perf_micro");
    bool cold_entry_recorded = false;
    for (const auto& [name, time] : reporter.results) {
      std::string key = name;
      for (char& c : key) {
        if (c == '/' || c == ':' || c == ' ' || c == '"' || c == '\\') {
          c = '_';
        }
      }
      if (key.rfind("BM_CharacterizeEntryCold", 0) == 0) {
        cold_entry_recorded = true;
      }
      record.set(key, time);
    }
    if (cold_entry_recorded) {
      // Frozen reference for the cold-entry speedup trajectory: ms per
      // characterize_entry of the pre-src/simd tree (scalar-only,
      // same loop and mc_samples as BM_CharacterizeEntryCold),
      // measured on the reference machine when the kernel layer
      // landed. Dividing it by BM_CharacterizeEntryCold_2 (avx2)
      // gives the end-to-end speedup the batch kernels bought.
      record.set("BM_CharacterizeEntryCold_pre_simd_scalar_baseline_ms",
                 726.0);
    }
  }
  benchmark::Shutdown();
  return 0;
}
