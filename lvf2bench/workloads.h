#pragma once
// The three workloads and the helpers they share.

#include <chrono>
#include <cstdint>
#include <map>
#include <span>
#include <string>
#include <utility>

#include "core/timing_model.h"
#include "report.h"
#include "spans.h"

namespace lvf2bench {

struct WorkloadOptions {
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  /// Scratch directory of this run (cache shards, Liberty files, the
  /// serve socket); created by main and removed after the run.
  std::string run_dir;
};

/// Cold characterization of INV_X1, NAND2_X1 and XOR2_X1 plus the
/// Liberty round trip, with the result cache armed on an empty dir.
RunResult run_charlib_cold(const WorkloadOptions& options);

/// Warm lvf2d serving over a Unix socket from a populated cache.
RunResult run_serve_warm(const WorkloadOptions& options);

/// ssta::assess_path on the 16-bit adder critical path.
RunResult run_path_ssta(const WorkloadOptions& options);

/// Number of set-up repetitions whose median is reported as setup_s.
inline constexpr int kSetupRepeats = 5;

inline double seconds_since(Clock::time_point start) {
  return std::chrono::duration<double>(Clock::now() - start).count();
}

/// Wall time of fn() in seconds.
template <typename F>
double time_s(F&& fn) {
  const Clock::time_point start = Clock::now();
  std::forward<F>(fn)();
  return seconds_since(start);
}

/// Total duration of one span name in a rollup, in ms (0 if absent).
double total_ms(const std::map<std::string, SpanRollup>& spans,
                const std::string& name);

/// Self time of the recording's `bench.pass` roots, in ms: time inside
/// the traced pass that no layer span covers.
double unattributed_ms();

/// Machine fingerprint: CPU model, nproc, SIMD tier, build type,
/// compiler, exec thread count and the source revision.
std::string fingerprint_json(const std::string& revision);

double peak_rss_mb();

/// Paper Eq. 12 binning-error reduction of `model` over `baseline`
/// against a golden sample set (boundaries at the golden mu +/- k
/// sigma, errors clamped at the golden set's Monte-Carlo floor).
double binning_reduction(std::span<const double> golden,
                         const lvf2::core::TimingModel& model,
                         const lvf2::core::TimingModel& baseline);

}  // namespace lvf2bench
