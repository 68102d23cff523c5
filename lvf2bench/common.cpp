#include <cstdlib>
#include <fstream>
#include <thread>

#include "core/binning.h"
#include "exec/pool.h"
#include "obs/json.h"
#include "simd/simd.h"
#include "stats/descriptive.h"
#include "workloads.h"

#ifndef LVF2BENCH_BUILD_TYPE
#define LVF2BENCH_BUILD_TYPE "unknown"
#endif

namespace lvf2bench {

namespace {

std::string cpu_model() {
  std::ifstream in("/proc/cpuinfo");
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind("model name", 0) == 0) {
      const std::size_t colon = line.find(':');
      if (colon != std::string::npos) {
        std::size_t start = colon + 1;
        while (start < line.size() && line[start] == ' ') ++start;
        return line.substr(start);
      }
    }
  }
  return "unknown";
}

}  // namespace

double total_ms(const std::map<std::string, SpanRollup>& spans,
                const std::string& name) {
  const auto it = spans.find(name);
  return it == spans.end() ? 0.0 : it->second.total_ms;
}

double unattributed_ms() {
  const std::vector<Span> spans = SpanRecorder::instance().snapshot();
  const std::vector<double> self = self_times_ms(spans);
  double total = 0.0;
  for (std::size_t i = 0; i < spans.size(); ++i) {
    if (spans[i].name == "bench.pass") total += self[i];
  }
  return total;
}

std::string fingerprint_json(const std::string& revision) {
  using lvf2::obs::json_append_string;
  std::string out = "{\"cpu\":";
  json_append_string(out, cpu_model());
  out += ",\"nproc\":" + std::to_string(std::thread::hardware_concurrency());
  out += ",\"simd\":";
  json_append_string(out, lvf2::simd::tier_name(lvf2::simd::active_tier()));
  out += ",\"build_type\":";
  json_append_string(out, LVF2BENCH_BUILD_TYPE);
  out += ",\"compiler\":";
#if defined(__clang__)
  json_append_string(out, std::string("clang ") + __clang_version__);
#elif defined(__GNUC__)
  json_append_string(out, std::string("gcc ") + __VERSION__);
#else
  json_append_string(out, "unknown");
#endif
  out += ",\"threads\":" + std::to_string(lvf2::exec::thread_count());
  out += ",\"revision\":";
  json_append_string(out, revision);
  return out + "}";
}

double peak_rss_mb() {
  // VmHWM belongs to this program's address space; getrusage's
  // ru_maxrss would also count the launcher the process was forked from.
  std::ifstream in("/proc/self/status");
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind("VmHWM:", 0) == 0) {
      return std::strtod(line.c_str() + 6, nullptr) / 1024.0;  // kB
    }
  }
  return 0.0;
}

double binning_reduction(std::span<const double> golden,
                         const lvf2::core::TimingModel& model,
                         const lvf2::core::TimingModel& baseline) {
  namespace core = lvf2::core;
  const lvf2::stats::EmpiricalCdf golden_cdf(golden);
  const lvf2::stats::Moments m = lvf2::stats::compute_moments(golden);
  const std::vector<double> bounds = core::sigma_bin_boundaries(m.mean, m.stddev);
  const std::vector<double> golden_bins =
      core::bin_probabilities(golden_cdf, bounds);
  const double model_err =
      core::binning_error(core::bin_probabilities(model, bounds), golden_bins);
  const double baseline_err = core::binning_error(
      core::bin_probabilities(baseline, bounds), golden_bins);
  return core::error_reduction(baseline_err, model_err,
                               core::binning_error_floor(golden.size()));
}

}  // namespace lvf2bench
