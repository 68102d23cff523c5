#include "report.h"

#include <cmath>
#include <cstdio>
#include <set>

#include "obs/json.h"

namespace lvf2bench {

const std::vector<MetricSpec>& end_to_end_metrics() {
  static const std::vector<MetricSpec> kMetrics = {
      {"setup_s", "s", "lower"},
      {"peak_rss_mb", "MB", "lower"},
      {"wall_s", "s", "lower"},
      {"items_per_s", "1/s", "higher"},
      {"p50_ms", "ms", "lower"},
      {"qor_bin_x", "x", "higher"},
  };
  return kMetrics;
}

const std::vector<MetricSpec>& per_layer_metrics() {
  static const std::vector<MetricSpec> kMetrics = {
      {"unattributed_ms", "ms", "lower"},
      {"trace_overhead_frac", "fraction", "lower"},
      {"core.em_fits", "count", "lower"},
      {"core.em_iterations", "count", "lower"},
      {"core.em_degraded", "count", "lower"},
      {"core.lvf2_fit_ms", "ms", "lower"},
      {"core.lvf2_fit_share", "fraction", "lower"},
      {"cells.entry_p50_ms", "ms", "lower"},
      {"cells.entry_p99_ms", "ms", "lower"},
      {"spice.mc_ms", "ms", "lower"},
      {"exec.busy_frac", "fraction", "higher"},
      {"exec.speedup", "x", "higher"},
      {"cache.flush_ms", "ms", "lower"},
      {"cache.bytes_written", "bytes", "lower"},
      {"liberty.write_ms", "ms", "lower"},
      {"liberty.parse_ms", "ms", "lower"},
      {"liberty.bytes", "bytes", "lower"},
      {"serve.wire_p50_ms", "ms", "lower"},
      {"serve.rtt_p99_ms", "ms", "lower"},
      {"serve.lru_hit_frac", "fraction", "higher"},
      {"cache.lookup_p50_us", "us", "lower"},
      {"ssta.chain_p50_ms", "ms", "lower"},
      {"yield.is_p50_ms", "ms", "lower"},
      {"yield.samples_mean", "count", "lower"},
      {"yield.ess_frac", "fraction", "higher"},
      {"serve.handle_p50_ms.lookup", "ms", "lower"},
      {"serve.handle_p50_ms.path_ssta", "ms", "lower"},
      {"serve.handle_p50_ms.yield_hs", "ms", "lower"},
      {"serve.handle_p99_ms.lookup", "ms", "lower"},
      {"serve.handle_p99_ms.path_ssta", "ms", "lower"},
      {"serve.handle_p99_ms.yield_hs", "ms", "lower"},
      {"serve.degraded_frac", "fraction", "lower"},
      {"core.fit_ms.lvf2", "ms", "lower"},
      {"core.fit_ms.norm2", "ms", "lower"},
      {"core.fit_ms.lesn", "ms", "lower"},
      {"core.fit_ms.lvf", "ms", "lower"},
      {"core.refit_ms.lvf2", "ms", "lower"},
      {"core.refit_ms.norm2", "ms", "lower"},
      {"core.refit_ms.lesn", "ms", "lower"},
      {"core.refit_ms.lvf", "ms", "lower"},
      {"core.fit_share", "fraction", "lower"},
      {"ssta.path_mc_ms", "ms", "lower"},
      {"ssta.sum_ms", "ms", "lower"},
  };
  return kMetrics;
}

void RunResult::check(bool ok, const std::string& what) {
  if (ok) return;
  correct = false;
  check_failures.push_back(what);
}

std::string result_json(RunResult& result,
                        const std::vector<MetricSpec>& catalog) {
  std::set<std::string> known;
  std::string metrics;
  for (const MetricSpec& spec : catalog) {
    known.insert(spec.name);
    double value = 0.0;
    const auto it = result.metrics.find(spec.name);
    if (it == result.metrics.end()) {
      result.check(false, std::string("metric not measured: ") + spec.name);
    } else if (!std::isfinite(it->second)) {
      result.check(false, std::string("metric not finite: ") + spec.name);
    } else {
      value = it->second;
    }
    if (!metrics.empty()) metrics += ",";
    lvf2::obs::json_append_string(metrics, spec.name);
    metrics += ":{\"value\":";
    lvf2::obs::json_append_number(metrics, value, 17);
    metrics += ",\"unit\":";
    lvf2::obs::json_append_string(metrics, spec.unit);
    metrics += "}";
  }
  for (const auto& [name, value] : result.metrics) {
    (void)value;
    if (known.count(name) == 0) {
      result.check(false, "metric outside the catalog: " + name);
    }
  }
  for (const std::string& failure : result.check_failures) {
    std::fprintf(stderr, "lvf2bench: check failed: %s\n", failure.c_str());
  }
  std::string out = "{\"correct\":";
  out += result.correct ? "true" : "false";
  out += ",\"attempted\":" + std::to_string(result.attempted);
  out += ",\"failed\":" + std::to_string(result.failed);
  out += ",\"metrics\":{" + metrics + "}}";
  return out;
}

std::string info_json(const RunResult& result) {
  std::string out = "{";
  for (std::size_t i = 0; i < result.info.size(); ++i) {
    if (i > 0) out += ",";
    lvf2::obs::json_append_string(out, result.info[i].first);
    out += ":";
    lvf2::obs::json_append_number(out, result.info[i].second, 17);
  }
  return out + "}";
}

}  // namespace lvf2bench
