#pragma once
// Shared infrastructure of the reproduction benches: the five
// representative non-Gaussian scenarios (paper Fig. 3 / Table 1),
// simple CLI parsing for scale control, and table / ASCII-plot
// printers.

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>
#include <utility>
#include <vector>

#include "core/metrics.h"
#include "obs/obs.h"
#include "spice/cellsim.h"
#include "stats/descriptive.h"

namespace lvf2::bench {

/// One representative non-Gaussian scenario: an arc configuration
/// and condition selected from the simulated library (paper Section
/// 4.1, Fig. 3(a)-(e)).
struct Scenario {
  const char* name;
  spice::StageElectrical stage;
  spice::ArcCondition condition;
};

/// The five scenarios of Fig. 3 / Table 1. Stage personalities were
/// selected by scanning the simulated library for the archetypal
/// shapes the paper names:
///  - 2 Peaks: strong mechanism separation, mid regime weight;
///  - Multi-Peaks: both regimes heavily populated and skewed;
///  - Saddle: moderate separation, comparable deviations;
///  - Minor Saddle: one regime dominating (lambda ~ 0.13);
///  - Kurtosis: same-center regimes with different spreads.
inline std::vector<Scenario> paper_scenarios() {
  const spice::ArcCondition cond{0.05, 0.02};
  std::vector<Scenario> out;
  {
    spice::StageElectrical s;
    s.mechanism_gain = 3.2;
    s.mechanism_offset = -0.7;
    out.push_back({"2 Peaks", s, cond});
  }
  {
    spice::StageElectrical s;
    s.mechanism_gain = 2.2;
    s.mechanism_offset = -0.45;
    s.mechanism_width = 1.0;
    out.push_back({"Multi-Peaks", s, cond});
  }
  {
    spice::StageElectrical s;
    s.mechanism_gain = 1.4;
    s.mechanism_offset = -0.5;
    out.push_back({"Saddle", s, cond});
  }
  {
    spice::StageElectrical s;
    s.mechanism_gain = 2.0;
    s.mechanism_offset = -1.6;
    out.push_back({"Minor Saddle", s, cond});
  }
  {
    spice::StageElectrical s;
    s.mechanism_gain = 5.0;
    s.mechanism_base_scale = 0.0;
    s.mechanism_offset = -0.5;
    out.push_back({"Kurtosis", s, cond});
  }
  return out;
}

/// Scale of a bench run: `--full` switches every bench to
/// paper-scale sampling (slower); `--samples N` overrides directly.
struct BenchArgs {
  bool full = false;
  std::size_t samples = 0;  ///< 0 = bench default
  std::uint64_t seed = 2024;

  std::size_t pick_samples(std::size_t fast_default,
                           std::size_t full_default) const {
    if (samples != 0) return samples;
    return full ? full_default : fast_default;
  }
};

inline BenchArgs parse_args(int argc, char** argv) {
  BenchArgs args;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--full") == 0) {
      args.full = true;
    } else if (std::strcmp(argv[i], "--samples") == 0 && i + 1 < argc) {
      args.samples = static_cast<std::size_t>(std::atoll(argv[++i]));
    } else if (std::strcmp(argv[i], "--seed") == 0 && i + 1 < argc) {
      args.seed = static_cast<std::uint64_t>(std::atoll(argv[++i]));
    } else if (std::strcmp(argv[i], "--help") == 0) {
      std::printf(
          "options: --full (paper-scale sampling), --samples N, --seed S\n");
      std::exit(0);
    }
  }
  return args;
}

/// Machine-readable perf record of one bench run. When the
/// LVF2_BENCH_JSON environment variable names a directory, the
/// destructor writes `<dir>/BENCH_<name>.json` with the wall time,
/// every metric set through `set()`, and a snapshot of the process
/// metrics registry (mc.samples, em.iterations, ...). With the env
/// var unset this is inert and the bench output stays text-only.
///
///   {"bench":"table1_scenarios","wall_s":1.23,
///    "metrics":{"samples":20000,"worst_ratio":1.7},
///    "registry":{"counters":{...},"gauges":{...},"histograms":{...}}}
class PerfRecord {
 public:
  explicit PerfRecord(std::string name)
      : name_(std::move(name)),
        start_(std::chrono::steady_clock::now()) {}

  PerfRecord(const PerfRecord&) = delete;
  PerfRecord& operator=(const PerfRecord&) = delete;

  /// Records one named result value (rates, errors, sample counts...).
  void set(const std::string& key, double value) {
    metrics_.emplace_back(key, value);
  }

  ~PerfRecord() {
    const char* dir = std::getenv("LVF2_BENCH_JSON");
    if (dir == nullptr || dir[0] == '\0') return;
    const double wall_s =
        std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                      start_)
            .count();
    const std::string path =
        std::string(dir) + "/BENCH_" + name_ + ".json";
    std::FILE* f = std::fopen(path.c_str(), "w");
    if (f == nullptr) {
      std::fprintf(stderr, "bench: cannot write %s\n", path.c_str());
      return;
    }
    std::fprintf(f, "{\"bench\":\"%s\",\"wall_s\":%.6f,\"metrics\":{",
                 name_.c_str(), wall_s);
    for (std::size_t i = 0; i < metrics_.size(); ++i) {
      std::fprintf(f, "%s\"%s\":%.9g", (i > 0) ? "," : "",
                   metrics_[i].first.c_str(), metrics_[i].second);
    }
    const std::string registry =
        obs::json_write(obs::MetricsRegistry::instance().to_json());
    std::fprintf(f, "},\"registry\":%s}\n", registry.c_str());
    std::fclose(f);
  }

 private:
  std::string name_;
  std::chrono::steady_clock::time_point start_;
  std::vector<std::pair<std::string, double>> metrics_;
};

/// Streams one bench evaluation row into the run manifest (no-op
/// when LVF2_MANIFEST is unset): `table` names the bench table,
/// `cell` the scenario / row label. EM health fields stay at their
/// defaults — bench rows attribute accuracy, not fit internals.
inline void manifest_evaluation(const std::string& table,
                                const std::string& cell,
                                const core::ModelEvaluation& eval) {
  obs::with_manifest([&](obs::ManifestRecorder& m) {
    obs::ArcQor row = core::to_arc_qor(eval);
    row.table = table;
    row.cell = cell;
    m.add_arc(std::move(row));
  });
}

/// Horizontal rule sized to a table width.
inline void print_rule(int width) {
  for (int i = 0; i < width; ++i) std::putchar('-');
  std::putchar('\n');
}

/// Renders a PDF series as a compact ASCII sparkline histogram.
inline std::string ascii_pdf(const std::vector<double>& density,
                             std::size_t width = 64) {
  static const char* kLevels = " .:-=+*#%@";
  double max_d = 0.0;
  for (double d : density) max_d = std::max(max_d, d);
  std::string out;
  for (std::size_t i = 0; i < width; ++i) {
    const std::size_t j = i * density.size() / width;
    const int level =
        (max_d > 0.0)
            ? static_cast<int>(9.0 * density[j] / max_d + 0.5)
            : 0;
    out.push_back(kLevels[std::clamp(level, 0, 9)]);
  }
  return out;
}

}  // namespace lvf2::bench
