// lvf2bench: runs one workload of the LVF^2 benchmark and prints its
// result line (see report.h). run.py builds this binary and calls it;
// it can also be run directly:
//
//   lvf2bench --workload charlib-cold|serve-warm|path-ssta --seed N
//             --seconds S --trace 0|1 [--revision R]
//             [--run-dir DIR] [--out-dir DIR]
//
// --trace 0 prints the end-to-end metrics, --trace 1 the per-layer
// metrics of a span-traced pass (per-layer metrics a workload does not
// exercise read 0). Each run also writes a record (fingerprint, notes,
// per-span-name count/total/self time, result) to --out-dir, and a
// traced run its spans as a Chrome trace.
// Exit status: 0 when every output check passed, 1 when one failed,
// 2 on a usage or environment error.

#include <unistd.h>

#include <cstdio>
#include <cstdlib>
#include <exception>
#include <filesystem>
#include <fstream>
#include <string>

#include "cache/cache.h"
#include "workloads.h"

namespace {

namespace fs = std::filesystem;
using namespace lvf2bench;

/// Environment variables that arm library instrumentation or state at
/// start-up. LVF2_CACHE alone would arm the result cache in a static
/// initializer and silently turn charlib-cold warm; the rest add work
/// the benchmark does not measure (LVF2_PROFILE also crashes on the
/// AVX2 tier). The traced run uses only the benchmark's own spans.
constexpr const char* kRefusedEnv[] = {
    "LVF2_CACHE",       "LVF2_MANIFEST",       "LVF2_TRACE",
    "LVF2_METRICS",     "LVF2_PROFILE",        "LVF2_FAULTS",
    "LVF2_ALLOC_STATS", "LVF2_EXEC_TELEMETRY", "LVF2_ACCESS_LOG",
};

int usage(const char* why) {
  std::fprintf(stderr,
               "lvf2bench: %s\nusage: lvf2bench --workload "
               "charlib-cold|serve-warm|path-ssta --seed N --seconds S "
               "--trace 0|1 [--revision R] [--run-dir DIR] [--out-dir DIR]\n",
               why);
  return 2;
}

bool write_file(const std::string& path, const std::string& text) {
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  out << text;
  return static_cast<bool>(out);
}

}  // namespace

int main(int argc, char** argv) {
  std::string workload;
  std::string revision = "unknown";
  std::string run_root = ".bench_build/run";
  std::string out_dir = ".bench_build/results";
  WorkloadOptions options;
  bool have_seed = false;
  bool have_seconds = false;
  bool have_trace = false;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (i + 1 >= argc) return usage(("missing value for " + arg).c_str());
    const std::string value = argv[++i];
    char* end = nullptr;
    if (arg == "--workload") {
      workload = value;
    } else if (arg == "--seed") {
      options.seed = std::strtoull(value.c_str(), &end, 10);
      have_seed = end != value.c_str() && *end == '\0';
    } else if (arg == "--seconds") {
      options.seconds = std::strtod(value.c_str(), &end);
      have_seconds = end != value.c_str() && *end == '\0' &&
                     options.seconds > 0.0;
    } else if (arg == "--trace") {
      options.trace = value == "1";
      have_trace = value == "0" || value == "1";
    } else if (arg == "--revision") {
      revision = value;
    } else if (arg == "--run-dir") {
      run_root = value;
    } else if (arg == "--out-dir") {
      out_dir = value;
    } else {
      return usage(("unknown argument " + arg).c_str());
    }
  }
  if (!have_seed || !have_seconds || !have_trace) {
    return usage("--seed, --seconds and --trace are required");
  }
  RunResult (*run)(const WorkloadOptions&) = nullptr;
  if (workload == "charlib-cold") run = run_charlib_cold;
  if (workload == "serve-warm") run = run_serve_warm;
  if (workload == "path-ssta") run = run_path_ssta;
  if (run == nullptr) return usage(("unknown workload " + workload).c_str());

  for (const char* name : kRefusedEnv) {
    const char* value = std::getenv(name);
    if (value != nullptr && *value != '\0') {
      std::fprintf(stderr, "lvf2bench: refusing to run with %s set\n", name);
      return 2;
    }
  }
  if (lvf2::cache::enabled()) {
    std::fprintf(stderr, "lvf2bench: the result cache is already armed\n");
    return 2;
  }

  const std::string tag = workload + "-seed" + std::to_string(options.seed) +
                          "-trace" + (options.trace ? "1" : "0");
  options.run_dir = run_root + "/" + tag + "-" + std::to_string(::getpid());
  std::error_code ec;
  fs::create_directories(options.run_dir, ec);
  fs::create_directories(out_dir, ec);

  RunResult result;
  try {
    result = run(options);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "lvf2bench: %s failed: %s\n", workload.c_str(),
                 e.what());
    fs::remove_all(options.run_dir, ec);
    return 1;
  }
  fs::remove_all(options.run_dir, ec);

  const std::vector<MetricSpec>* catalog = &end_to_end_metrics();
  std::string span_rollup = "{";
  if (options.trace) {
    catalog = &per_layer_metrics();
    for (const MetricSpec& spec : *catalog) {
      result.metrics.try_emplace(spec.name, 0.0);
    }
    const std::vector<Span> spans = SpanRecorder::instance().snapshot();
    write_file(out_dir + "/" + tag + ".trace.json", chrome_trace_json(spans));
    for (const auto& [name, r] : rollup(spans)) {
      if (span_rollup.size() > 1) span_rollup += ",";
      span_rollup += "\"" + name + "\":{\"count\":" +
                     std::to_string(r.count) + ",\"total_ms\":" +
                     std::to_string(r.total_ms) + ",\"self_ms\":" +
                     std::to_string(r.self_ms) + "}";
    }
  } else {
    result.set("peak_rss_mb", peak_rss_mb());
  }
  const std::string line = result_json(result, *catalog);
  const std::string fingerprint = fingerprint_json(revision);
  const std::string info = info_json(result);
  write_file(out_dir + "/" + tag + ".json",
             "{\"workload\":\"" + workload + "\",\"seed\":" +
                 std::to_string(options.seed) + ",\"trace\":" +
                 (options.trace ? "1" : "0") + ",\"fingerprint\":" +
                 fingerprint + ",\"info\":" + info + ",\"spans\":" +
                 span_rollup + "},\"result\":" + line + "}\n");
  std::printf("fingerprint %s\ninfo %s\n%s\n", fingerprint.c_str(),
              info.c_str(), line.c_str());
  std::fflush(stdout);
  return result.correct ? 0 : 1;
}
