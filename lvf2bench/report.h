#pragma once
// Metric catalog and the result line. Every run prints, as the last
// line of stdout, one JSON object with exactly the keys correct,
// attempted, failed and metrics; an untraced run carries every
// end-to-end metric and a traced run every per-layer metric, each as
// {"value": v, "unit": u}. The catalog below is the single list of
// names, units and directions; BENCHMARK.json repeats it and the
// self-test keeps the two in step.

#include <cstdint>
#include <map>
#include <string>
#include <utility>
#include <vector>

namespace lvf2bench {

struct MetricSpec {
  const char* name;
  const char* unit;
  const char* better;  ///< "lower" or "higher"
};

const std::vector<MetricSpec>& end_to_end_metrics();
const std::vector<MetricSpec>& per_layer_metrics();

/// Outcome of one run: work counts, output checks and metric values.
struct RunResult {
  bool correct = true;
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  std::map<std::string, double> metrics;
  /// Human-readable context (sample counts, percentiles used, shares),
  /// printed before the result line and kept in the run record.
  std::vector<std::pair<std::string, double>> info;
  std::vector<std::string> check_failures;

  /// Records an output check; a failed one makes the run incorrect.
  void check(bool ok, const std::string& what);
  void set(const std::string& name, double value) { metrics[name] = value; }
  void note(const std::string& name, double value) {
    info.emplace_back(name, value);
  }
};

/// The result line for `result` against `catalog`. A catalog metric
/// that is missing or not finite, or a metric outside the catalog,
/// turns the run incorrect (and is reported on stderr); a missing or
/// non-finite value is written as 0 so the line stays valid JSON.
std::string result_json(RunResult& result,
                        const std::vector<MetricSpec>& catalog);

/// {"name": value, ...} of the info notes.
std::string info_json(const RunResult& result);

}  // namespace lvf2bench
