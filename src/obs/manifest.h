#pragma once
// Run manifest: a versioned JSON document capturing what a
// characterize / evaluation / SSTA run did and how well it did it —
// run config, per-stage wall/CPU rollups aggregated from the tracer,
// a snapshot of every metrics instrument, a per-arc QoR (quality of
// result) table of ModelErrors and error-reduction multiples vs the
// LVF baseline, and SSTA endpoint QoR rows. Enabled by
// LVF2_MANIFEST=<path> at startup; written atomically (<path>.tmp
// then rename) at process exit or on ManifestRecorder::stop().
//
// Disabled-path contract: every hook site guards on
// manifest_enabled() — one relaxed atomic load, same as a disabled
// trace span (BM_DisabledManifest in bench_perf).
//
// Schema (keys in this fixed order; see README "Observability"):
//   {"schema_version":1,"tool":"lvf2",
//    "config":{...},                       // key -> string or number
//    "stages":{"name":{"count":N,"wall_ms":W,"cpu_ms":C},...},
//    "metrics":{"counters":...},           // registry snapshot
//    "arcs":[...per-arc QoR rows...],
//    "endpoints":[...SSTA endpoint rows...],
//    "resource":{...always-on peak RSS / rusage / alloc rollup...},
//    ...provider sections (exec, cache, profile)...}
//
// The resource/exec/profile sections carry nondeterministic run
// telemetry; lvf2_report diff skips them (and stages/metrics) unless
// opted in with --sections, so the zero-tolerance determinism gates
// keep comparing QoR only.

#include <atomic>
#include <cstdint>
#include <functional>
#include <mutex>
#include <optional>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "obs/json.h"

namespace lvf2::obs {

inline constexpr int kManifestSchemaVersion = 1;

namespace detail {
extern std::atomic<bool> g_manifest_enabled;
}  // namespace detail

/// True when a manifest sink is armed. Relaxed load: the only cost
/// paid by hook sites when no manifest was requested.
inline bool manifest_enabled() {
  return detail::g_manifest_enabled.load(std::memory_order_relaxed);
}

/// Per-model QoR of one golden comparison: the three raw paper
/// metrics plus their error-reduction multiples vs the LVF baseline
/// (Eq. 12; x_* == 1 for LVF itself).
struct ModelQor {
  std::string model;  ///< "LVF2", "Norm2", "LESN", "LVF"
  double binning = 0.0;
  double yield_3sigma = 0.0;
  double cdf_rmse = 0.0;
  double x_binning = 1.0;
  double x_yield_3sigma = 1.0;
  double x_cdf_rmse = 1.0;
};

/// One row of the per-arc QoR table: a characterized table entry (or
/// a bench evaluation row) assessed against its golden sample set.
struct ArcQor {
  std::string table;   ///< origin: "characterize", "table1", ...
  std::string cell;    ///< cell name or scenario label
  std::string arc;     ///< arc label ("" for non-arc rows)
  std::string metric;  ///< "delay", "transition", "" when n/a
  int load_idx = -1;   ///< grid indices (-1 when n/a)
  int slew_idx = -1;
  std::string status = "ok";  ///< "ok" or the entry's failure message
  double golden_mean = 0.0;
  double golden_stddev = 0.0;
  double golden_skewness = 0.0;
  std::uint64_t em_iterations = 0;
  double em_log_likelihood = 0.0;
  bool em_converged = false;
  std::string degradation = "none";  ///< FitDegradation short name
  std::vector<ModelQor> models;
};

/// One SSTA endpoint QoR row: the propagated arrival distribution at
/// the end of a path, per model, vs the MC-SSTA golden.
struct EndpointQor {
  std::string path;
  std::uint64_t depth = 0;
  double golden_mean = 0.0;
  double golden_stddev = 0.0;
  double golden_skewness = 0.0;
  double golden_yield_3sigma = 0.0;  ///< empirical P(t <= mu + 3 sigma)
  std::vector<ModelQor> models;
};

/// The process-wide manifest recorder (leaked singleton). All methods
/// are thread-safe; hook sites must guard with manifest_enabled()
/// before building records.
class ManifestRecorder {
 public:
  static ManifestRecorder& instance();

  /// Arms the recorder: records `path` as the sink, enables the hook
  /// flag and switches the tracer into rollup mode so stage timings
  /// accumulate even without LVF2_TRACE. No-op when already armed.
  void start(const std::string& path);
  /// Renders and atomically writes the manifest, then disarms and
  /// clears the recorded state. No-op when not armed.
  void stop();
  /// Disarms and clears without writing (test support).
  void discard();

  /// Run-configuration entries (last write wins, insertion order
  /// preserved). A uint64 value of 2^53 or more is stored as its exact
  /// decimal string (a JSON number is a double).
  void set_config(std::string_view key, std::string_view value);
  /// Literal overload: without it, const char* would convert to bool
  /// (a standard conversion) in preference to string_view.
  void set_config(std::string_view key, const char* value) {
    set_config(key, std::string_view(value));
  }
  void set_config(std::string_view key, double value);
  void set_config(std::string_view key, std::uint64_t value);
  void set_config(std::string_view key, bool value);

  /// Registers a persistent config entry: the provider is evaluated
  /// at to_json() time and its result rendered into the config
  /// section after the plain set_config entries — a fixed position
  /// regardless of when during a session the provider was registered,
  /// which keeps byte-compared manifest pairs stable. Plain
  /// set_config entries are cleared on stop(), so a process-lifetime
  /// fact recorded once — e.g. the resolved SIMD tier — would appear
  /// only in whichever session happened to be armed at resolution
  /// time; a provider lands it in every manifest. Last registration
  /// per key wins; a plain set_config of the same key in a session
  /// overrides the provided value for that manifest.
  void set_config_provider(std::string key,
                           std::function<std::string()> provider);

  void add_arc(ArcQor arc);
  void add_endpoint(EndpointQor endpoint);

  /// Registers a subsystem section built at to_json() time: the
  /// manifest gains a top-level `"key": <provider()>` member after
  /// the fixed schema keys. The provider returns the section document
  /// and must not call back into the recorder. Last registration per key
  /// wins; providers outlive start()/stop() cycles (their lifetime is
  /// the providing subsystem's, e.g. the result cache while armed).
  void set_section_provider(std::string key,
                            std::function<JsonValue()> provider);
  void clear_section_provider(std::string_view key);

  /// The full manifest, built as one document (config + tracer stage
  /// rollups + metrics snapshot + QoR tables + provider sections) and
  /// rendered once.
  std::string to_json() const;

 private:
  ManifestRecorder() = default;
  void set_config_value(std::string_view key, JsonValue value);

  mutable std::mutex mutex_;
  std::string path_;
  bool armed_ = false;
  std::vector<std::pair<std::string, JsonValue>> config_;
  std::vector<std::pair<std::string, std::function<std::string()>>>
      config_providers_;  // persist across start()/stop() cycles
  std::vector<ArcQor> arcs_;
  std::vector<EndpointQor> endpoints_;
  std::vector<std::pair<std::string, std::function<JsonValue()>>> sections_;
};

/// Runs `fn(ManifestRecorder&)` only when a manifest is armed; the
/// disabled path is a single relaxed atomic load.
template <typename F>
inline void with_manifest(F&& fn) {
  if (!manifest_enabled()) return;
  fn(ManifestRecorder::instance());
}

/// Writes `content` to `path` atomically: <path>.tmp then rename(), so
/// a crashed run never leaves a truncated file. Returns false (after
/// a one-line stderr warning) on failure. Shared by every JSON sink.
bool write_file_atomic(const std::string& path, std::string_view content);

/// JSON codec of one ArcQor row: the manifest's `arcs` rows, and the
/// result cache's stored copy that a warm run replays. The cache
/// serializes it at full precision (JsonWriteOptions{17}) so the
/// replayed row renders byte-identical to the original.
JsonValue arc_qor_to_json(const ArcQor& arc);
/// Inverse; nullopt when required members are missing or mistyped
/// (a corrupted cache entry must degrade to recompute, not crash).
std::optional<ArcQor> arc_qor_from_json(const JsonValue& doc);

}  // namespace lvf2::obs
