#include "obs/manifest.h"

#include <algorithm>
#include <cerrno>
#include <cstdio>
#include <cstdlib>
#include <tuple>

#include "obs/json.h"
#include "obs/metrics.h"
#include "obs/resource.h"
#include "obs/trace.h"

namespace lvf2::obs {

namespace detail {
std::atomic<bool> g_manifest_enabled{false};
}  // namespace detail

namespace {

// Arms the recorder at static-initialization time so a manifest
// covers main() end to end, mirroring LVF2_TRACE / LVF2_METRICS.
struct ManifestEnvInit {
  ManifestEnvInit() {
    if (const char* path = std::getenv("LVF2_MANIFEST")) {
      if (path[0] != '\0') ManifestRecorder::instance().start(path);
    }
  }
} g_manifest_env_init;

// The per-model QoR block shared by arc and endpoint rows.
JsonValue models_to_json(const std::vector<ModelQor>& models) {
  JsonValue out = json_object();
  for (const ModelQor& m : models) {
    out.object.emplace_back(
        m.model, json_object({{"binning", json_number(m.binning)},
                              {"yield_3sigma", json_number(m.yield_3sigma)},
                              {"cdf_rmse", json_number(m.cdf_rmse)},
                              {"x_binning", json_number(m.x_binning)},
                              {"x_yield_3sigma", json_number(m.x_yield_3sigma)},
                              {"x_cdf_rmse", json_number(m.x_cdf_rmse)}}));
  }
  return out;
}

JsonValue endpoint_qor_to_json(const EndpointQor& e) {
  return json_object(
      {{"path", json_string(e.path)},
       {"depth", json_number(static_cast<double>(e.depth))},
       {"golden", json_object({{"mean", json_number(e.golden_mean)},
                               {"stddev", json_number(e.golden_stddev)},
                               {"skewness", json_number(e.golden_skewness)},
                               {"yield_3sigma",
                                json_number(e.golden_yield_3sigma)}})},
       {"models", models_to_json(e.models)}});
}

// Deterministic serialization order: rows arrive in completion order,
// which under the thread pool varies run to run, so they are sorted
// by their identity key before rendering. Keeps the rendered manifest
// byte-stable at any thread count (the lvf2_report diff golden gate
// compares serial and parallel runs with zero tolerance).
auto arc_sort_key(const ArcQor& a) {
  return std::tie(a.table, a.cell, a.arc, a.metric, a.load_idx, a.slew_idx);
}

std::vector<const ArcQor*> sorted_arcs(const std::vector<ArcQor>& arcs) {
  std::vector<const ArcQor*> out;
  out.reserve(arcs.size());
  for (const ArcQor& a : arcs) out.push_back(&a);
  std::stable_sort(out.begin(), out.end(),
                   [](const ArcQor* x, const ArcQor* y) {
                     return arc_sort_key(*x) < arc_sort_key(*y);
                   });
  return out;
}

std::vector<const EndpointQor*> sorted_endpoints(
    const std::vector<EndpointQor>& endpoints) {
  std::vector<const EndpointQor*> out;
  out.reserve(endpoints.size());
  for (const EndpointQor& e : endpoints) out.push_back(&e);
  std::stable_sort(out.begin(), out.end(),
                   [](const EndpointQor* x, const EndpointQor* y) {
                     return std::tie(x->path, x->depth) <
                            std::tie(y->path, y->depth);
                   });
  return out;
}

}  // namespace

bool write_file_atomic(const std::string& path, std::string_view content) {
  const std::string tmp = path + ".tmp";
  std::FILE* f = std::fopen(tmp.c_str(), "w");
  if (f == nullptr) {
    std::fprintf(stderr, "lvf2-obs: cannot open sink %s\n", tmp.c_str());
    return false;
  }
  // Signal-tolerant write loop: a daemon flushing its sinks during a
  // SIGTERM drain sees interrupted and short fwrites; retry the
  // remainder instead of leaving a truncated .tmp behind.
  std::size_t written = 0;
  while (written < content.size()) {
    errno = 0;
    const std::size_t n =
        std::fwrite(content.data() + written, 1, content.size() - written, f);
    written += n;
    if (n == 0) {
      if (errno == EINTR) {
        std::clearerr(f);
        continue;
      }
      break;
    }
  }
  const bool flushed = (std::fclose(f) == 0) && written == content.size();
  if (!flushed || std::rename(tmp.c_str(), path.c_str()) != 0) {
    std::fprintf(stderr, "lvf2-obs: cannot finalize sink %s\n", path.c_str());
    std::remove(tmp.c_str());
    return false;
  }
  return true;
}

ManifestRecorder& ManifestRecorder::instance() {
  static ManifestRecorder* recorder = new ManifestRecorder();  // leaked
  return *recorder;
}

void ManifestRecorder::start(const std::string& path) {
  {
    std::lock_guard<std::mutex> lock(mutex_);
    if (armed_) return;
    armed_ = true;
    path_ = path;
  }
  // Stage rollups come from the tracer even when LVF2_TRACE is unset.
  Tracer::instance().enable_rollup();
  detail::g_manifest_enabled.store(true, std::memory_order_relaxed);
  static bool registered = false;
  if (!registered) {
    registered = true;
    std::atexit([] { ManifestRecorder::instance().stop(); });
  }
}

void ManifestRecorder::stop() {
  std::string path;
  {
    std::lock_guard<std::mutex> lock(mutex_);
    if (!armed_) return;
    path = path_;
  }
  const std::string json = to_json();
  write_file_atomic(path, json + "\n");
  discard();
}

void ManifestRecorder::discard() {
  detail::g_manifest_enabled.store(false, std::memory_order_relaxed);
  std::lock_guard<std::mutex> lock(mutex_);
  armed_ = false;
  path_.clear();
  config_.clear();
  arcs_.clear();
  endpoints_.clear();
}

void ManifestRecorder::set_config_value(std::string_view key,
                                        JsonValue value) {
  std::lock_guard<std::mutex> lock(mutex_);
  for (auto& [k, v] : config_) {
    if (k == key) {
      v = std::move(value);
      return;
    }
  }
  config_.emplace_back(std::string(key), std::move(value));
}

void ManifestRecorder::set_config(std::string_view key,
                                  std::string_view value) {
  set_config_value(key, json_string(std::string(value)));
}

void ManifestRecorder::set_config(std::string_view key, double value) {
  set_config_value(key, json_number(value));
}

void ManifestRecorder::set_config(std::string_view key, std::uint64_t value) {
  set_config_value(key, json_u64(value));
}

void ManifestRecorder::set_config(std::string_view key, bool value) {
  set_config_value(key, json_bool(value));
}

void ManifestRecorder::set_config_provider(
    std::string key, std::function<std::string()> provider) {
  std::lock_guard<std::mutex> lock(mutex_);
  for (auto& [k, fn] : config_providers_) {
    if (k == key) {
      fn = std::move(provider);
      return;
    }
  }
  config_providers_.emplace_back(std::move(key), std::move(provider));
}

JsonValue arc_qor_to_json(const ArcQor& arc) {
  return json_object(
      {{"table", json_string(arc.table)},
       {"cell", json_string(arc.cell)},
       {"arc", json_string(arc.arc)},
       {"metric", json_string(arc.metric)},
       {"load_idx", json_number(arc.load_idx)},
       {"slew_idx", json_number(arc.slew_idx)},
       {"status", json_string(arc.status)},
       {"golden",
        json_object({{"mean", json_number(arc.golden_mean)},
                     {"stddev", json_number(arc.golden_stddev)},
                     {"skewness", json_number(arc.golden_skewness)}})},
       {"em",
        json_object(
            {{"iterations",
              json_number(static_cast<double>(arc.em_iterations))},
             {"log_likelihood", json_number(arc.em_log_likelihood)},
             {"converged", json_bool(arc.em_converged)},
             {"degradation", json_string(arc.degradation)}})},
       {"models", models_to_json(arc.models)}});
}

std::optional<ArcQor> arc_qor_from_json(const JsonValue& doc) {
  if (!doc.is_object()) return std::nullopt;
  const JsonValue* golden = doc.find("golden");
  const JsonValue* em = doc.find("em");
  const JsonValue* models = doc.find("models");
  if (golden == nullptr || !golden->is_object() || em == nullptr ||
      !em->is_object() || models == nullptr || !models->is_object()) {
    return std::nullopt;
  }
  ArcQor arc;
  arc.table = doc.string_or("table", "");
  arc.cell = doc.string_or("cell", "");
  arc.arc = doc.string_or("arc", "");
  arc.metric = doc.string_or("metric", "");
  arc.load_idx = static_cast<int>(doc.number_or("load_idx", -1.0));
  arc.slew_idx = static_cast<int>(doc.number_or("slew_idx", -1.0));
  arc.status = doc.string_or("status", "ok");
  arc.golden_mean = golden->number_or("mean", 0.0);
  arc.golden_stddev = golden->number_or("stddev", 0.0);
  arc.golden_skewness = golden->number_or("skewness", 0.0);
  arc.em_iterations =
      static_cast<std::uint64_t>(em->number_or("iterations", 0.0));
  arc.em_log_likelihood = em->number_or("log_likelihood", 0.0);
  const JsonValue* converged = em->find("converged");
  arc.em_converged = converged != nullptr &&
                     converged->type == JsonValue::Type::kBool &&
                     converged->boolean;
  arc.degradation = em->string_or("degradation", "none");
  for (const auto& [name, row] : models->object) {
    if (!row.is_object()) return std::nullopt;
    ModelQor m;
    m.model = name;
    m.binning = row.number_or("binning", 0.0);
    m.yield_3sigma = row.number_or("yield_3sigma", 0.0);
    m.cdf_rmse = row.number_or("cdf_rmse", 0.0);
    m.x_binning = row.number_or("x_binning", 1.0);
    m.x_yield_3sigma = row.number_or("x_yield_3sigma", 1.0);
    m.x_cdf_rmse = row.number_or("x_cdf_rmse", 1.0);
    arc.models.push_back(std::move(m));
  }
  return arc;
}

void ManifestRecorder::add_arc(ArcQor arc) {
  std::lock_guard<std::mutex> lock(mutex_);
  arcs_.push_back(std::move(arc));
}

void ManifestRecorder::set_section_provider(
    std::string key, std::function<JsonValue()> provider) {
  std::lock_guard<std::mutex> lock(mutex_);
  for (auto& [k, fn] : sections_) {
    if (k == key) {
      fn = std::move(provider);
      return;
    }
  }
  sections_.emplace_back(std::move(key), std::move(provider));
}

void ManifestRecorder::clear_section_provider(std::string_view key) {
  std::lock_guard<std::mutex> lock(mutex_);
  std::erase_if(sections_, [&](const auto& s) { return s.first == key; });
}

void ManifestRecorder::add_endpoint(EndpointQor endpoint) {
  std::lock_guard<std::mutex> lock(mutex_);
  endpoints_.push_back(std::move(endpoint));
}

std::string ManifestRecorder::to_json() const {
  // Snapshot the collaborators before taking our own lock (no nested
  // locking, no ordering constraints with the tracer / registry).
  const auto rollups = Tracer::instance().rollup();
  JsonValue metrics = MetricsRegistry::instance().to_json();
  // Always present (one getrusage call): every manifest records peak
  // RSS and CPU split even when no profiler or telemetry is armed.
  // Like the provider sections, it is nondeterministic and excluded
  // from lvf2_report diff unless opted in via --sections.
  JsonValue resource = resource_section();

  // Evaluate providers outside the lock too: a provider may take its
  // own subsystem lock (e.g. the result cache), and holding ours
  // across that call would impose a lock order for no benefit.
  decltype(sections_) section_fns;
  decltype(config_providers_) config_fns;
  {
    std::lock_guard<std::mutex> lock(mutex_);
    section_fns = sections_;
    config_fns = config_providers_;
  }
  std::vector<std::pair<std::string, JsonValue>> sections;
  for (const auto& [key, fn] : section_fns) {
    if (fn) sections.emplace_back(key, fn());
  }
  std::vector<std::pair<std::string, JsonValue>> provided;
  for (const auto& [key, fn] : config_fns) {
    if (fn) provided.emplace_back(key, json_string(fn()));
  }

  JsonValue stages = json_object();
  for (const auto& [name, r] : rollups) {
    stages.object.emplace_back(
        name, json_object({{"count", json_number(static_cast<double>(r.count))},
                           {"wall_ms", json_number(r.wall_us * 1e-3)},
                           {"cpu_ms", json_number(r.cpu_us * 1e-3)}}));
  }

  JsonValue doc = json_object(
      {{"schema_version", json_number(kManifestSchemaVersion)},
       {"tool", json_string("lvf2")}});
  {
    std::lock_guard<std::mutex> lock(mutex_);
    JsonValue config = json_object();
    config.object = config_;
    // Provided config entries follow the session's own set_config
    // entries (a fixed position regardless of when during the session
    // the provider was registered, so repeated runs stay byte-stable),
    // and a plain set_config of the same key wins.
    for (auto& [key, value] : provided) {
      if (config.find(key) == nullptr) {
        config.object.emplace_back(std::move(key), std::move(value));
      }
    }
    JsonValue arcs = json_array();
    for (const ArcQor* a : sorted_arcs(arcs_)) {
      arcs.array.push_back(arc_qor_to_json(*a));
    }
    JsonValue endpoints = json_array();
    for (const EndpointQor* e : sorted_endpoints(endpoints_)) {
      endpoints.array.push_back(endpoint_qor_to_json(*e));
    }
    doc.object.emplace_back("config", std::move(config));
    doc.object.emplace_back("stages", std::move(stages));
    doc.object.emplace_back("metrics", std::move(metrics));
    doc.object.emplace_back("arcs", std::move(arcs));
    doc.object.emplace_back("endpoints", std::move(endpoints));
  }
  doc.object.emplace_back("resource", std::move(resource));
  for (auto& [key, section] : sections) {
    doc.object.emplace_back(std::move(key), std::move(section));
  }
  return json_write(doc);
}

}  // namespace lvf2::obs
