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

void append_model_qor(std::string& out, const ModelQor& m) {
  json_append_string(out, m.model);
  out += ":{\"binning\":";
  json_append_number(out, m.binning);
  out += ",\"yield_3sigma\":";
  json_append_number(out, m.yield_3sigma);
  out += ",\"cdf_rmse\":";
  json_append_number(out, m.cdf_rmse);
  out += ",\"x_binning\":";
  json_append_number(out, m.x_binning);
  out += ",\"x_yield_3sigma\":";
  json_append_number(out, m.x_yield_3sigma);
  out += ",\"x_cdf_rmse\":";
  json_append_number(out, m.x_cdf_rmse);
  out += '}';
}

void append_models(std::string& out, const std::vector<ModelQor>& models) {
  out += "\"models\":{";
  for (std::size_t i = 0; i < models.size(); ++i) {
    if (i > 0) out += ',';
    append_model_qor(out, models[i]);
  }
  out += '}';
}

void append_arc(std::string& out, const ArcQor& a) {
  out += "{\"table\":";
  json_append_string(out, a.table);
  out += ",\"cell\":";
  json_append_string(out, a.cell);
  out += ",\"arc\":";
  json_append_string(out, a.arc);
  out += ",\"metric\":";
  json_append_string(out, a.metric);
  out += ",\"load_idx\":";
  json_append_number(out, a.load_idx);
  out += ",\"slew_idx\":";
  json_append_number(out, a.slew_idx);
  out += ",\"status\":";
  json_append_string(out, a.status);
  out += ",\"golden\":{\"mean\":";
  json_append_number(out, a.golden_mean);
  out += ",\"stddev\":";
  json_append_number(out, a.golden_stddev);
  out += ",\"skewness\":";
  json_append_number(out, a.golden_skewness);
  out += "},\"em\":{\"iterations\":";
  out += std::to_string(a.em_iterations);
  out += ",\"log_likelihood\":";
  json_append_number(out, a.em_log_likelihood);
  out += ",\"converged\":";
  out += a.em_converged ? "true" : "false";
  out += ",\"degradation\":";
  json_append_string(out, a.degradation);
  out += "},";
  append_models(out, a.models);
  out += '}';
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

void append_endpoint(std::string& out, const EndpointQor& e) {
  out += "{\"path\":";
  json_append_string(out, e.path);
  out += ",\"depth\":";
  out += std::to_string(e.depth);
  out += ",\"golden\":{\"mean\":";
  json_append_number(out, e.golden_mean);
  out += ",\"stddev\":";
  json_append_number(out, e.golden_stddev);
  out += ",\"skewness\":";
  json_append_number(out, e.golden_skewness);
  out += ",\"yield_3sigma\":";
  json_append_number(out, e.golden_yield_3sigma);
  out += "},";
  append_models(out, e.models);
  out += '}';
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

void ManifestRecorder::set_config_rendered(std::string_view key,
                                           std::string rendered) {
  std::lock_guard<std::mutex> lock(mutex_);
  for (auto& [k, v] : config_) {
    if (k == key) {
      v = std::move(rendered);
      return;
    }
  }
  config_.emplace_back(std::string(key), std::move(rendered));
}

void ManifestRecorder::set_config(std::string_view key,
                                  std::string_view value) {
  std::string rendered;
  json_append_string(rendered, value);
  set_config_rendered(key, std::move(rendered));
}

void ManifestRecorder::set_config(std::string_view key, double value) {
  std::string rendered;
  json_append_number(rendered, value);
  set_config_rendered(key, std::move(rendered));
}

void ManifestRecorder::set_config(std::string_view key, std::uint64_t value) {
  set_config_rendered(key, std::to_string(value));
}

void ManifestRecorder::set_config(std::string_view key, bool value) {
  set_config_rendered(key, value ? "true" : "false");
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
  JsonValue doc = json_object();
  doc.object.emplace_back("table", json_string(arc.table));
  doc.object.emplace_back("cell", json_string(arc.cell));
  doc.object.emplace_back("arc", json_string(arc.arc));
  doc.object.emplace_back("metric", json_string(arc.metric));
  doc.object.emplace_back("load_idx", json_number(arc.load_idx));
  doc.object.emplace_back("slew_idx", json_number(arc.slew_idx));
  doc.object.emplace_back("status", json_string(arc.status));
  JsonValue golden = json_object();
  golden.object.emplace_back("mean", json_number(arc.golden_mean));
  golden.object.emplace_back("stddev", json_number(arc.golden_stddev));
  golden.object.emplace_back("skewness", json_number(arc.golden_skewness));
  doc.object.emplace_back("golden", std::move(golden));
  JsonValue em = json_object();
  em.object.emplace_back("iterations",
                         json_number(static_cast<double>(arc.em_iterations)));
  em.object.emplace_back("log_likelihood", json_number(arc.em_log_likelihood));
  em.object.emplace_back("converged", json_bool(arc.em_converged));
  em.object.emplace_back("degradation", json_string(arc.degradation));
  doc.object.emplace_back("em", std::move(em));
  JsonValue models = json_object();
  for (const ModelQor& m : arc.models) {
    JsonValue row = json_object();
    row.object.emplace_back("binning", json_number(m.binning));
    row.object.emplace_back("yield_3sigma", json_number(m.yield_3sigma));
    row.object.emplace_back("cdf_rmse", json_number(m.cdf_rmse));
    row.object.emplace_back("x_binning", json_number(m.x_binning));
    row.object.emplace_back("x_yield_3sigma", json_number(m.x_yield_3sigma));
    row.object.emplace_back("x_cdf_rmse", json_number(m.x_cdf_rmse));
    models.object.emplace_back(m.model, std::move(row));
  }
  doc.object.emplace_back("models", std::move(models));
  return doc;
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
    std::string key, std::function<std::string()> provider) {
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
  const std::string metrics = MetricsRegistry::instance().to_json();

  // Render provider sections outside the lock too: a provider may
  // take its own subsystem lock (e.g. the result cache), and holding
  // ours across that call would impose a lock order for no benefit.
  std::vector<std::pair<std::string, std::function<std::string()>>> providers;
  std::vector<std::pair<std::string, std::function<std::string()>>> config_fns;
  {
    std::lock_guard<std::mutex> lock(mutex_);
    providers = sections_;
    config_fns = config_providers_;
  }
  std::vector<std::pair<std::string, std::string>> sections;
  sections.reserve(providers.size());
  for (const auto& [key, fn] : providers) {
    if (fn) sections.emplace_back(key, fn());
  }
  // Provided config entries render after the session's own set_config
  // entries (a fixed position regardless of when during the session
  // the provider was registered, so repeated runs stay byte-stable),
  // and a plain set_config of the same key wins.
  std::vector<std::pair<std::string, std::string>> provided;
  provided.reserve(config_fns.size());
  for (const auto& [key, fn] : config_fns) {
    if (!fn) continue;
    std::string rendered;
    json_append_string(rendered, fn());
    provided.emplace_back(key, std::move(rendered));
  }

  std::lock_guard<std::mutex> lock(mutex_);
  std::string out = "{\"schema_version\":";
  out += std::to_string(kManifestSchemaVersion);
  out += ",\"tool\":\"lvf2\",\"config\":{";
  bool first_config = true;
  for (const auto& [key, rendered] : config_) {
    if (!first_config) out += ',';
    first_config = false;
    json_append_string(out, key);
    out += ':';
    out += rendered;
  }
  for (const auto& [key, rendered] : provided) {
    bool overridden = false;
    for (const auto& [k, v] : config_) {
      if (k == key) {
        overridden = true;
        break;
      }
    }
    if (overridden) continue;
    if (!first_config) out += ',';
    first_config = false;
    json_append_string(out, key);
    out += ':';
    out += rendered;
  }
  out += "},\"stages\":{";
  for (std::size_t i = 0; i < rollups.size(); ++i) {
    if (i > 0) out += ',';
    json_append_string(out, rollups[i].first);
    out += ":{\"count\":";
    out += std::to_string(rollups[i].second.count);
    out += ",\"wall_ms\":";
    json_append_number(out, rollups[i].second.wall_us * 1e-3);
    out += ",\"cpu_ms\":";
    json_append_number(out, rollups[i].second.cpu_us * 1e-3);
    out += '}';
  }
  out += "},\"metrics\":";
  out += metrics;
  out += ",\"arcs\":[";
  const std::vector<const ArcQor*> arcs = sorted_arcs(arcs_);
  for (std::size_t i = 0; i < arcs.size(); ++i) {
    if (i > 0) out += ',';
    append_arc(out, *arcs[i]);
  }
  out += "],\"endpoints\":[";
  const std::vector<const EndpointQor*> endpoints =
      sorted_endpoints(endpoints_);
  for (std::size_t i = 0; i < endpoints.size(); ++i) {
    if (i > 0) out += ',';
    append_endpoint(out, *endpoints[i]);
  }
  out += ']';
  // Always present (one getrusage call): every manifest records peak
  // RSS and CPU split even when no profiler or telemetry is armed.
  // Like the provider sections below, it is nondeterministic and
  // excluded from lvf2_report diff unless opted in via --sections.
  out += ",\"resource\":";
  out += resource_section_json();
  for (const auto& [key, rendered] : sections) {
    out += ',';
    json_append_string(out, key);
    out += ':';
    out += rendered;
  }
  out += '}';
  return out;
}

}  // namespace lvf2::obs
