#include "obs/metrics.h"

#include <cmath>
#include <cstdlib>

#include "obs/json.h"
#include "obs/manifest.h"

namespace lvf2::obs {

namespace {

// Registers the exit-time sinks when the metrics env vars are set.
struct MetricsEnvInit {
  MetricsEnvInit() {
    const char* path = std::getenv("LVF2_METRICS");
    if (path != nullptr && path[0] != '\0') {
      static std::string sink_path;
      sink_path = path;
      std::atexit(
          [] { MetricsRegistry::instance().write_json(sink_path); });
    }
    const char* summary = std::getenv("LVF2_METRICS_SUMMARY");
    if (summary != nullptr && summary[0] != '\0' &&
        std::string_view(summary) != "0") {
      std::atexit([] { MetricsRegistry::instance().write_text(stderr); });
    }
  }
} g_metrics_env_init;

}  // namespace

Histogram::Histogram(std::vector<double> bounds)
    : bounds_(std::move(bounds)), counts_(bounds_.size() + 1) {}

void Histogram::observe(double v) {
  std::size_t bucket = bounds_.size();
  for (std::size_t i = 0; i < bounds_.size(); ++i) {
    if (v <= bounds_[i]) {
      bucket = i;
      break;
    }
  }
  counts_[bucket].fetch_add(1, std::memory_order_relaxed);
  count_.fetch_add(1, std::memory_order_relaxed);
  // CAS loop, not fetch_add: atomic<double>::fetch_add is a C++20
  // addition not every supported toolchain implements correctly.
  detail::atomic_add(sum_, v);
}

std::vector<std::uint64_t> Histogram::bucket_counts() const {
  std::vector<std::uint64_t> out(counts_.size());
  for (std::size_t i = 0; i < counts_.size(); ++i) {
    out[i] = counts_[i].load(std::memory_order_relaxed);
  }
  return out;
}

MetricsRegistry& MetricsRegistry::instance() {
  static MetricsRegistry* registry = new MetricsRegistry();  // leaked
  return *registry;
}

namespace {

// `k1="v1",k2="v2"`, values escaped per the Prometheus text format.
std::string label_body(Labels labels) {
  std::string out;
  for (const auto& [key, value] : labels) {
    if (!out.empty()) out += ',';
    out += key;
    out += "=\"";
    for (char c : value) {
      if (c == '\\' || c == '"') {
        out += '\\';
        out += c;
      } else if (c == '\n') {
        out += "\\n";
      } else {
        out += c;
      }
    }
    out += '"';
  }
  return out;
}

template <class Map, class... Args>
auto& find_or_add(Map& map, std::string_view key, Args&&... args) {
  auto it = map.find(key);
  if (it == map.end()) {
    it = map.try_emplace(std::string(key), std::forward<Args>(args)...).first;
  }
  return it->second;
}

// The JSON key of a series: the bare name, or `name{labels}`.
std::string series_key(const std::string& name, const std::string& body) {
  return body.empty() ? name : name + "{" + body + "}";
}

// Visits every series in render order (families by name, then series
// by label body) as fn(key, instrument).
template <class T, class Fn>
void for_each_series(const detail::Families<T>& families, Fn&& fn) {
  for (const auto& [name, family] : families) {
    for (const auto& [body, instrument] : family) {
      fn(series_key(name, body), instrument);
    }
  }
}

// {"key":value(instrument),...} over every series, leaving out
// families whose name starts with a non-empty `skip`.
template <class T, class Fn>
JsonValue json_section(const detail::Families<T>& families,
                       std::string_view skip, Fn&& value) {
  JsonValue out = json_object();
  for_each_series(families, [&](const std::string& key, const T& instrument) {
    if (!skip.empty() && key.starts_with(skip)) return;
    out.object.emplace_back(key, value(instrument));
  });
  return out;
}

}  // namespace

Counter& MetricsRegistry::counter(std::string_view name, Labels labels) {
  const std::string body = label_body(labels);
  std::lock_guard<std::mutex> lock(mutex_);
  return find_or_add(find_or_add(counters_, name), body);
}

DoubleCounter& MetricsRegistry::double_counter(std::string_view name) {
  std::lock_guard<std::mutex> lock(mutex_);
  return find_or_add(find_or_add(double_counters_, name), "");
}

Gauge& MetricsRegistry::gauge(std::string_view name, Labels labels) {
  const std::string body = label_body(labels);
  std::lock_guard<std::mutex> lock(mutex_);
  return find_or_add(find_or_add(gauges_, name), body);
}

Histogram& MetricsRegistry::histogram(std::string_view name,
                                      std::vector<double> bounds) {
  std::lock_guard<std::mutex> lock(mutex_);
  return find_or_add(find_or_add(histograms_, name), "", std::move(bounds));
}

Digest& MetricsRegistry::digest(std::string_view name, Labels labels,
                                double compression) {
  const std::string body = label_body(labels);
  std::lock_guard<std::mutex> lock(mutex_);
  return find_or_add(find_or_add(digests_, name), body, compression);
}

JsonValue MetricsRegistry::to_json(std::string_view skip_prefix) const {
  std::lock_guard<std::mutex> lock(mutex_);
  const auto number = [](const auto& instrument) {
    return json_number(instrument.value());
  };
  JsonValue out = json_object();
  out.object.emplace_back(
      "counters", json_section(counters_, skip_prefix, [](const Counter& c) {
        return json_u64(c.value());
      }));
  out.object.emplace_back("double_counters",
                          json_section(double_counters_, skip_prefix, number));
  out.object.emplace_back("gauges", json_section(gauges_, skip_prefix, number));
  out.object.emplace_back(
      "histograms",
      json_section(histograms_, skip_prefix, [](const Histogram& h) {
        JsonValue bounds = json_array();
        for (const double b : h.bounds()) {
          bounds.array.push_back(json_number(b));
        }
        JsonValue counts = json_array();
        for (const std::uint64_t n : h.bucket_counts()) {
          counts.array.push_back(json_u64(n));
        }
        return json_object({{"bounds", std::move(bounds)},
                            {"counts", std::move(counts)},
                            {"count", json_u64(h.count())},
                            {"sum", json_number(h.sum())}});
      }));
  out.object.emplace_back(
      "digests", json_section(digests_, skip_prefix, [](const Digest& d) {
        const TDigest snap = d.snapshot();
        // Full centroid state (mergeable) plus the headline quantiles
        // so readers need not re-derive them.
        JsonValue doc = snap.to_json();
        static constexpr std::pair<const char*, double> kQuantiles[] = {
            {"p50", 0.50}, {"p90", 0.90}, {"p95", 0.95},
            {"p99", 0.99}, {"p999", 0.999}};
        JsonValue q = json_object();
        for (const auto& [label, p] : kQuantiles) {
          q.object.emplace_back(
              label, json_number(snap.count() > 0.0 ? snap.quantile(p) : 0.0));
        }
        doc.object.emplace_back("q", std::move(q));
        return doc;
      }));
  return out;
}

namespace {

// Prometheus metric names allow [a-zA-Z0-9_:]; registry names use
// dots. Flatten everything else to '_'.
std::string prom_name(std::string_view prefix, std::string_view name) {
  std::string out(prefix);
  out += name;
  for (char& c : out) {
    const bool ok = (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') ||
                    (c >= '0' && c <= '9') || c == '_';
    if (!ok) c = '_';
  }
  return out;
}

std::string prom_number(double v) {
  if (std::isnan(v)) return "NaN";
  if (std::isinf(v)) return v > 0 ? "+Inf" : "-Inf";
  char buf[40];
  std::snprintf(buf, sizeof(buf), "%.17g", v);
  return buf;
}

// One sample line: `metric{body,extra} value`, braces only when some
// label is present.
void prom_sample(std::string& out, std::string_view metric,
                 std::string_view body, std::string_view extra,
                 std::string_view value) {
  out += metric;
  if (!body.empty() || !extra.empty()) {
    out += '{';
    out += body;
    if (!body.empty() && !extra.empty()) out += ',';
    out += extra;
    out += '}';
  }
  out += ' ';
  out += value;
  out += '\n';
}

// Every family of one instrument kind: one `# TYPE` line, then all of
// its series via emit(out, metric, body, instrument).
template <class T, class Fn>
void prom_families(std::string& out, std::string_view prefix,
                   const detail::Families<T>& families, const char* suffix,
                   const char* type, Fn&& emit) {
  for (const auto& [name, family] : families) {
    const std::string metric = prom_name(prefix, name) + suffix;
    out += "# TYPE ";
    out += metric;
    out += ' ';
    out += type;
    out += '\n';
    for (const auto& [body, instrument] : family) {
      emit(out, metric, body, instrument);
    }
  }
}

}  // namespace

std::string MetricsRegistry::to_prometheus(std::string_view prefix) const {
  std::lock_guard<std::mutex> lock(mutex_);
  std::string out;
  prom_families(out, prefix, counters_, "_total", "counter",
                [](std::string& o, const std::string& m,
                   const std::string& body, const Counter& c) {
                  prom_sample(o, m, body, "", std::to_string(c.value()));
                });
  prom_families(out, prefix, double_counters_, "_total", "counter",
                [](std::string& o, const std::string& m,
                   const std::string& body, const DoubleCounter& c) {
                  prom_sample(o, m, body, "", prom_number(c.value()));
                });
  prom_families(out, prefix, gauges_, "", "gauge",
                [](std::string& o, const std::string& m,
                   const std::string& body, const Gauge& g) {
                  prom_sample(o, m, body, "", prom_number(g.value()));
                });
  prom_families(
      out, prefix, histograms_, "", "histogram",
      [](std::string& o, const std::string& m, const std::string& body,
         const Histogram& h) {
        const auto& bounds = h.bounds();
        const auto counts = h.bucket_counts();
        std::uint64_t cumulative = 0;
        for (std::size_t i = 0; i < counts.size(); ++i) {
          cumulative += counts[i];
          const std::string le =
              i < bounds.size() ? prom_number(bounds[i]) : "+Inf";
          prom_sample(o, m + "_bucket", body, "le=\"" + le + "\"",
                      std::to_string(cumulative));
        }
        prom_sample(o, m + "_sum", body, "", prom_number(h.sum()));
        prom_sample(o, m + "_count", body, "", std::to_string(h.count()));
      });
  prom_families(
      out, prefix, digests_, "", "summary",
      [](std::string& o, const std::string& m, const std::string& body,
         const Digest& d) {
        const TDigest snap = d.snapshot();
        static constexpr std::pair<const char*, double> kQuantiles[] = {
            {"0.5", 0.50}, {"0.9", 0.90}, {"0.95", 0.95},
            {"0.99", 0.99}, {"0.999", 0.999}};
        for (const auto& [label, q] : kQuantiles) {
          prom_sample(o, m, body, std::string("quantile=\"") + label + "\"",
                      prom_number(snap.quantile(q)));
        }
        prom_sample(o, m + "_sum", body, "", prom_number(snap.sum()));
        prom_sample(o, m + "_count", body, "",
                    std::to_string(static_cast<std::uint64_t>(snap.count())));
      });
  return out;
}

void MetricsRegistry::write_json(const std::string& path) const {
  // Atomic (<path>.tmp + rename): a crashed run never leaves a
  // truncated metrics file.
  write_file_atomic(path, json_write(to_json()) + "\n");
}

void MetricsRegistry::write_text(std::FILE* out) const {
  std::lock_guard<std::mutex> lock(mutex_);
  std::fprintf(out, "--- lvf2 metrics ---\n");
  for_each_series(counters_, [out](const std::string& key, const Counter& c) {
    std::fprintf(out, "counter   %-32s %llu\n", key.c_str(),
                 static_cast<unsigned long long>(c.value()));
  });
  for_each_series(double_counters_,
                  [out](const std::string& key, const DoubleCounter& c) {
                    std::fprintf(out, "dcounter  %-32s %g\n", key.c_str(),
                                 c.value());
                  });
  for_each_series(gauges_, [out](const std::string& key, const Gauge& g) {
    std::fprintf(out, "gauge     %-32s %g\n", key.c_str(), g.value());
  });
  for_each_series(histograms_,
                  [out](const std::string& key, const Histogram& h) {
                    const double mean =
                        (h.count() > 0)
                            ? h.sum() / static_cast<double>(h.count())
                            : 0.0;
                    std::fprintf(out, "histogram %-32s count=%llu mean=%g\n",
                                 key.c_str(),
                                 static_cast<unsigned long long>(h.count()),
                                 mean);
                  });
  for_each_series(digests_, [out](const std::string& key, const Digest& d) {
    const TDigest snap = d.snapshot();
    std::fprintf(out, "digest    %-32s count=%llu p50=%g p99=%g\n",
                 key.c_str(), static_cast<unsigned long long>(snap.count()),
                 snap.count() > 0.0 ? snap.quantile(0.5) : 0.0,
                 snap.count() > 0.0 ? snap.quantile(0.99) : 0.0);
  });
}

}  // namespace lvf2::obs
