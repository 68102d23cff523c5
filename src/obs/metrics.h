#pragma once
// Process-wide metrics registry: named counters, gauges, fixed-bucket
// histograms, and streaming quantile digests. Instruments are created
// on first access and live for the whole process (stable addresses —
// cache a reference in hot paths). Counters, gauges and digests may
// carry labels: `counter("serve.op.requests", {{"op", "ping"}})` is
// one series of the `serve.op.requests` family, and every series of a
// family renders under one Prometheus type declaration.
// Counter/gauge/histogram updates are lock-free relaxed atomics; a
// digest observation takes the instrument's own mutex (an uncontended
// lock + a buffered push, still nanoseconds); only name lookup takes
// the registry mutex.
//
// Sinks, both driven by environment variables read at startup:
//   LVF2_METRICS=<path>     JSON dump at process exit
//   LVF2_METRICS_SUMMARY=1  plain-text summary to stderr at exit
// With neither set, the registry still counts (a relaxed fetch_add)
// but emits nothing.

#include <atomic>
#include <cstdint>
#include <cstdio>
#include <initializer_list>
#include <map>
#include <mutex>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "obs/json.h"
#include "obs/tdigest.h"

namespace lvf2::obs {

namespace detail {
/// Relaxed atomic accumulation into a double via a CAS retry loop.
/// std::atomic<double>::fetch_add exists only since C++20 and is
/// still missing/miscompiled on some toolchains; the CAS loop is
/// portable, lock-free wherever atomic<double> is, and exact under
/// concurrency (every addend is applied exactly once).
inline void atomic_add(std::atomic<double>& target, double v) {
  double current = target.load(std::memory_order_relaxed);
  while (!target.compare_exchange_weak(current, current + v,
                                       std::memory_order_relaxed,
                                       std::memory_order_relaxed)) {
  }
}
}  // namespace detail

/// Monotonically increasing event count.
class Counter {
 public:
  void add(std::uint64_t n = 1) {
    value_.fetch_add(n, std::memory_order_relaxed);
  }
  std::uint64_t value() const {
    return value_.load(std::memory_order_relaxed);
  }

 private:
  std::atomic<std::uint64_t> value_{0};
};

/// Monotonically increasing double accumulator (seconds of work,
/// nanoseconds of delay, ...). Thread-safe via the CAS add loop.
class DoubleCounter {
 public:
  void add(double v) { detail::atomic_add(value_, v); }
  double value() const { return value_.load(std::memory_order_relaxed); }

 private:
  std::atomic<double> value_{0.0};
};

/// Last-write-wins instantaneous value. A gauge its owner sets only
/// when it is sampled (serve.uptime_seconds, serve.queue_depth,
/// serve.op.rate) reads as of the last sample in every other sink.
class Gauge {
 public:
  void set(double v) { value_.store(v, std::memory_order_relaxed); }
  void add(double v) { detail::atomic_add(value_, v); }
  double value() const { return value_.load(std::memory_order_relaxed); }

 private:
  std::atomic<double> value_{0.0};
};

/// Fixed-bucket histogram: `bounds` are inclusive upper bounds of the
/// finite buckets; one overflow bucket is appended implicitly.
class Histogram {
 public:
  explicit Histogram(std::vector<double> bounds);

  void observe(double v);

  const std::vector<double>& bounds() const { return bounds_; }
  std::vector<std::uint64_t> bucket_counts() const;
  std::uint64_t count() const { return count_.load(std::memory_order_relaxed); }
  double sum() const { return sum_.load(std::memory_order_relaxed); }

 private:
  std::vector<double> bounds_;
  std::vector<std::atomic<std::uint64_t>> counts_;
  std::atomic<std::uint64_t> count_{0};
  std::atomic<double> sum_{0.0};
};

/// Streaming quantile instrument: a mutex-guarded mergeable t-digest
/// (obs/tdigest.h). Built for latency tails — p99/p999 stay sharp
/// wherever the distribution lands, unlike a fixed bucket ladder.
class Digest {
 public:
  explicit Digest(double compression = 100.0) : digest_(compression) {}

  void observe(double v) {
    std::lock_guard<std::mutex> lock(mutex_);
    digest_.add(v);
  }
  /// Consistent point-in-time copy (merge it, serialize it, query it).
  TDigest snapshot() const {
    std::lock_guard<std::mutex> lock(mutex_);
    digest_.compress();
    return digest_;
  }
  double quantile(double q) const { return snapshot().quantile(q); }
  std::uint64_t count() const {
    std::lock_guard<std::mutex> lock(mutex_);
    return static_cast<std::uint64_t>(digest_.count());
  }

 private:
  mutable std::mutex mutex_;
  TDigest digest_;
};

/// One label of a series, e.g. {"op", "ping"}. Label keys must be
/// Prometheus label names ([a-zA-Z_][a-zA-Z0-9_]*); values are free
/// text. The same key order must be used on every call for a series.
using Label = std::pair<std::string_view, std::string_view>;
using Labels = std::initializer_list<Label>;

namespace detail {
/// Family name -> series, each series keyed by its rendered label
/// body (`op="ping",rung="none"`; empty for the unlabelled series).
template <class T>
using Families =
    std::map<std::string, std::map<std::string, T, std::less<>>, std::less<>>;
}  // namespace detail

/// The process-wide registry (leaked singleton, never destroyed).
class MetricsRegistry {
 public:
  static MetricsRegistry& instance();

  Counter& counter(std::string_view name, Labels labels = {});
  DoubleCounter& double_counter(std::string_view name);
  Gauge& gauge(std::string_view name, Labels labels = {});
  /// First call fixes the bucket bounds; later calls with the same
  /// name return the existing histogram regardless of `bounds`.
  Histogram& histogram(std::string_view name, std::vector<double> bounds);
  /// First call fixes the compression; later calls for the same series
  /// return the existing digest regardless of `compression`.
  Digest& digest(std::string_view name, Labels labels = {},
                 double compression = 100.0);

  /// Full registry state as a JSON document
  /// {"counters":{...},"gauges":{...},"histograms":{...},
  ///  "digests":{...}} (each digest carries its centroid state plus a
  /// "q" block of p50/p90/p95/p99/p999 estimates). A labelled series
  /// is keyed `name{k="v",...}`, an unlabelled one by its bare name.
  /// Families whose name starts with a non-empty `skip_prefix` are
  /// left out. Every sink (the LVF2_METRICS dump, the manifest's
  /// `metrics` member, the `metrics` op) embeds or renders this one
  /// document.
  JsonValue to_json(std::string_view skip_prefix = {}) const;
  /// Prometheus text exposition (version 0.0.4): counters as
  /// `<prefix><name>_total`, gauges plain, histograms as cumulative
  /// `_bucket{le=...}` + `_sum`/`_count`, digests as
  /// `{quantile=...}` summaries + `_sum`/`_count`. Metric names are
  /// the registry names with non-[a-zA-Z0-9_] flattened to '_'. Each
  /// family has one type line followed by all of its series; a
  /// digest's `quantile` label joins the series' own labels.
  std::string to_prometheus(std::string_view prefix = "lvf2_") const;
  /// Writes to_json(), rendered, to `path` (best-effort; logs to
  /// stderr on failure).
  void write_json(const std::string& path) const;
  /// Human-readable summary, one instrument per line.
  void write_text(std::FILE* out) const;

 private:
  MetricsRegistry() = default;

  mutable std::mutex mutex_;
  detail::Families<Counter> counters_;
  detail::Families<DoubleCounter> double_counters_;
  detail::Families<Gauge> gauges_;
  detail::Families<Histogram> histograms_;
  detail::Families<Digest> digests_;
};

/// Convenience accessors against the process registry.
inline Counter& counter(std::string_view name, Labels labels = {}) {
  return MetricsRegistry::instance().counter(name, labels);
}
inline DoubleCounter& double_counter(std::string_view name) {
  return MetricsRegistry::instance().double_counter(name);
}
inline Gauge& gauge(std::string_view name, Labels labels = {}) {
  return MetricsRegistry::instance().gauge(name, labels);
}
inline Histogram& histogram(std::string_view name,
                            std::vector<double> bounds) {
  return MetricsRegistry::instance().histogram(name, std::move(bounds));
}
inline Digest& digest(std::string_view name, Labels labels = {},
                      double compression = 100.0) {
  return MetricsRegistry::instance().digest(name, labels, compression);
}

}  // namespace lvf2::obs
