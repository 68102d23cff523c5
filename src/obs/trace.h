#pragma once
// Scoped-span tracer emitting Chrome trace-event JSON (loadable in
// chrome://tracing or Perfetto). Recording is off unless the process
// starts with LVF2_TRACE=<path> (or a test calls Tracer::start()):
// the disabled path of a span or counter is a single relaxed atomic
// load, verified < 5 ns/call by BM_DisabledSpan in bench_perf.
//
// Event schema (one JSON object per event, ts/dur in microseconds
// since process start):
//   span     {"name":N,"cat":"lvf2","ph":"X","ts":T,"dur":D,
//             "pid":1,"tid":TID,"args":{...}}
//   counter  {"name":N,"ph":"C","ts":T,"pid":1,"tid":TID,
//             "args":{"value":V}}
// Events are buffered per process and flushed to the sink file in
// batches under a mutex (thread-safe, single writer).

#include <atomic>
#include <concepts>
#include <cstdio>
#include <map>
#include <mutex>
#include <string>
#include <string_view>
#include <type_traits>
#include <utility>
#include <vector>

#include "obs/profile.h"
#include "obs/resource.h"

namespace lvf2::obs {

namespace detail {
extern std::atomic<bool> g_trace_enabled;
}  // namespace detail

/// True when a trace sink is open. Relaxed load: the only cost paid
/// by instrumented code when tracing is off.
inline bool trace_enabled() {
  return detail::g_trace_enabled.load(std::memory_order_relaxed);
}

/// CPU time consumed by the calling thread, in microseconds
/// (CLOCK_THREAD_CPUTIME_ID; 0 where unavailable). Sampled by spans
/// so stage rollups can report wall and CPU side by side.
double thread_cpu_us();

/// Incremental builder for a span's "args" JSON object. Build one
/// only behind a trace_enabled() check (TraceSpan's lambda
/// constructor does this for you).
class ArgsBuilder {
 public:
  ArgsBuilder& add(std::string_view key, std::string_view value);
  template <std::integral T>
  ArgsBuilder& add(std::string_view key, T value) {
    return add_number(key, std::to_string(static_cast<long long>(value)));
  }
  template <std::floating_point T>
  ArgsBuilder& add(std::string_view key, T value) {
    return add_number(key, std::to_string(static_cast<double>(value)));
  }

  /// The finished object, e.g. `{"cell":"NAND2_X1","samples":10000}`.
  /// Consumes the builder.
  std::string str();

 private:
  ArgsBuilder& add_number(std::string_view key, std::string rendered);
  std::string body_;
};

/// Aggregated cost of one span name: call count, total wall and
/// thread-CPU time, and (with allocation accounting on) the
/// allocations made inside it. Exported into run manifests as the
/// `stages` rollups and the `resource.stages` allocation columns.
struct StageRollup {
  std::uint64_t count = 0;
  double wall_us = 0.0;
  double cpu_us = 0.0;
  std::uint64_t alloc_count = 0;
  std::uint64_t alloc_bytes = 0;
};

/// Process-wide trace sink.
class Tracer {
 public:
  /// The process singleton (leaked intentionally: observability must
  /// outlive every static consumer).
  static Tracer& instance();

  /// Opens the sink and enables recording. The stream goes to
  /// `path`.tmp and is renamed onto `path` by stop(), so a crashed
  /// run never leaves a truncated trace. No-op if already recording.
  void start(const std::string& path);
  /// Flushes buffered events, finalizes the sink file, disables
  /// recording (rollup aggregation, if enabled, stays on).
  void stop();
  /// Flushes buffered events to the sink without closing it.
  void flush();

  /// Enables span aggregation (name -> count / wall / CPU rollup)
  /// without requiring a sink file. Used by the manifest recorder;
  /// stays on for the rest of the process.
  void enable_rollup();
  /// Snapshot of the aggregated rollups, sorted by span name.
  std::vector<std::pair<std::string, StageRollup>> rollup();

  /// Microseconds since process start (steady clock).
  double now_us() const;

  /// Records a completed span ("ph":"X"). `args_json` is a rendered
  /// JSON object or empty; `cpu_dur_us` is the span's thread-CPU
  /// time and `alloc` its allocation delta (both feed the rollup, not
  /// the trace event).
  void complete_event(std::string_view name, double start_us, double dur_us,
                      double cpu_dur_us, std::string_view args_json,
                      AllocSnapshot alloc);
  /// Records a counter sample ("ph":"C").
  void counter_event(std::string_view name, double value);

 private:
  Tracer();
  void append_locked(std::string event);
  void flush_locked();

  std::mutex mutex_;
  std::vector<std::string> buffer_;
  std::FILE* sink_ = nullptr;
  std::string final_path_;
  std::string tmp_path_;
  bool wrote_any_ = false;
  bool rollup_enabled_ = false;
  std::map<std::string, StageRollup, std::less<>> rollup_;
  double base_ns_ = 0.0;
};

/// Emits a counter sample when tracing is enabled; a relaxed atomic
/// load otherwise.
inline void trace_counter(std::string_view name, double value) {
  if (!trace_enabled()) return;
  Tracer::instance().counter_event(name, value);
}

/// RAII scoped span: records a complete event covering its lifetime.
/// The name (and optional args callback) are only materialized when
/// tracing is enabled. When the sampling profiler is on, the span
/// additionally tags its thread with the span name so hot stacks are
/// attributed to a stage; when allocation accounting is on, the
/// span's allocation delta feeds its stage rollup.
class TraceSpan {
 public:
  explicit TraceSpan(std::string_view name) {
    if (prof::profiler_enabled()) tag_stage(name);
    if (!trace_enabled()) return;
    open(name);
  }

  /// `args_fn` is invoked (only when tracing is enabled) to build the
  /// span's args; it must return a rendered JSON object string, e.g.
  /// via ArgsBuilder.
  template <typename F>
    requires std::is_invocable_r_v<std::string, F>
  TraceSpan(std::string_view name, F&& args_fn) {
    if (prof::profiler_enabled()) tag_stage(name);
    if (!trace_enabled()) return;
    open(name);
    args_ = std::forward<F>(args_fn)();
  }

  TraceSpan(const TraceSpan&) = delete;
  TraceSpan& operator=(const TraceSpan&) = delete;

  ~TraceSpan() {
    if (staged_) prof::pop_stage();
    if (!active_) return;
    AllocSnapshot alloc;
    if (alloc_tracked_) {
      const AllocSnapshot now = thread_alloc_totals();
      alloc = {now.count - alloc_start_.count, now.bytes - alloc_start_.bytes};
    }
    Tracer& t = Tracer::instance();
    t.complete_event(name_, start_us_, t.now_us() - start_us_,
                     thread_cpu_us() - start_cpu_us_, args_, alloc);
  }

 private:
  void tag_stage(std::string_view name) {
    prof::push_stage(name);
    staged_ = true;
  }

  void open(std::string_view name) {
    active_ = true;
    name_.assign(name);
    start_us_ = Tracer::instance().now_us();
    start_cpu_us_ = thread_cpu_us();
    if (alloc_stats_enabled()) {
      alloc_tracked_ = true;
      alloc_start_ = thread_alloc_totals();
    }
  }

  bool active_ = false;
  bool staged_ = false;
  bool alloc_tracked_ = false;
  double start_us_ = 0.0;
  double start_cpu_us_ = 0.0;
  AllocSnapshot alloc_start_;
  std::string name_;
  std::string args_;
};

}  // namespace lvf2::obs
