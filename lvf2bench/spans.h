#pragma once
// The benchmark's own span recorder. A span (name, start, end, parent)
// is recorded around each call the traced pass makes into a library
// layer; spans are kept in memory and written out when the run ends.
// Nothing here reaches into the library: spans wrap public calls from
// the outside, so the library itself runs untouched.
//
// The span name's prefix up to the first '.' names its layer ("core",
// "spice", "cells", ...). A span's self time is its duration minus the
// part of its interval covered by its children (the union of the child
// intervals, so children running in parallel on pool threads are not
// double-subtracted).

#include <atomic>
#include <chrono>
#include <cstdint>
#include <map>
#include <mutex>
#include <string>
#include <string_view>
#include <vector>

namespace lvf2bench {

using Clock = std::chrono::steady_clock;

struct Span {
  std::string name;
  std::int64_t start_ns = 0;  ///< since the recorder's epoch
  std::int64_t end_ns = 0;
  int parent = -1;            ///< index of the parent span, -1 for a root
  std::uint32_t thread = 0;   ///< small per-thread index
  double duration_ms() const { return (end_ns - start_ns) * 1e-6; }
};

/// Process-wide span store. Recording is off until enable(); a disabled
/// recorder makes ScopedSpan a no-op.
class SpanRecorder {
 public:
  static SpanRecorder& instance();

  void enable(bool on);
  bool enabled() const { return enabled_.load(std::memory_order_relaxed); }

  /// Opens a span and returns its index (-1 when disabled).
  int open(std::string_view name, int parent);
  void close(int id);

  std::vector<Span> snapshot() const;
  void clear();

 private:
  SpanRecorder();
  std::atomic<bool> enabled_{false};
  Clock::time_point epoch_;
  mutable std::mutex mutex_;
  std::vector<Span> spans_;
};

/// Innermost span open on the calling thread (-1 when none).
int current_span();

/// RAII span. The one-argument form nests under the calling thread's
/// innermost open span; the two-argument form names the parent
/// explicitly (work handed to pool threads names the span that caused
/// it). Either way the new span becomes the thread's innermost span
/// until it closes.
class ScopedSpan {
 public:
  explicit ScopedSpan(std::string_view name);
  ScopedSpan(std::string_view name, int parent);
  ~ScopedSpan();
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

  int id() const { return id_; }

 private:
  int id_ = -1;
  int saved_current_ = -1;
};

/// Self time of every span (same indexing as `spans`), in ms.
std::vector<double> self_times_ms(const std::vector<Span>& spans);

/// Per-name rollup of a span set.
struct SpanRollup {
  std::size_t count = 0;
  double total_ms = 0.0;
  double self_ms = 0.0;
  std::vector<double> durations_ms;
};
std::map<std::string, SpanRollup> rollup(const std::vector<Span>& spans);

/// Chrome trace-event JSON ("X" events, microseconds) with each span's
/// index and parent in its args.
std::string chrome_trace_json(const std::vector<Span>& spans);

}  // namespace lvf2bench
