#pragma once
// Live serving telemetry behind the `metrics` protocol op and the
// manifest's "serve_telemetry" section: per-op request/response
// counts, degradation-rung mix, rolling 1s/10s/60s request rates,
// queue-wait / exec-wall quantile digests, and deadline-compliance
// ratios. Every number lives in the metrics registry, as a family
// labelled by `op` (serve.op.requests, .responded, .ok, .failed,
// .degraded{rung}, .deadline, .deadline_met counters; .queue_ms and
// .exec_ms digests; .rate{window} gauges) or as a serve.* gauge. One
// leaked process-wide singleton, same lifetime contract as the
// metrics registry — the manifest section provider reads it at
// atexit, long after the Server object is gone.
//
// The uptime, queue-depth and rate gauges are written only when a
// snapshot is taken (snapshot_json(), prometheus()).
// Any other reader of the registry — the LVF2_METRICS exit dump, the
// text sink, a bench capture — sees the value from the last snapshot,
// or 0 if none was taken.
//
// Cost model: the op set is closed (eight known ops plus "other"), so
// each op's instruments are resolved once, on first sight, into a
// fixed array. Recording is then a handful of relaxed atomic
// increments plus two digest observations (an uncontended mutex each)
// per request, with no name lookup — request handling is
// milliseconds, this is nanoseconds.

#include <array>
#include <atomic>
#include <chrono>
#include <cstdint>
#include <functional>
#include <mutex>
#include <string>
#include <string_view>

#include "obs/json.h"
#include "obs/metrics.h"

namespace lvf2::serve {

/// Rolling per-second event counts over the last 64 seconds, written
/// lock-free. Bucket claiming races can misattribute a handful of
/// events at second boundaries under heavy concurrency — rates are
/// for operators' eyes, the exact totals live in the counters.
class RateWindow {
 public:
  static constexpr int kBuckets = 64;

  void record(std::int64_t now_s, std::uint64_t n = 1) {
    const std::size_t i =
        static_cast<std::size_t>(now_s) & (kBuckets - 1);
    std::int64_t stamp = stamps_[i].load(std::memory_order_relaxed);
    if (stamp != now_s &&
        stamps_[i].compare_exchange_strong(stamp, now_s,
                                           std::memory_order_relaxed)) {
      counts_[i].store(0, std::memory_order_relaxed);
    }
    counts_[i].fetch_add(n, std::memory_order_relaxed);
  }

  /// Events in the `span_s` whole seconds ending at (and including)
  /// `now_s`.
  std::uint64_t sum(std::int64_t now_s, int span_s) const {
    std::uint64_t total = 0;
    if (span_s > kBuckets) span_s = kBuckets;
    for (int k = 0; k < span_s; ++k) {
      const std::int64_t s = now_s - k;
      if (s < 0) break;
      const std::size_t i = static_cast<std::size_t>(s) & (kBuckets - 1);
      if (stamps_[i].load(std::memory_order_relaxed) == s) {
        total += counts_[i].load(std::memory_order_relaxed);
      }
    }
    return total;
  }

 private:
  std::array<std::atomic<std::int64_t>, kBuckets> stamps_{};
  std::array<std::atomic<std::uint64_t>, kBuckets> counts_{};
};

class ServeTelemetry {
 public:
  static ServeTelemetry& instance();

  /// Records a parsed request (reader side, pre-admission). Unknown
  /// ops fold into "other" so a hostile client cannot grow the
  /// registry without bound.
  void record_request(std::string_view op);

  /// Records a completed response (dispatch side). `budget_ms` <= 0
  /// means the request ran without a deadline.
  void record_response(std::string_view op, bool is_ok,
                       std::string_view degradation, double queue_ms,
                       double exec_ms, double budget_ms);

  /// In-flight request tracking (between dispatch and respond).
  void inflight_add(int delta) { inflight_.add(delta); }

  /// The server installs a live queue-depth reader at start() and
  /// clears it in wait(); snapshots report 0 when no server is up.
  void set_queue_depth_provider(std::function<std::size_t()> provider);

  /// Configured default deadline budget (ms; 0 = none), for SLO
  /// reporting. Set by the server at start().
  void set_deadline_budget_ms(double budget) { budget_ms_.set(budget); }

  /// The `metrics` op JSON payload: uptime, queue/inflight, the
  /// all-ops deadline block, per-op rows (counts, rung mix, 1s/10s/60s
  /// rates, deadline compliance, queue/exec quantiles) for every op
  /// seen so far and, with `with_registry`, the metrics-registry
  /// document. Without the registry it is the manifest's
  /// "serve_telemetry" section.
  obs::JsonValue snapshot_json(bool with_registry = true) const;
  /// Prometheus text exposition of the registry, after the
  /// snapshot-time gauges are set.
  std::string prometheus() const;

 private:
  /// One op's registry series, resolved on the op's first sight.
  struct OpSeries {
    std::once_flag once;
    std::atomic<bool> seen{false};
    obs::Counter* requests = nullptr;
    obs::Counter* responded = nullptr;
    obs::Counter* ok = nullptr;
    obs::Counter* failed = nullptr;
    std::array<obs::Counter*, 4> degraded{};  ///< by rung, ok answers
    obs::Counter* deadline = nullptr;
    obs::Counter* deadline_met = nullptr;
    obs::Digest* queue_ms = nullptr;
    obs::Digest* exec_ms = nullptr;
    std::array<obs::Gauge*, 3> rate{};  ///< 1s/10s/60s windows
    RateWindow window;
  };

  ServeTelemetry();
  OpSeries& series(std::string_view op);
  /// Seconds since the telemetry singleton was created (~ process
  /// start), as a monotone integer — the RateWindow clock.
  std::int64_t now_s() const;
  /// Sets the snapshot-time gauges (uptime, queue depth, rates).
  void refresh_gauges() const;

  std::chrono::steady_clock::time_point start_;
  obs::Gauge& uptime_;
  obs::Gauge& queue_depth_;
  obs::Gauge& inflight_;
  obs::Gauge& budget_ms_;
  std::array<OpSeries, 9> op_series_;  ///< the closed op set, row order
  mutable std::mutex provider_mutex_;
  std::function<std::size_t()> queue_depth_provider_;
};

}  // namespace lvf2::serve
