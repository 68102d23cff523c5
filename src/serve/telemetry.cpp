#include "serve/telemetry.h"

#include <algorithm>
#include <iterator>
#include <utility>

namespace lvf2::serve {

namespace {

using obs::json_number;
using obs::json_object;

// Known op surface, in row order. Everything else folds into "other"
// so a hostile client spraying random op names cannot grow the
// registry.
constexpr std::string_view kOps[] = {
    "arc_dist", "bin",   "metrics", "other",   "path_ssta",
    "ping",     "stats", "yield3",  "yield_hs"};
constexpr std::size_t kOther = 3;
constexpr std::string_view kRungs[] = {"none", "cached", "single_sn",
                                       "point_mass"};
constexpr std::pair<std::string_view, int> kWindows[] = {
    {"1s", 1}, {"10s", 10}, {"60s", 60}};

template <std::size_t N>
std::size_t index_of(const std::string_view (&names)[N],
                     std::string_view name, std::size_t fallback) {
  const auto it = std::find(std::begin(names), std::end(names), name);
  return it == std::end(names) ? fallback : it - std::begin(names);
}

obs::JsonValue count(const obs::Counter& c) {
  return json_number(static_cast<double>(c.value()));
}

// Deadline counts plus compliance (1 when nothing ran under a budget).
obs::JsonValue deadline_block(std::uint64_t total, std::uint64_t met) {
  const double compliance =
      total == 0 ? 1.0 : static_cast<double>(met) / static_cast<double>(total);
  return json_object({{"total", json_number(static_cast<double>(total))},
                      {"met", json_number(static_cast<double>(met))},
                      {"compliance", json_number(compliance)}});
}

double quantile_or_zero(const obs::TDigest& d, double q) {
  return d.count() > 0.0 ? d.quantile(q) : 0.0;
}

obs::JsonValue quantiles(const obs::Digest& digest) {
  const obs::TDigest snap = digest.snapshot();
  return json_object({{"count", json_number(snap.count())},
                      {"p50", json_number(quantile_or_zero(snap, 0.5))},
                      {"p95", json_number(quantile_or_zero(snap, 0.95))},
                      {"p99", json_number(quantile_or_zero(snap, 0.99))}});
}

}  // namespace

ServeTelemetry::ServeTelemetry()
    : start_(std::chrono::steady_clock::now()),
      uptime_(obs::gauge("serve.uptime_seconds")),
      queue_depth_(obs::gauge("serve.queue_depth")),
      inflight_(obs::gauge("serve.inflight")),
      budget_ms_(obs::gauge("serve.deadline_budget_ms")) {
  static_assert(std::size(kOps) == std::tuple_size_v<decltype(op_series_)>);
}

ServeTelemetry& ServeTelemetry::instance() {
  static ServeTelemetry* telemetry = new ServeTelemetry();  // leaked
  return *telemetry;
}

std::int64_t ServeTelemetry::now_s() const {
  return std::chrono::duration_cast<std::chrono::seconds>(
             std::chrono::steady_clock::now() - start_)
      .count();
}

ServeTelemetry::OpSeries& ServeTelemetry::series(std::string_view op) {
  const std::size_t index = index_of(kOps, op, kOther);
  OpSeries& s = op_series_[index];
  std::call_once(s.once, [&s, op = kOps[index]] {
    const obs::Labels by_op = {{"op", op}};
    s.requests = &obs::counter("serve.op.requests", by_op);
    s.responded = &obs::counter("serve.op.responded", by_op);
    s.ok = &obs::counter("serve.op.ok", by_op);
    s.failed = &obs::counter("serve.op.failed", by_op);
    for (std::size_t i = 0; i < s.degraded.size(); ++i) {
      s.degraded[i] = &obs::counter("serve.op.degraded",
                                    {{"op", op}, {"rung", kRungs[i]}});
    }
    s.deadline = &obs::counter("serve.op.deadline", by_op);
    s.deadline_met = &obs::counter("serve.op.deadline_met", by_op);
    s.queue_ms = &obs::digest("serve.op.queue_ms", by_op, 64.0);
    s.exec_ms = &obs::digest("serve.op.exec_ms", by_op, 64.0);
    for (std::size_t i = 0; i < s.rate.size(); ++i) {
      s.rate[i] = &obs::gauge("serve.op.rate",
                              {{"op", op}, {"window", kWindows[i].first}});
    }
    s.seen.store(true, std::memory_order_release);
  });
  return s;
}

void ServeTelemetry::record_request(std::string_view op) {
  OpSeries& s = series(op);
  s.requests->add();
  s.window.record(now_s());
}

void ServeTelemetry::record_response(std::string_view op, bool is_ok,
                                     std::string_view degradation,
                                     double queue_ms, double exec_ms,
                                     double budget_ms) {
  static obs::Digest& all_queue = obs::digest("serve.queue_ms");
  static obs::Digest& all_exec = obs::digest("serve.exec_ms");
  // The deadline-bounded population: what the SLO gate holds against
  // the configured budget.
  static obs::Digest& deadline_queue = obs::digest("serve.deadline.queue_ms");
  static obs::Digest& deadline_exec = obs::digest("serve.deadline.exec_ms");
  OpSeries& s = series(op);
  s.responded->add();
  if (is_ok) {
    s.ok->add();
    s.degraded[index_of(kRungs, degradation, 0)]->add();
  } else {
    s.failed->add();
  }
  s.queue_ms->observe(queue_ms);
  s.exec_ms->observe(exec_ms);
  all_queue.observe(queue_ms);
  all_exec.observe(exec_ms);
  if (budget_ms > 0.0) {
    s.deadline->add();
    if (is_ok && queue_ms + exec_ms <= budget_ms) s.deadline_met->add();
    deadline_queue.observe(queue_ms);
    deadline_exec.observe(exec_ms);
  }
}

void ServeTelemetry::set_queue_depth_provider(
    std::function<std::size_t()> provider) {
  std::lock_guard<std::mutex> lock(provider_mutex_);
  queue_depth_provider_ = std::move(provider);
}

void ServeTelemetry::refresh_gauges() const {
  uptime_.set(std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                            start_)
                  .count());
  {
    std::lock_guard<std::mutex> lock(provider_mutex_);
    queue_depth_.set(static_cast<double>(
        queue_depth_provider_ ? queue_depth_provider_() : 0));
  }
  const std::int64_t now = now_s();
  for (const OpSeries& s : op_series_) {
    if (!s.seen.load(std::memory_order_acquire)) continue;
    for (std::size_t i = 0; i < s.rate.size(); ++i) {
      const int span = kWindows[i].second;
      s.rate[i]->set(static_cast<double>(s.window.sum(now, span)) / span);
    }
  }
}

obs::JsonValue ServeTelemetry::snapshot_json(bool with_registry) const {
  refresh_gauges();
  const std::int64_t now = now_s();
  std::uint64_t deadline_total = 0;
  std::uint64_t deadline_met = 0;
  obs::JsonValue ops = json_object();
  for (std::size_t index = 0; index < op_series_.size(); ++index) {
    const OpSeries& s = op_series_[index];
    if (!s.seen.load(std::memory_order_acquire)) continue;
    obs::JsonValue rungs = json_object();
    for (std::size_t i = 0; i < s.degraded.size(); ++i) {
      rungs.object.emplace_back(kRungs[i], count(*s.degraded[i]));
    }
    obs::JsonValue row = json_object({{"requests", count(*s.requests)},
                                      {"responded", count(*s.responded)},
                                      {"ok", count(*s.ok)},
                                      {"failed", count(*s.failed)}});
    row.object.emplace_back("degradation", std::move(rungs));
    for (const auto& [label, span] : kWindows) {
      row.object.emplace_back(
          "rate_" + std::string(label),
          json_number(static_cast<double>(s.window.sum(now, span))));
    }
    const std::uint64_t total = s.deadline->value();
    const std::uint64_t met = s.deadline_met->value();
    deadline_total += total;
    deadline_met += met;
    row.object.emplace_back("deadline", deadline_block(total, met));
    row.object.emplace_back("queue_ms", quantiles(*s.queue_ms));
    row.object.emplace_back("exec_ms", quantiles(*s.exec_ms));
    ops.object.emplace_back(kOps[index], std::move(row));
  }
  // All ops' deadline-bounded requests: what the --serve gate holds
  // against the configured budget.
  obs::JsonValue deadline = deadline_block(deadline_total, deadline_met);
  for (const char* stage : {"queue", "exec"}) {
    const obs::TDigest snap =
        obs::digest(std::string("serve.deadline.") + stage + "_ms").snapshot();
    deadline.object.emplace_back(std::string(stage) + "_p99_ms",
                                 json_number(quantile_or_zero(snap, 0.99)));
  }
  obs::JsonValue out =
      json_object({{"uptime_s", json_number(uptime_.value())},
                   {"queue_depth", json_number(queue_depth_.value())},
                   {"inflight", json_number(inflight_.value())},
                   {"deadline_budget_ms", json_number(budget_ms_.value())}});
  out.object.emplace_back("deadline", std::move(deadline));
  out.object.emplace_back("ops", std::move(ops));
  // The rest of the registry rides along (counters, gauges,
  // histograms, digests), so one op answers everything an operator can
  // ask. The serve.op.* families are the rows above; repeating them
  // would send every per-op number twice, each digest with its full
  // centroid state.
  if (with_registry) {
    out.object.emplace_back(
        "registry", obs::MetricsRegistry::instance().to_json("serve.op."));
  }
  return out;
}

std::string ServeTelemetry::prometheus() const {
  refresh_gauges();
  return obs::MetricsRegistry::instance().to_prometheus();
}

}  // namespace lvf2::serve
