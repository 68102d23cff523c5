#include "spans.h"

#include <algorithm>
#include <atomic>
#include <utility>

#include "obs/json.h"

namespace lvf2bench {

namespace {

thread_local int t_current = -1;

std::uint32_t thread_index() {
  static std::atomic<std::uint32_t> next{0};
  thread_local const std::uint32_t index =
      next.fetch_add(1, std::memory_order_relaxed);
  return index;
}

}  // namespace

SpanRecorder::SpanRecorder() : epoch_(Clock::now()) {}

SpanRecorder& SpanRecorder::instance() {
  static SpanRecorder recorder;
  return recorder;
}

void SpanRecorder::enable(bool on) {
  enabled_.store(on, std::memory_order_relaxed);
}

int SpanRecorder::open(std::string_view name, int parent) {
  if (!enabled()) return -1;
  Span span;
  span.name = std::string(name);
  span.parent = parent;
  span.thread = thread_index();
  span.start_ns = std::chrono::duration_cast<std::chrono::nanoseconds>(
                      Clock::now() - epoch_)
                      .count();
  std::lock_guard<std::mutex> lock(mutex_);
  spans_.push_back(std::move(span));
  return static_cast<int>(spans_.size()) - 1;
}

void SpanRecorder::close(int id) {
  if (id < 0) return;
  const std::int64_t now = std::chrono::duration_cast<std::chrono::nanoseconds>(
                               Clock::now() - epoch_)
                               .count();
  std::lock_guard<std::mutex> lock(mutex_);
  spans_[static_cast<std::size_t>(id)].end_ns = now;
}

std::vector<Span> SpanRecorder::snapshot() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return spans_;
}

void SpanRecorder::clear() {
  std::lock_guard<std::mutex> lock(mutex_);
  spans_.clear();
}

int current_span() { return t_current; }

ScopedSpan::ScopedSpan(std::string_view name)
    : ScopedSpan(name, t_current) {}

ScopedSpan::ScopedSpan(std::string_view name, int parent)
    : id_(SpanRecorder::instance().open(name, parent)),
      saved_current_(t_current) {
  if (id_ >= 0) t_current = id_;
}

ScopedSpan::~ScopedSpan() {
  if (id_ < 0) return;
  SpanRecorder::instance().close(id_);
  t_current = saved_current_;
}

std::vector<double> self_times_ms(const std::vector<Span>& spans) {
  std::vector<std::vector<std::pair<std::int64_t, std::int64_t>>> children(
      spans.size());
  for (const Span& s : spans) {
    if (s.parent < 0 || static_cast<std::size_t>(s.parent) >= spans.size()) {
      continue;
    }
    const Span& p = spans[static_cast<std::size_t>(s.parent)];
    const std::int64_t lo = std::max(s.start_ns, p.start_ns);
    const std::int64_t hi = std::min(s.end_ns, p.end_ns);
    if (hi > lo) children[static_cast<std::size_t>(s.parent)].push_back({lo, hi});
  }
  std::vector<double> out(spans.size(), 0.0);
  for (std::size_t i = 0; i < spans.size(); ++i) {
    auto& iv = children[i];
    std::sort(iv.begin(), iv.end());
    std::int64_t covered = 0;
    std::int64_t run_lo = 0;
    std::int64_t run_hi = -1;
    for (const auto& [lo, hi] : iv) {
      if (run_hi < run_lo || lo > run_hi) {
        if (run_hi > run_lo) covered += run_hi - run_lo;
        run_lo = lo;
        run_hi = hi;
      } else {
        run_hi = std::max(run_hi, hi);
      }
    }
    if (run_hi > run_lo) covered += run_hi - run_lo;
    out[i] = (spans[i].end_ns - spans[i].start_ns - covered) * 1e-6;
  }
  return out;
}

std::map<std::string, SpanRollup> rollup(const std::vector<Span>& spans) {
  const std::vector<double> self = self_times_ms(spans);
  std::map<std::string, SpanRollup> out;
  for (std::size_t i = 0; i < spans.size(); ++i) {
    SpanRollup& r = out[spans[i].name];
    r.count += 1;
    r.total_ms += spans[i].duration_ms();
    r.self_ms += self[i];
    r.durations_ms.push_back(spans[i].duration_ms());
  }
  return out;
}

std::string chrome_trace_json(const std::vector<Span>& spans) {
  std::string out = "{\"traceEvents\":[";
  for (std::size_t i = 0; i < spans.size(); ++i) {
    const Span& s = spans[i];
    if (i > 0) out += ",";
    out += "{\"name\":";
    lvf2::obs::json_append_string(out, s.name);
    out += ",\"ph\":\"X\",\"pid\":1,\"tid\":" + std::to_string(s.thread);
    out += ",\"ts\":";
    lvf2::obs::json_append_number(out, s.start_ns * 1e-3, 17);
    out += ",\"dur\":";
    lvf2::obs::json_append_number(out, (s.end_ns - s.start_ns) * 1e-3, 17);
    out += ",\"args\":{\"id\":" + std::to_string(i) +
           ",\"parent\":" + std::to_string(s.parent) + "}}";
  }
  out += "]}\n";
  return out;
}

}  // namespace lvf2bench
