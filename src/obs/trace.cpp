#include "obs/trace.h"

#include <chrono>
#include <cstdlib>
#include <ctime>
#include <functional>
#include <thread>

#include "obs/json.h"

namespace lvf2::obs {

namespace detail {
std::atomic<bool> g_trace_enabled{false};
}  // namespace detail

namespace {

constexpr std::size_t kFlushThreshold = 8192;

double steady_ns() {
  return static_cast<double>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count());
}

std::uint32_t current_tid() {
  return static_cast<std::uint32_t>(
      std::hash<std::thread::id>{}(std::this_thread::get_id()) & 0x7fffffff);
}

// Fixed-point rendering of a timestamp (microseconds).
void append_double(std::string& out, double v) {
  char buf[32];
  std::snprintf(buf, sizeof(buf), "%.3f", v);
  out += buf;
}

// Reads LVF2_TRACE at static-initialization time so tracing covers
// main() end to end without any opt-in from the program itself.
struct TraceEnvInit {
  TraceEnvInit() {
    if (const char* path = std::getenv("LVF2_TRACE")) {
      if (path[0] != '\0') Tracer::instance().start(path);
    }
  }
} g_trace_env_init;

}  // namespace

double thread_cpu_us() {
#if defined(CLOCK_THREAD_CPUTIME_ID)
  struct timespec ts;
  if (clock_gettime(CLOCK_THREAD_CPUTIME_ID, &ts) == 0) {
    return static_cast<double>(ts.tv_sec) * 1e6 +
           static_cast<double>(ts.tv_nsec) * 1e-3;
  }
#endif
  return 0.0;
}

ArgsBuilder& ArgsBuilder::add(std::string_view key, std::string_view value) {
  if (!body_.empty()) body_ += ',';
  json_append_string(body_, key);
  body_ += ':';
  json_append_string(body_, value);
  return *this;
}

ArgsBuilder& ArgsBuilder::add_number(std::string_view key,
                                     std::string rendered) {
  if (!body_.empty()) body_ += ',';
  json_append_string(body_, key);
  body_ += ':';
  body_ += rendered;
  return *this;
}

std::string ArgsBuilder::str() {
  return "{" + std::move(body_) + "}";
}

Tracer& Tracer::instance() {
  static Tracer* tracer = new Tracer();  // leaked: see header
  return *tracer;
}

Tracer::Tracer() : base_ns_(steady_ns()) {}

double Tracer::now_us() const { return (steady_ns() - base_ns_) * 1e-3; }

void Tracer::start(const std::string& path) {
  std::lock_guard<std::mutex> lock(mutex_);
  if (sink_ != nullptr) return;
  // Stream into <path>.tmp; stop() renames it onto <path>, so a
  // crashed or fault-injected run never leaves a truncated trace.
  final_path_ = path;
  tmp_path_ = path + ".tmp";
  sink_ = std::fopen(tmp_path_.c_str(), "w");
  if (sink_ == nullptr) {
    std::fprintf(stderr, "lvf2-obs: cannot open trace sink %s\n",
                 path.c_str());
    return;
  }
  std::fputs("{\"traceEvents\":[", sink_);
  wrote_any_ = false;
  buffer_.reserve(kFlushThreshold);
  detail::g_trace_enabled.store(true, std::memory_order_relaxed);
  static bool registered = false;
  if (!registered) {
    registered = true;
    std::atexit([] { Tracer::instance().stop(); });
  }
}

void Tracer::stop() {
  std::lock_guard<std::mutex> lock(mutex_);
  // Spans keep recording if rollup aggregation is on (manifest mode).
  detail::g_trace_enabled.store(rollup_enabled_, std::memory_order_relaxed);
  if (sink_ == nullptr) return;
  flush_locked();
  std::fputs("]}\n", sink_);
  std::fclose(sink_);
  sink_ = nullptr;
  if (std::rename(tmp_path_.c_str(), final_path_.c_str()) != 0) {
    std::fprintf(stderr, "lvf2-obs: cannot finalize trace sink %s\n",
                 final_path_.c_str());
    std::remove(tmp_path_.c_str());
  }
}

void Tracer::enable_rollup() {
  std::lock_guard<std::mutex> lock(mutex_);
  rollup_enabled_ = true;
  detail::g_trace_enabled.store(true, std::memory_order_relaxed);
}

std::vector<std::pair<std::string, StageRollup>> Tracer::rollup() {
  std::lock_guard<std::mutex> lock(mutex_);
  return {rollup_.begin(), rollup_.end()};
}

void Tracer::flush() {
  std::lock_guard<std::mutex> lock(mutex_);
  flush_locked();
  if (sink_ != nullptr) std::fflush(sink_);
}

void Tracer::flush_locked() {
  if (sink_ == nullptr) {
    buffer_.clear();
    return;
  }
  for (const std::string& event : buffer_) {
    if (wrote_any_) std::fputc(',', sink_);
    std::fputs(event.c_str(), sink_);
    wrote_any_ = true;
  }
  buffer_.clear();
}

void Tracer::append_locked(std::string event) {
  buffer_.push_back(std::move(event));
  if (buffer_.size() >= kFlushThreshold) flush_locked();
}

void Tracer::complete_event(std::string_view name, double start_us,
                            double dur_us, double cpu_dur_us,
                            std::string_view args_json, AllocSnapshot alloc) {
  std::lock_guard<std::mutex> lock(mutex_);
  if (rollup_enabled_) {
    auto it = rollup_.find(name);
    if (it == rollup_.end()) {
      it = rollup_.try_emplace(std::string(name)).first;
    }
    it->second.count += 1;
    it->second.wall_us += dur_us;
    it->second.cpu_us += (cpu_dur_us > 0.0) ? cpu_dur_us : 0.0;
    it->second.alloc_count += alloc.count;
    it->second.alloc_bytes += alloc.bytes;
  }
  // In rollup-only mode (manifest without LVF2_TRACE) spans cost the
  // aggregation update above and no string work.
  if (sink_ == nullptr) return;
  std::string e;
  e.reserve(96 + name.size() + args_json.size());
  e += "{\"name\":";
  json_append_string(e, name);
  e += ",\"cat\":\"lvf2\",\"ph\":\"X\",\"ts\":";
  append_double(e, start_us);
  e += ",\"dur\":";
  append_double(e, dur_us);
  e += ",\"pid\":1,\"tid\":";
  e += std::to_string(current_tid());
  if (!args_json.empty()) {
    e += ",\"args\":";
    e += args_json;
  }
  e += '}';
  append_locked(std::move(e));
}

void Tracer::counter_event(std::string_view name, double value) {
  std::string e;
  e.reserve(80 + name.size());
  e += "{\"name\":";
  json_append_string(e, name);
  e += ",\"ph\":\"C\",\"ts\":";
  append_double(e, now_us());
  e += ",\"pid\":1,\"tid\":";
  e += std::to_string(current_tid());
  e += ",\"args\":{\"value\":";
  json_append_number(e, value);
  e += "}}";
  std::lock_guard<std::mutex> lock(mutex_);
  if (sink_ == nullptr) return;  // rollup-only mode: counters no-op
  append_locked(std::move(e));
}

}  // namespace lvf2::obs
