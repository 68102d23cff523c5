#include "exec/pool.h"

#include <algorithm>
#include <chrono>
#include <cstdlib>
#include <deque>

#include "obs/json.h"
#include "obs/manifest.h"
#include "obs/metrics.h"
#include "obs/profile.h"

namespace lvf2::exec {

namespace detail {
std::atomic<bool> g_telemetry_enabled{false};
}  // namespace detail

namespace {

thread_local bool t_in_parallel_region = false;

/// Marks the current thread as executing pool work for its lifetime.
struct RegionGuard {
  RegionGuard() : was(t_in_parallel_region) { t_in_parallel_region = true; }
  ~RegionGuard() { t_in_parallel_region = was; }
  bool was;
};

std::atomic<std::size_t> g_thread_override{0};

std::size_t default_thread_count() {
  std::size_t hw = std::thread::hardware_concurrency();
  if (hw == 0) hw = 1;
  return hw;
}

/// Per-slot telemetry accumulators. Written by the owning thread only
/// (relaxed stores suffice; readers snapshot). Lives in a leaked
/// registry so the manifest `exec` section can read it at process
/// exit, after the pool singleton (a function-local static) has
/// already joined its workers and died.
struct WorkerStatsSlot {
  std::atomic<std::uint64_t> chunks{0};
  std::atomic<std::uint64_t> indices{0};
  std::atomic<double> busy_us{0.0};
};

struct ExecStatsRegistry {
  std::mutex mutex;
  // deque: grows without relocating (slots hold atomics and are
  // written concurrently with growth for other slots).
  std::deque<WorkerStatsSlot> slots;

  static ExecStatsRegistry& instance() {
    static auto* registry = new ExecStatsRegistry();  // leaked
    return *registry;
  }

  WorkerStatsSlot& slot(std::size_t index) {
    std::lock_guard<std::mutex> lock(mutex);
    while (slots.size() <= index) slots.emplace_back();
    return slots[index];
  }
};

/// The `exec` manifest section: process-lifetime job counters plus
/// the per-slot utilization table when telemetry recorded work.
obs::JsonValue exec_section() {
  using obs::json_number;
  const auto count = [](const char* name) {
    return obs::json_u64(obs::counter(name).value());
  };
  obs::JsonValue per_worker = obs::json_array();
  const std::vector<WorkerTelemetry> slots = telemetry_snapshot();
  for (std::size_t i = 0; i < slots.size(); ++i) {
    per_worker.array.push_back(obs::json_object(
        {{"slot", i == 0 ? obs::json_string("caller")
                         : json_number(static_cast<double>(i))},
         {"chunks", obs::json_u64(slots[i].chunks)},
         {"indices", obs::json_u64(slots[i].indices)},
         {"busy_ms", json_number(slots[i].busy_us * 1e-3)}}));
  }
  return obs::json_object(
      {{"workers", json_number(static_cast<double>(thread_count()))},
       {"jobs", count("exec.pool.jobs")},
       {"indices", count("exec.pool.indices")},
       {"chunks", count("exec.pool.chunks")},
       {"job_wall_s",
        json_number(obs::double_counter("exec.pool.job_wall_s").value())},
       {"telemetry", obs::json_bool(telemetry_enabled())},
       {"per_worker", std::move(per_worker)}});
}

// Reads LVF2_EXEC_TELEMETRY and registers the manifest `exec` section
// at static-initialization time, mirroring the other obs env gates.
struct ExecTelemetryEnvInit {
  ExecTelemetryEnvInit() {
    if (const char* v = std::getenv("LVF2_EXEC_TELEMETRY")) {
      if (v[0] != '\0' && v[0] != '0') set_telemetry(true);
    }
    obs::ManifestRecorder::instance().set_section_provider(
        "exec", exec_section);
  }
} g_exec_telemetry_env_init;

obs::Histogram& chunk_latency_histogram() {
  static obs::Histogram& h = obs::histogram(
      "exec.pool.chunk_us", {1.0, 10.0, 100.0, 1e3, 1e4, 1e5, 1e6});
  return h;
}

obs::Histogram& job_wall_histogram() {
  static obs::Histogram& h = obs::histogram(
      "exec.pool.job_wall_ms", {0.1, 1.0, 10.0, 100.0, 1e3, 1e4});
  return h;
}

}  // namespace

void set_telemetry(bool enabled) {
  detail::g_telemetry_enabled.store(enabled, std::memory_order_relaxed);
}

std::vector<WorkerTelemetry> telemetry_snapshot() {
  ExecStatsRegistry& registry = ExecStatsRegistry::instance();
  std::lock_guard<std::mutex> lock(registry.mutex);
  std::vector<WorkerTelemetry> out;
  out.reserve(registry.slots.size());
  for (const WorkerStatsSlot& slot : registry.slots) {
    WorkerTelemetry t;
    t.chunks = slot.chunks.load(std::memory_order_relaxed);
    t.indices = slot.indices.load(std::memory_order_relaxed);
    t.busy_us = slot.busy_us.load(std::memory_order_relaxed);
    out.push_back(t);
  }
  return out;
}

std::size_t parse_thread_count(const char* text, std::size_t fallback) {
  if (text == nullptr || *text == '\0') return fallback;
  char* end = nullptr;
  const unsigned long value = std::strtoul(text, &end, 10);
  if (end == text || *end != '\0' || value == 0 || value > 4096) {
    return fallback;
  }
  return static_cast<std::size_t>(value);
}

std::size_t thread_count() {
  const std::size_t override = g_thread_override.load(std::memory_order_relaxed);
  if (override != 0) return override;
  static const std::size_t configured = parse_thread_count(
      std::getenv("LVF2_THREADS"), default_thread_count());
  return configured;
}

void set_thread_count(std::size_t count) {
  g_thread_override.store(count, std::memory_order_relaxed);
}

bool in_parallel_region() { return t_in_parallel_region; }

Pool::Pool(std::size_t workers) { ensure_workers(workers); }

Pool::~Pool() {
  {
    std::lock_guard<std::mutex> lock(mutex_);
    stop_ = true;
  }
  work_cv_.notify_all();
  for (std::thread& t : threads_) t.join();
}

Pool& Pool::instance() {
  // Function-local static (not leaked): workers are joined at static
  // destruction, before the exit-time observability sinks it never
  // touches, so sanitizers see a clean shutdown.
  static Pool pool(thread_count() > 1 ? thread_count() - 1 : 1);
  return pool;
}

void Pool::ensure_workers(std::size_t workers) {
  std::lock_guard<std::mutex> lock(mutex_);
  while (threads_.size() < workers) {
    // Slot 0 is the fork-join caller; workers start at 1.
    const std::size_t slot_index = threads_.size() + 1;
    threads_.emplace_back([this, slot_index] { worker_loop(slot_index); });
  }
}

void Pool::work_on(Job& job, std::size_t telemetry_slot) {
  RegionGuard region;
  // One relaxed load per job, not per chunk: a mid-job toggle is a
  // test scenario, not one worth a hot-loop branch miss.
  const bool telemetry = telemetry_enabled();
  WorkerStatsSlot* stats =
      telemetry ? &ExecStatsRegistry::instance().slot(telemetry_slot)
                : nullptr;
  static obs::Counter& chunk_counter = obs::counter("exec.pool.chunks");
  for (;;) {
    const std::size_t begin =
        job.next.fetch_add(job.chunk, std::memory_order_relaxed);
    if (begin >= job.n) return;
    if (job.failed.load(std::memory_order_relaxed)) continue;
    const std::size_t end = std::min(begin + job.chunk, job.n);
    const auto chunk_start = telemetry
                                 ? std::chrono::steady_clock::now()
                                 : std::chrono::steady_clock::time_point();
    try {
      for (std::size_t i = begin; i < end; ++i) (*job.fn)(i);
    } catch (...) {
      std::lock_guard<std::mutex> lock(job.error_mutex);
      if (!job.failed.exchange(true, std::memory_order_relaxed)) {
        job.error = std::current_exception();
      }
    }
    if (telemetry) {
      const double chunk_us =
          std::chrono::duration<double, std::micro>(
              std::chrono::steady_clock::now() - chunk_start)
              .count();
      stats->chunks.fetch_add(1, std::memory_order_relaxed);
      stats->indices.fetch_add(end - begin, std::memory_order_relaxed);
      obs::detail::atomic_add(stats->busy_us, chunk_us);
      chunk_counter.add(1);
      chunk_latency_histogram().observe(chunk_us);
    }
  }
}

void Pool::worker_loop(std::size_t telemetry_slot) {
  // Sampled by the wall-clock profiler for the worker's lifetime
  // (inert while LVF2_PROFILE is off).
  obs::prof::ThreadRegistration profiler_registration;
  std::uint64_t seen = 0;
  for (;;) {
    Job* job = nullptr;
    {
      std::unique_lock<std::mutex> lock(mutex_);
      {
        // Parked: the profiler counts these samples apart.
        obs::prof::IdleScope parked;
        work_cv_.wait(lock, [&] { return stop_ || generation_ != seen; });
      }
      if (stop_) return;
      seen = generation_;
      job = job_;
    }
    if (job == nullptr) continue;
    // Joining is capped per job so scaling benches measure the
    // requested parallelism even when the pool holds more workers.
    if (job->entered.fetch_add(1, std::memory_order_relaxed) <
        job->worker_limit) {
      core::detail::DeadlineState* const saved = core::detail::tl_deadline;
      core::detail::tl_deadline = job->deadline;
      work_on(*job, telemetry_slot);
      core::detail::tl_deadline = saved;
    }
    {
      std::lock_guard<std::mutex> lock(mutex_);
      ++job->done;
    }
    done_cv_.notify_all();
  }
}

void Pool::run(std::size_t n, std::size_t chunk, std::size_t parallelism,
               const std::function<void(std::size_t)>& fn) {
  if (n == 0) return;
  if (chunk == 0) chunk = 1;
  const std::size_t helpers = parallelism > 0 ? parallelism - 1 : 0;
  static obs::Counter& jobs = obs::counter("exec.pool.jobs");
  static obs::Counter& indices = obs::counter("exec.pool.indices");
  static obs::DoubleCounter& job_wall =
      obs::double_counter("exec.pool.job_wall_s");
  jobs.add(1);
  indices.add(n);
  const bool telemetry = telemetry_enabled();
  if (telemetry) {
    // "Queue depth" of a fork-join job: indices posted and not yet
    // claimed, maximal at post time. The gauge tracks the live job;
    // the histogram keeps the distribution across jobs.
    obs::gauge("exec.pool.queue_depth").set(static_cast<double>(n));
  }
  const auto job_start = std::chrono::steady_clock::now();

  std::lock_guard<std::mutex> run_lock(run_mutex_);
  // Grow only between jobs (we hold run_mutex_, so no job is in
  // flight): posted_to below must stay exact while the Job lives.
  ensure_workers(helpers);
  Job job;
  job.n = n;
  job.chunk = chunk;
  job.worker_limit = helpers;
  job.fn = &fn;
  job.deadline = core::detail::tl_deadline;
  std::size_t posted_to = 0;
  {
    std::lock_guard<std::mutex> lock(mutex_);
    job_ = &job;
    ++generation_;
    posted_to = threads_.size();
  }
  work_cv_.notify_all();
  work_on(job, 0);  // the caller is one of the `parallelism` threads
  {
    // Every posted worker must check the job out (even if only to
    // decline it) before the stack-allocated Job can die.
    std::unique_lock<std::mutex> lock(mutex_);
    done_cv_.wait(lock, [&] { return job.done == posted_to; });
    job_ = nullptr;
  }
  const double wall_s = std::chrono::duration<double>(
                            std::chrono::steady_clock::now() - job_start)
                            .count();
  job_wall.add(wall_s);
  if (telemetry) {
    job_wall_histogram().observe(wall_s * 1e3);
    obs::gauge("exec.pool.queue_depth").set(0.0);
  }
  if (job.error) std::rethrow_exception(job.error);
}

void parallel_for(std::size_t n, std::size_t chunk,
                  const std::function<void(std::size_t)>& fn) {
  if (n == 0) return;
  if (chunk == 0) chunk = 1;
  const std::size_t threads = thread_count();
  if (threads <= 1 || n <= chunk || in_parallel_region()) {
    for (std::size_t i = 0; i < n; ++i) fn(i);
    return;
  }
  Pool::instance().run(n, chunk, threads, fn);
}

}  // namespace lvf2::exec
