#pragma once
// Deterministic fork-join execution: a small cache-friendly thread
// pool behind `parallel_for` / `parallel_map`. Determinism is not the
// pool's job — callers derive one RNG seed per index (see
// Characterizer::condition_seed) so results are a pure function of
// the index, and `parallel_map` writes each result into its own slot.
// The pool only promises that every index runs exactly once and that
// the first exception reaches the caller.
//
// Sizing: LVF2_THREADS=<n> fixes the worker budget (0, unset or
// garbage -> hardware_concurrency; 1 -> every parallel_for runs
// inline on the caller with zero thread overhead — the pool is never
// even constructed). set_thread_count() overrides at runtime for
// tests and benches.
//
// Nesting: a parallel_for issued from inside a parallel region (a
// pool worker or the participating caller) runs inline — no pool
// re-entry, no deadlock, and inner loops inherit the outer loop's
// thread. One fork-join job runs at a time; concurrent top-level
// callers serialize on the job mutex.
//
// Deadlines: workers run a job under the caller's armed deadline
// (core/cancel.h), so checkpoint() cancels every shard of a fanned-out
// loop, not only the caller's.

#include <atomic>
#include <condition_variable>
#include <cstddef>
#include <cstdint>
#include <exception>
#include <functional>
#include <mutex>
#include <thread>
#include <vector>

#include "core/cancel.h"

namespace lvf2::exec {

/// Parses an LVF2_THREADS-style value: decimal thread count, with 0,
/// empty, out-of-range or non-numeric input falling back to
/// `fallback`. Exposed for tests.
std::size_t parse_thread_count(const char* text, std::size_t fallback);

/// The effective thread budget: set_thread_count() override if any,
/// else LVF2_THREADS, else hardware_concurrency (min 1). Cached after
/// the first environment read.
std::size_t thread_count();

/// Overrides thread_count() at runtime (tests / scaling benches);
/// 0 restores the environment-configured value. The shared pool grows
/// on demand but never shrinks: raising the count mid-process is
/// cheap, and a lower count simply caps how many workers join a job.
void set_thread_count(std::size_t count);

/// True while the calling thread executes inside a parallel region;
/// parallel_for calls made here run inline.
bool in_parallel_region();

namespace detail {
extern std::atomic<bool> g_telemetry_enabled;
}  // namespace detail

/// True when pool telemetry (per-chunk latency histograms, per-worker
/// utilization, chunk-claim counters) is recording — enabled by
/// LVF2_EXEC_TELEMETRY=1 at startup or set_telemetry(). Relaxed load:
/// the only cost paid per chunk when telemetry is off
/// (BM_PoolTelemetryOverhead in bench_perf, same < 5 ns budget as a
/// disabled span).
inline bool telemetry_enabled() {
  return detail::g_telemetry_enabled.load(std::memory_order_relaxed);
}

/// Runtime override (tests / benches). Counters keep their totals
/// across off/on transitions.
void set_telemetry(bool enabled);

/// Snapshot of one execution slot's lifetime telemetry. Slot 0 is the
/// calling thread of each fork-join job (callers serialize, so one
/// slot suffices); slots 1..N are pool workers in creation order.
struct WorkerTelemetry {
  std::uint64_t chunks = 0;   ///< chunk claims that ran work
  std::uint64_t indices = 0;  ///< loop indices executed
  double busy_us = 0.0;       ///< wall time inside chunk bodies
};

/// Snapshot of every slot that ever recorded work (empty when
/// telemetry never ran). Thread-safe; readable at any time, including
/// from the manifest `exec` section provider at process exit (the
/// storage is leaked, deliberately outliving the pool singleton).
std::vector<WorkerTelemetry> telemetry_snapshot();

/// Fixed-size fork-join worker pool. One job at a time; workers claim
/// index chunks from a shared atomic cursor (dynamic scheduling — no
/// per-task allocation, no work stealing). Construct directly for an
/// isolated pool (tests) or use Pool::instance() + parallel_for.
class Pool {
 public:
  explicit Pool(std::size_t workers);
  ~Pool();
  Pool(const Pool&) = delete;
  Pool& operator=(const Pool&) = delete;

  /// The lazily-constructed shared pool, first sized by
  /// thread_count() and grown on demand.
  static Pool& instance();

  std::size_t workers() const { return threads_.size(); }

  /// Runs fn(i) for every i in [0, n), in chunks of `chunk` indices,
  /// on up to `parallelism` threads (capped workers + the calling
  /// thread, which participates). Blocks until every index ran;
  /// rethrows the first exception thrown by `fn` (remaining chunks
  /// are skipped once a failure is recorded, but in-flight ones
  /// complete). Thread-safe; concurrent calls serialize.
  void run(std::size_t n, std::size_t chunk, std::size_t parallelism,
           const std::function<void(std::size_t)>& fn);

 private:
  /// Grows the worker set to at least `workers` threads (never
  /// shrinks). run() calls it between jobs; it must not race a job in
  /// flight (the posted-worker count must stay exact).
  void ensure_workers(std::size_t workers);

  struct Job {
    std::size_t n = 0;
    std::size_t chunk = 1;
    std::size_t worker_limit = 0;  ///< workers allowed to join
    const std::function<void(std::size_t)>* fn = nullptr;
    /// The caller's armed deadline (nullptr when none); workers arm it
    /// while they work on the job. The caller's guard outlives the job.
    core::detail::DeadlineState* deadline = nullptr;
    std::atomic<std::size_t> next{0};     ///< chunk cursor
    std::atomic<std::size_t> entered{0};  ///< workers that tried to join
    std::atomic<bool> failed{false};
    std::exception_ptr error;     ///< guarded by error_mutex
    std::mutex error_mutex;
    std::size_t done = 0;  ///< workers finished with the job (mutex_)
  };

  /// `telemetry_slot` indexes the leaked per-slot stats registry:
  /// 0 = fork-join caller, 1..N = workers in creation order.
  void worker_loop(std::size_t telemetry_slot);
  static void work_on(Job& job, std::size_t telemetry_slot);

  std::mutex run_mutex_;  ///< serializes top-level run() calls

  std::mutex mutex_;  ///< guards everything below
  std::condition_variable work_cv_;
  std::condition_variable done_cv_;
  std::vector<std::thread> threads_;
  Job* job_ = nullptr;
  std::uint64_t generation_ = 0;
  bool stop_ = false;
};

/// Runs fn(i) for i in [0, n) across the shared pool in chunks of
/// `chunk` indices. Inline (plain loop, zero overhead) when the
/// thread budget is 1, when n fits a single chunk, or when already
/// inside a parallel region. Propagates the first exception.
void parallel_for(std::size_t n, std::size_t chunk,
                  const std::function<void(std::size_t)>& fn);

/// Maps [0, n) through `fn` into an order-preserving vector: out[i]
/// is always fn(i)'s result regardless of execution order, so a
/// deterministic fn gives byte-identical output at any thread count.
/// T must be default-constructible and move-assignable.
template <typename T, typename F>
std::vector<T> parallel_map(std::size_t n, F&& fn) {
  std::vector<T> out(n);
  const auto& f = fn;
  parallel_for(n, 1, [&](std::size_t i) { out[i] = f(i); });
  return out;
}

}  // namespace lvf2::exec
