#pragma once
// Sampling wall-clock profiler: a POSIX interval timer (SIGALRM)
// broadcasts a sample signal (SIGPROF) to every registered thread;
// each thread's handler walks its own frame-pointer chain (the lvf2
// libraries build with -fno-omit-frame-pointer) and records it plus
// the active trace-span stage into a preallocated per-thread buffer.
// Buffers are drained at stop()/exit into a flamegraph-compatible
// folded-stack file: one line per unique (stage, stack), root frame
// first,
//
//   characterize.entry;run_monte_carlo(...);simulate_stage(...) 42
//
// loadable directly by flamegraph.pl / speedscope / inferno, and
// summarized by `lvf2_report flame`.
//
// Enabled by LVF2_PROFILE=<path>[,hz=N] at startup (default 97 Hz —
// prime, so sampling cannot phase-lock with periodic work), or by
// Profiler::start() from tests. Disabled-path contract: a hook site
// (TraceSpan stage tagging, pool telemetry) costs one relaxed atomic
// load — BM_DisabledProfilerSample in bench_perf, same budget as a
// disabled span (< 5 ns).
//
// Sampling is cooperative per thread: the main thread registers at
// start(), exec::Pool workers register for their lifetime. Threads
// that never register are simply never sampled.

#include <atomic>
#include <cstdint>
#include <functional>
#include <map>
#include <optional>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

namespace lvf2::obs::prof {

namespace detail {
extern std::atomic<bool> g_profiler_enabled;
}  // namespace detail

/// True while the profiler is sampling. Relaxed load: the only cost
/// paid by hook sites when LVF2_PROFILE is unset.
inline bool profiler_enabled() {
  return detail::g_profiler_enabled.load(std::memory_order_relaxed);
}

/// Parsed LVF2_PROFILE specification.
struct ProfileOptions {
  std::string path;  ///< folded-stack output file
  int hz = 97;       ///< sampling frequency (clamped to [1, 1000])
};

/// Parses "path[,hz=N]". Returns nullopt (with a one-line description
/// in `error`) on an empty path or unparsable hz. Exposed for tests.
std::optional<ProfileOptions> parse_profile_spec(const char* spec,
                                                 std::string* error = nullptr);

/// Tags the calling thread with the innermost active stage (span
/// name); samples taken while the tag is live are attributed to it.
/// Cheap (a bounded string copy into a thread-local slot) but not
/// free: call only behind a profiler_enabled() check — TraceSpan does
/// this for every span automatically. Nesting deeper than the slot
/// budget keeps the deepest tagged stage.
void push_stage(std::string_view name);
void pop_stage();

/// The calling thread's innermost stage tag ("" when none): test
/// support for the tagging machinery.
std::string current_stage();

/// Marks the calling thread parked for the scope's lifetime: an
/// exec::Pool worker waiting for a job. A sample that lands while the
/// thread is parked is not folded into the profile; it only counts in
/// ProfileStats::idle, so the flame view shows work, not waiting.
/// One thread-local relaxed store each way, profiler on or off.
class IdleScope {
 public:
  IdleScope();
  ~IdleScope();
  IdleScope(const IdleScope&) = delete;
  IdleScope& operator=(const IdleScope&) = delete;
};

/// Registers the calling thread for sampling until the matching
/// unregister (RAII: ThreadRegistration). Safe to call when the
/// profiler is off — the slot simply stays idle until a session
/// starts. exec::Pool workers hold one for their lifetime.
void register_current_thread();
void unregister_current_thread();

struct ThreadRegistration {
  ThreadRegistration() { register_current_thread(); }
  ~ThreadRegistration() { unregister_current_thread(); }
  ThreadRegistration(const ThreadRegistration&) = delete;
  ThreadRegistration& operator=(const ThreadRegistration&) = delete;
};

/// Aggregation of raw samples into folded stacks. Pure data structure
/// (no signals, no symbols) so tests can drive it with synthetic
/// frames; the profiler feeds it at drain time, never from a handler.
class FoldedProfile {
 public:
  /// Merges one sample: `frames` are innermost-first code addresses
  /// (as the frame walk records them), `stage` the span tag ("" becomes
  /// "(untagged)").
  void add(std::string_view stage, const void* const* frames,
           std::size_t frame_count, std::uint64_t count = 1);

  /// Renders the folded file: "stage;outer;...;inner count" lines,
  /// sorted by key for run-to-run stability. `symbolizer` maps a
  /// return address to a frame label.
  std::string render(
      const std::function<std::string(const void*)>& symbolizer) const;

  std::uint64_t total_samples() const { return total_; }
  std::size_t distinct_stacks() const { return stacks_.size(); }

 private:
  struct Key {
    std::string stage;
    std::vector<const void*> frames;  ///< innermost first
    bool operator<(const Key& other) const {
      if (stage != other.stage) return stage < other.stage;
      return frames < other.frames;
    }
  };
  std::map<Key, std::uint64_t> stacks_;
  std::uint64_t total_ = 0;
};

/// Best-effort address -> "function+0x<off>" label via dladdr (with
/// demangling); falls back to the containing module or a hex address.
/// The default symbolizer of Profiler::stop().
std::string symbolize_address(const void* addr);

/// Counters of one profiling session, exported into the manifest
/// `profile` section and the metrics registry.
struct ProfileStats {
  std::uint64_t samples = 0;  ///< captured across all threads
  std::uint64_t dropped = 0;  ///< lost to full per-thread buffers
  std::uint64_t idle = 0;     ///< landed in an IdleScope, not folded
  std::uint64_t threads = 0;  ///< thread buffers that saw samples
};

/// The process-wide profiler (leaked singleton, one session at a
/// time). start()/stop() are thread-safe; the signal handlers never
/// allocate, lock, or touch anything outside the preallocated
/// per-thread buffers.
class Profiler {
 public:
  static Profiler& instance();

  /// Arms the signal handlers, allocates sample buffers for every
  /// registered thread (registering the calling thread first), and
  /// starts the interval timer. Returns false (with a stderr warning)
  /// when a session is already running or the timer cannot start.
  bool start(const ProfileOptions& options);

  /// Stops the timer, drains every thread buffer into a FoldedProfile
  /// and writes the folded file atomically. No-op when not running.
  void stop();

  bool running() const;
  /// Live counters of the current session; after stop(), the counters
  /// of the folded file it wrote.
  ProfileStats stats() const;
  /// The folded output of stop(), kept for tests (empty before the
  /// first stop()).
  const std::string& last_output_path() const { return last_path_; }

 private:
  Profiler() = default;
  std::string last_path_;
};

}  // namespace lvf2::obs::prof
