#ifndef _GNU_SOURCE
#define _GNU_SOURCE  // dladdr, pthread_getattr_np, REG_RIP
#endif

#include "obs/profile.h"

#include <algorithm>
#include <cerrno>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <mutex>

#include "obs/manifest.h"
#include "obs/metrics.h"

// The frame walk reads the interrupted PC/FP/SP out of the signal's
// ucontext, whose layout is per OS and architecture.
#if defined(__linux__) && (defined(__x86_64__) || defined(__aarch64__))
#define LVF2_PROFILE_SUPPORTED 1
#include <cxxabi.h>
#include <dlfcn.h>
#include <pthread.h>
#include <signal.h>
#include <sys/time.h>
#include <ucontext.h>
#else
#define LVF2_PROFILE_SUPPORTED 0
#endif

namespace lvf2::obs::prof {

namespace detail {
std::atomic<bool> g_profiler_enabled{false};
}  // namespace detail

namespace {

constexpr std::size_t kMaxFrames = 48;
constexpr std::size_t kMaxSamplesPerThread = 8192;
constexpr std::size_t kMaxThreads = 128;
constexpr std::size_t kStageBytes = 48;
constexpr std::size_t kMaxStageDepth = 8;

/// One captured sample. Fixed layout, written only from the owning
/// thread's signal handler, published via Slot::count.
struct Sample {
  void* frames[kMaxFrames];
  std::int32_t frame_count;
  char stage[kStageBytes];
};

/// Per-thread sample buffer slot. `in_use` marks a live registered
/// thread; retired slots keep their buffer and counts so samples from
/// threads that exited mid-session still reach the drain.
struct Slot {
#if LVF2_PROFILE_SUPPORTED
  pthread_t thread{};
#endif
  std::atomic<bool> in_use{false};
  std::atomic<Sample*> samples{nullptr};
  std::atomic<std::uint32_t> count{0};
  std::atomic<std::uint64_t> dropped{0};
  std::atomic<std::uint64_t> idle{0};
};

Slot g_slots[kMaxThreads];
std::atomic<std::size_t> g_slot_high_water{0};
std::mutex g_slots_mutex;  // registration only; never in handlers

// True while the broadcast handler iterates the slot table, so
// unregistration can wait out an in-flight pthread_kill sweep.
std::atomic<bool> g_broadcasting{false};

thread_local Slot* t_slot = nullptr;

/// The registered thread's stack, [lo, hi), taken once at
/// registration: the frame walk never reads outside it.
thread_local std::uintptr_t t_stack_lo = 0;
thread_local std::uintptr_t t_stack_hi = 0;

/// Per-thread stage-tag stack. The name bytes are written before the
/// depth is published (signal fence), so the handler — which runs on
/// this same thread — never reads a half-written tag.
struct StageStack {
  char names[kMaxStageDepth][kStageBytes];
  std::atomic<std::uint32_t> depth{0};
};
thread_local StageStack t_stages;

/// Set while the thread is inside an IdleScope. Written and read only
/// by this thread (the handler runs on it), so relaxed order suffices.
thread_local std::atomic<bool> t_idle{false};

std::mutex g_session_mutex;
ProfileOptions g_options;
bool g_running = false;
bool g_handlers_installed = false;
// The counters stop() rendered into the folded file; stats() reports
// them after a session, since a late SIGPROF may bump a live count.
ProfileStats g_last_stats;
std::string g_last_path;

#if LVF2_PROFILE_SUPPORTED

void record_stack_bounds() {
  pthread_attr_t attr;
  if (pthread_getattr_np(pthread_self(), &attr) != 0) return;
  void* base = nullptr;
  std::size_t size = 0;
  if (pthread_attr_getstack(&attr, &base, &size) == 0) {
    t_stack_lo = reinterpret_cast<std::uintptr_t>(base);
    t_stack_hi = t_stack_lo + size;
  }
  pthread_attr_destroy(&attr);
}

/// Bounded frame-pointer walk from the interrupted context. frames[0]
/// is the interrupted PC; each further frame is the return address of
/// a frame record {saved FP, return address}. A record is followed
/// only while it is aligned, strictly above the previous one and
/// inside [interrupted SP, stack top), so a frame built without frame
/// pointers (FP holding arbitrary data) ends the walk instead of
/// faulting it. Reads nothing but this thread's live stack.
std::size_t walk_frames(const void* context, void** frames) {
  const mcontext_t& mc = static_cast<const ucontext_t*>(context)->uc_mcontext;
#if defined(__x86_64__)
  const auto pc = static_cast<std::uintptr_t>(mc.gregs[REG_RIP]);
  auto fp = static_cast<std::uintptr_t>(mc.gregs[REG_RBP]);
  const auto sp = static_cast<std::uintptr_t>(mc.gregs[REG_RSP]);
#else
  const auto pc = static_cast<std::uintptr_t>(mc.pc);
  auto fp = static_cast<std::uintptr_t>(mc.regs[29]);
  const auto sp = static_cast<std::uintptr_t>(mc.sp);
#endif
  std::size_t n = 0;
  frames[n++] = reinterpret_cast<void*>(pc);
  constexpr std::uintptr_t kRecord = 2 * sizeof(std::uintptr_t);
  const std::uintptr_t hi = t_stack_hi;
  // Not on the registered stack (e.g. an alternate signal stack).
  if (sp < t_stack_lo || sp >= hi) return n;
  std::uintptr_t lo = sp;
  while (n < kMaxFrames && fp % alignof(std::uintptr_t) == 0 && fp >= lo &&
         fp <= hi - kRecord) {
    const auto* record = reinterpret_cast<const std::uintptr_t*>(fp);
    if (record[1] == 0) break;
    frames[n++] = reinterpret_cast<void*>(record[1]);
    lo = fp + kRecord;
    fp = record[0];
  }
  return n;
}

/// Captures one sample of the calling thread, interrupted at
/// `context`. Async-signal-safe: no locks, no allocation, no unwinder.
void sample_current_thread(const void* context) {
  Slot* slot = t_slot;
  if (slot == nullptr) return;
  if (t_idle.load(std::memory_order_relaxed)) {
    slot->idle.fetch_add(1, std::memory_order_relaxed);
    return;
  }
  Sample* buffer = slot->samples.load(std::memory_order_acquire);
  if (buffer == nullptr) return;
  const std::uint32_t index = slot->count.load(std::memory_order_relaxed);
  if (index >= kMaxSamplesPerThread) {
    slot->dropped.fetch_add(1, std::memory_order_relaxed);
    return;
  }
  Sample& sample = buffer[index];
  sample.frame_count =
      static_cast<std::int32_t>(walk_frames(context, sample.frames));
  const std::uint32_t depth = t_stages.depth.load(std::memory_order_relaxed);
  if (depth > 0) {
    const std::uint32_t top = std::min<std::uint32_t>(depth, kMaxStageDepth);
    std::memcpy(sample.stage, t_stages.names[top - 1], kStageBytes);
  } else {
    sample.stage[0] = '\0';
  }
  slot->count.store(index + 1, std::memory_order_release);
}

void sample_signal_handler(int /*signum*/, siginfo_t* /*info*/,
                           void* context) {
  if (!profiler_enabled()) return;
  const int saved_errno = errno;
  sample_current_thread(context);
  errno = saved_errno;
}

/// SIGALRM from the interval timer, delivered to an arbitrary thread:
/// samples the receiving thread directly and forwards SIGPROF to
/// every other registered thread. pthread_kill is async-signal-safe.
void broadcast_signal_handler(int /*signum*/, siginfo_t* /*info*/,
                              void* context) {
  if (!profiler_enabled()) return;
  const int saved_errno = errno;
  g_broadcasting.store(true, std::memory_order_seq_cst);
  const pthread_t self = pthread_self();
  const std::size_t high = g_slot_high_water.load(std::memory_order_acquire);
  for (std::size_t i = 0; i < high; ++i) {
    Slot& slot = g_slots[i];
    if (!slot.in_use.load(std::memory_order_acquire)) continue;
    if (pthread_equal(slot.thread, self)) {
      sample_current_thread(context);
    } else {
      pthread_kill(slot.thread, SIGPROF);
    }
  }
  g_broadcasting.store(false, std::memory_order_seq_cst);
  errno = saved_errno;
}

bool install_handlers_locked() {
  if (g_handlers_installed) return true;
  struct sigaction sample_action;
  std::memset(&sample_action, 0, sizeof(sample_action));
  sample_action.sa_sigaction = sample_signal_handler;
  sample_action.sa_flags = SA_RESTART | SA_SIGINFO;
  sigemptyset(&sample_action.sa_mask);
  sigaddset(&sample_action.sa_mask, SIGALRM);
  struct sigaction broadcast_action;
  std::memset(&broadcast_action, 0, sizeof(broadcast_action));
  broadcast_action.sa_sigaction = broadcast_signal_handler;
  broadcast_action.sa_flags = SA_RESTART | SA_SIGINFO;
  sigemptyset(&broadcast_action.sa_mask);
  sigaddset(&broadcast_action.sa_mask, SIGPROF);
  if (sigaction(SIGPROF, &sample_action, nullptr) != 0 ||
      sigaction(SIGALRM, &broadcast_action, nullptr) != 0) {
    std::fprintf(stderr, "lvf2-prof: cannot install signal handlers\n");
    return false;
  }
  g_handlers_installed = true;
  return true;
}

bool set_timer(int hz) {
  struct itimerval timer;
  std::memset(&timer, 0, sizeof(timer));
  if (hz > 0) {
    const long period_us = std::max(1000000L / hz, 1L);
    timer.it_interval.tv_sec = period_us / 1000000L;
    timer.it_interval.tv_usec = period_us % 1000000L;
    timer.it_value = timer.it_interval;
  }
  return setitimer(ITIMER_REAL, &timer, nullptr) == 0;
}

#endif  // LVF2_PROFILE_SUPPORTED

void ensure_buffer_locked(Slot& slot) {
  if (slot.samples.load(std::memory_order_relaxed) != nullptr) return;
  // Buffers live for the rest of the process (reused across
  // sessions): freeing them would race in-flight handlers.
  Sample* buffer = static_cast<Sample*>(
      std::calloc(kMaxSamplesPerThread, sizeof(Sample)));
  if (buffer == nullptr) return;  // slot stays unsampled
  slot.samples.store(buffer, std::memory_order_release);
}

/// Starts from LVF2_PROFILE at static-initialization time so a
/// profile covers main() end to end, mirroring LVF2_TRACE.
struct ProfileEnvInit {
  ProfileEnvInit() {
    const char* spec = std::getenv("LVF2_PROFILE");
    if (spec == nullptr || spec[0] == '\0') return;
    std::string error;
    const std::optional<ProfileOptions> options =
        parse_profile_spec(spec, &error);
    if (!options) {
      std::fprintf(stderr, "lvf2-prof: bad LVF2_PROFILE: %s\n",
                   error.c_str());
      return;
    }
    if (Profiler::instance().start(*options)) {
      std::atexit([] { Profiler::instance().stop(); });
    }
  }
} g_profile_env_init;

}  // namespace

std::optional<ProfileOptions> parse_profile_spec(const char* spec,
                                                 std::string* error) {
  if (spec == nullptr || spec[0] == '\0') {
    if (error) *error = "empty specification";
    return std::nullopt;
  }
  ProfileOptions options;
  const std::string_view view(spec);
  const std::size_t comma = view.rfind(",hz=");
  if (comma == std::string_view::npos) {
    options.path = std::string(view);
  } else {
    options.path = std::string(view.substr(0, comma));
    const std::string_view hz_text = view.substr(comma + 4);
    char* end = nullptr;
    const std::string hz_string(hz_text);
    const long hz = std::strtol(hz_string.c_str(), &end, 10);
    if (end == hz_string.c_str() || *end != '\0' || hz <= 0) {
      if (error) *error = "unparsable hz in \"" + std::string(view) + "\"";
      return std::nullopt;
    }
    options.hz = static_cast<int>(std::clamp(hz, 1L, 1000L));
  }
  if (options.path.empty()) {
    if (error) *error = "empty path in \"" + std::string(view) + "\"";
    return std::nullopt;
  }
  return options;
}

void push_stage(std::string_view name) {
  const std::uint32_t depth = t_stages.depth.load(std::memory_order_relaxed);
  if (depth < kMaxStageDepth) {
    char* slot = t_stages.names[depth];
    const std::size_t n = std::min(name.size(), kStageBytes - 1);
    std::memcpy(slot, name.data(), n);
    slot[n] = '\0';
    // The tag bytes must be visible before the depth that exposes
    // them to this thread's own signal handler.
    std::atomic_signal_fence(std::memory_order_seq_cst);
  }
  t_stages.depth.store(depth + 1, std::memory_order_relaxed);
}

void pop_stage() {
  const std::uint32_t depth = t_stages.depth.load(std::memory_order_relaxed);
  if (depth > 0) t_stages.depth.store(depth - 1, std::memory_order_relaxed);
}

IdleScope::IdleScope() { t_idle.store(true, std::memory_order_relaxed); }

IdleScope::~IdleScope() { t_idle.store(false, std::memory_order_relaxed); }

std::string current_stage() {
  const std::uint32_t depth = t_stages.depth.load(std::memory_order_relaxed);
  if (depth == 0) return "";
  const std::uint32_t top = std::min<std::uint32_t>(depth, kMaxStageDepth);
  return t_stages.names[top - 1];
}

void register_current_thread() {
#if LVF2_PROFILE_SUPPORTED
  if (t_slot != nullptr) return;
  record_stack_bounds();
  // The bounds must be in place before t_slot arms this thread's
  // handler.
  std::atomic_signal_fence(std::memory_order_seq_cst);
  std::lock_guard<std::mutex> lock(g_slots_mutex);
  for (std::size_t i = 0; i < kMaxThreads; ++i) {
    Slot& slot = g_slots[i];
    if (slot.in_use.load(std::memory_order_relaxed)) continue;
    slot.thread = pthread_self();
    slot.in_use.store(true, std::memory_order_release);
    const std::size_t high = g_slot_high_water.load(std::memory_order_relaxed);
    if (i + 1 > high) {
      g_slot_high_water.store(i + 1, std::memory_order_release);
    }
    if (profiler_enabled()) ensure_buffer_locked(slot);
    t_slot = &slot;
    return;
  }
  // Table full: the thread simply goes unsampled.
#endif
}

void unregister_current_thread() {
#if LVF2_PROFILE_SUPPORTED
  Slot* slot = t_slot;
  if (slot == nullptr) return;
  slot->in_use.store(false, std::memory_order_release);
  // An in-flight broadcast may have snapshotted this slot before the
  // store; wait it out so no pthread_kill can target this thread
  // after it exits. The slot (and its samples) stays valid for the
  // drain and may be reused by a later thread.
  while (g_broadcasting.load(std::memory_order_seq_cst)) {
  }
  t_slot = nullptr;
#endif
}

void FoldedProfile::add(std::string_view stage, const void* const* frames,
                        std::size_t frame_count, std::uint64_t count) {
  Key key;
  key.stage = stage.empty() ? "(untagged)" : std::string(stage);
  key.frames.assign(frames, frames + frame_count);
  stacks_[std::move(key)] += count;
  total_ += count;
}

std::string FoldedProfile::render(
    const std::function<std::string(const void*)>& symbolizer) const {
  // Symbolize each unique address once: dladdr per frame per stack
  // would dominate drain time on deep profiles.
  std::map<const void*, std::string> symbols;
  for (const auto& [key, count] : stacks_) {
    for (const void* frame : key.frames) {
      symbols.emplace(frame, std::string());
    }
  }
  for (auto& [address, label] : symbols) label = symbolizer(address);

  std::string out;
  for (const auto& [key, count] : stacks_) {
    out += key.stage;
    // Folded convention is root-first; frames arrive innermost-first.
    for (auto it = key.frames.rbegin(); it != key.frames.rend(); ++it) {
      out += ';';
      out += symbols[*it];
    }
    out += ' ';
    out += std::to_string(count);
    out += '\n';
  }
  return out;
}

std::string symbolize_address(const void* addr) {
#if LVF2_PROFILE_SUPPORTED
  Dl_info info;
  if (dladdr(const_cast<void*>(addr), &info) != 0 &&
      info.dli_sname != nullptr) {
    int status = 0;
    char* demangled =
        abi::__cxa_demangle(info.dli_sname, nullptr, nullptr, &status);
    std::string name =
        (status == 0 && demangled != nullptr) ? demangled : info.dli_sname;
    std::free(demangled);
    // Semicolons and spaces are folded-format separators.
    for (char& c : name) {
      if (c == ';' || c == ' ' || c == '\n') c = '_';
    }
    return name;
  }
  if (dladdr(const_cast<void*>(addr), &info) != 0 &&
      info.dli_fname != nullptr) {
    const char* base = std::strrchr(info.dli_fname, '/');
    std::string name = "[";
    name += (base != nullptr) ? base + 1 : info.dli_fname;
    name += ']';
    return name;
  }
#endif
  char buf[24];
  std::snprintf(buf, sizeof(buf), "0x%zx",
                reinterpret_cast<std::size_t>(addr));
  return buf;
}

Profiler& Profiler::instance() {
  static Profiler* profiler = new Profiler();  // leaked, like the tracer
  return *profiler;
}

bool Profiler::running() const {
  std::lock_guard<std::mutex> lock(g_session_mutex);
  return g_running;
}

ProfileStats Profiler::stats() const {
  std::lock_guard<std::mutex> lock(g_session_mutex);
  if (!g_running) return g_last_stats;
  ProfileStats stats;
  const std::size_t high = g_slot_high_water.load(std::memory_order_acquire);
  for (std::size_t i = 0; i < high; ++i) {
    const std::uint32_t count = g_slots[i].count.load(std::memory_order_acquire);
    stats.samples += count;
    stats.dropped += g_slots[i].dropped.load(std::memory_order_relaxed);
    stats.idle += g_slots[i].idle.load(std::memory_order_relaxed);
    if (count > 0) ++stats.threads;
  }
  return stats;
}

bool Profiler::start(const ProfileOptions& options) {
#if LVF2_PROFILE_SUPPORTED
  std::lock_guard<std::mutex> lock(g_session_mutex);
  if (g_running) {
    std::fprintf(stderr, "lvf2-prof: a profiling session is already on\n");
    return false;
  }
  if (!install_handlers_locked()) return false;
  register_current_thread();
  {
    std::lock_guard<std::mutex> slots_lock(g_slots_mutex);
    const std::size_t high = g_slot_high_water.load(std::memory_order_relaxed);
    for (std::size_t i = 0; i < high; ++i) {
      Slot& slot = g_slots[i];
      slot.count.store(0, std::memory_order_relaxed);
      slot.dropped.store(0, std::memory_order_relaxed);
      slot.idle.store(0, std::memory_order_relaxed);
      if (slot.in_use.load(std::memory_order_relaxed)) {
        ensure_buffer_locked(slot);
      }
    }
  }

  g_options = options;
  detail::g_profiler_enabled.store(true, std::memory_order_relaxed);
  if (!set_timer(options.hz)) {
    detail::g_profiler_enabled.store(false, std::memory_order_relaxed);
    std::fprintf(stderr, "lvf2-prof: cannot start interval timer\n");
    return false;
  }
  g_running = true;

  with_manifest([&](ManifestRecorder& m) {
    // Captures the options by value: the provider runs at exit, after
    // g_options (a static) may already be destroyed.
    m.set_section_provider("profile", [options] {
      const ProfileStats stats = Profiler::instance().stats();
      return json_object(
          {{"path", json_string(options.path)},
           {"hz", json_number(options.hz)},
           {"samples", json_u64(stats.samples)},
           {"dropped", json_u64(stats.dropped)},
           {"idle", json_u64(stats.idle)},
           {"threads", json_u64(stats.threads)}});
    });
  });
  return true;
#else
  std::fprintf(stderr, "lvf2-prof: profiling unsupported on this platform\n");
  (void)options;
  return false;
#endif
}

void Profiler::stop() {
#if LVF2_PROFILE_SUPPORTED
  std::lock_guard<std::mutex> lock(g_session_mutex);
  if (!g_running) return;
  set_timer(0);
  detail::g_profiler_enabled.store(false, std::memory_order_relaxed);
  // Let any broadcast sweep that started before the flag flipped
  // finish delivering; its handlers see the flag down and return.
  while (g_broadcasting.load(std::memory_order_seq_cst)) {
  }

  FoldedProfile folded;
  ProfileStats stats;
  const std::size_t high = g_slot_high_water.load(std::memory_order_acquire);
  for (std::size_t i = 0; i < high; ++i) {
    Slot& slot = g_slots[i];
    const Sample* buffer = slot.samples.load(std::memory_order_acquire);
    const std::uint32_t count = slot.count.load(std::memory_order_acquire);
    stats.dropped += slot.dropped.load(std::memory_order_relaxed);
    stats.idle += slot.idle.load(std::memory_order_relaxed);
    if (buffer == nullptr || count == 0) continue;
    stats.samples += count;
    ++stats.threads;
    for (std::uint32_t s = 0; s < count; ++s) {
      const Sample& sample = buffer[s];
      folded.add(sample.stage, sample.frames,
                 static_cast<std::size_t>(sample.frame_count));
    }
  }

  write_file_atomic(g_options.path, folded.render(symbolize_address));
  last_path_ = g_options.path;
  counter("profile.samples").add(stats.samples);
  counter("profile.dropped").add(stats.dropped);
  counter("profile.idle").add(stats.idle);
  g_last_stats = stats;
  g_running = false;
#endif
}

}  // namespace lvf2::obs::prof
