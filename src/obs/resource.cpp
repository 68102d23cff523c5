#include "obs/resource.h"

#include <cstdlib>
#include <new>

#include "obs/trace.h"

#if __has_include(<sys/resource.h>) && !defined(_WIN32)
#define LVF2_RUSAGE_SUPPORTED 1
#include <sys/resource.h>
#else
#define LVF2_RUSAGE_SUPPORTED 0
#endif

// This TU both replaces the global allocation operators (malloc/free
// backed) and allocates through them; GCC flags that pairing as a
// mismatched new/delete even though malloc-backed new + free is
// exactly the contract here.
#if defined(__GNUC__) && !defined(__clang__)
#pragma GCC diagnostic ignored "-Wmismatched-new-delete"
#endif

namespace lvf2::obs {

namespace detail {
std::atomic<bool> g_alloc_stats_enabled{false};
}  // namespace detail

namespace {

// Process totals are relaxed atomics (hot: every operator new when
// accounting is on); thread totals are plain thread-locals so a
// TraceSpan can delta a stage with two loads and no contention.
std::atomic<std::uint64_t> g_alloc_count{0};
std::atomic<std::uint64_t> g_alloc_bytes{0};
thread_local std::uint64_t t_alloc_count = 0;
thread_local std::uint64_t t_alloc_bytes = 0;

struct AllocStatsEnvInit {
  AllocStatsEnvInit() {
    if (const char* v = std::getenv("LVF2_ALLOC_STATS")) {
      if (v[0] != '\0' && v[0] != '0') set_alloc_stats(true);
    }
  }
} g_alloc_stats_env_init;

inline void count_allocation(std::size_t size) {
  if (!alloc_stats_enabled()) return;
  g_alloc_count.fetch_add(1, std::memory_order_relaxed);
  g_alloc_bytes.fetch_add(size, std::memory_order_relaxed);
  ++t_alloc_count;
  t_alloc_bytes += size;
}

}  // namespace

void set_alloc_stats(bool enabled) {
  detail::g_alloc_stats_enabled.store(enabled, std::memory_order_relaxed);
}

AllocSnapshot process_alloc_totals() {
  return {g_alloc_count.load(std::memory_order_relaxed),
          g_alloc_bytes.load(std::memory_order_relaxed)};
}

AllocSnapshot thread_alloc_totals() {
  return {t_alloc_count, t_alloc_bytes};
}

ResourceUsage resource_usage() {
  ResourceUsage usage;
#if LVF2_RUSAGE_SUPPORTED
  struct rusage ru;
  if (getrusage(RUSAGE_SELF, &ru) == 0) {
#if defined(__APPLE__)
    usage.peak_rss_kb = static_cast<std::uint64_t>(ru.ru_maxrss) / 1024;
#else
    usage.peak_rss_kb = static_cast<std::uint64_t>(ru.ru_maxrss);
#endif
    usage.utime_s = static_cast<double>(ru.ru_utime.tv_sec) +
                    static_cast<double>(ru.ru_utime.tv_usec) * 1e-6;
    usage.stime_s = static_cast<double>(ru.ru_stime.tv_sec) +
                    static_cast<double>(ru.ru_stime.tv_usec) * 1e-6;
    usage.minor_faults = static_cast<std::uint64_t>(ru.ru_minflt);
    usage.major_faults = static_cast<std::uint64_t>(ru.ru_majflt);
    usage.voluntary_ctx_switches = static_cast<std::uint64_t>(ru.ru_nvcsw);
    usage.involuntary_ctx_switches = static_cast<std::uint64_t>(ru.ru_nivcsw);
  }
#endif
  return usage;
}

JsonValue resource_section() {
  const ResourceUsage usage = resource_usage();
  const AllocSnapshot totals = process_alloc_totals();
  JsonValue stages = json_object();
  for (const auto& [stage, r] : Tracer::instance().rollup()) {
    if (r.alloc_count == 0 && r.alloc_bytes == 0) continue;
    stages.object.emplace_back(
        stage, json_object({{"alloc_count", json_u64(r.alloc_count)},
                            {"alloc_bytes", json_u64(r.alloc_bytes)}}));
  }
  return json_object(
      {{"peak_rss_kb", json_u64(usage.peak_rss_kb)},
       {"utime_s", json_number(usage.utime_s)},
       {"stime_s", json_number(usage.stime_s)},
       {"minor_faults", json_u64(usage.minor_faults)},
       {"major_faults", json_u64(usage.major_faults)},
       {"voluntary_ctx_switches", json_u64(usage.voluntary_ctx_switches)},
       {"involuntary_ctx_switches", json_u64(usage.involuntary_ctx_switches)},
       {"alloc", json_object({{"enabled", json_bool(alloc_stats_enabled())},
                              {"count", json_u64(totals.count)},
                              {"bytes", json_u64(totals.bytes)}})},
       {"stages", std::move(stages)}});
}

}  // namespace lvf2::obs

// Global allocation hooks. Replacing operator new/delete is the one
// portable interposition point that needs no linker tricks; with
// accounting off each call is a relaxed load plus the malloc it
// would have done anyway. delete stays uncounted: free-side
// attribution would need per-pointer size tracking, which is exactly
// the overhead a sampling-oriented accountant avoids.
void* operator new(std::size_t size) {
  lvf2::obs::count_allocation(size);
  if (void* p = std::malloc(size ? size : 1)) return p;
  throw std::bad_alloc();
}

void* operator new[](std::size_t size) { return ::operator new(size); }

void* operator new(std::size_t size, const std::nothrow_t&) noexcept {
  lvf2::obs::count_allocation(size);
  return std::malloc(size ? size : 1);
}

void* operator new[](std::size_t size, const std::nothrow_t& tag) noexcept {
  return ::operator new(size, tag);
}

void* operator new(std::size_t size, std::align_val_t align) {
  lvf2::obs::count_allocation(size);
  const std::size_t alignment = static_cast<std::size_t>(align);
  if (void* p = std::aligned_alloc(alignment,
                                   (size + alignment - 1) / alignment *
                                       alignment)) {
    return p;
  }
  throw std::bad_alloc();
}

void* operator new[](std::size_t size, std::align_val_t align) {
  return ::operator new(size, align);
}

void operator delete(void* p) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }
void operator delete(void* p, const std::nothrow_t&) noexcept {
  std::free(p);
}
void operator delete[](void* p, const std::nothrow_t&) noexcept {
  std::free(p);
}
void operator delete(void* p, std::align_val_t) noexcept { std::free(p); }
void operator delete[](void* p, std::align_val_t) noexcept { std::free(p); }
void operator delete(void* p, std::size_t, std::align_val_t) noexcept {
  std::free(p);
}
void operator delete[](void* p, std::size_t, std::align_val_t) noexcept {
  std::free(p);
}
