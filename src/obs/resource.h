#pragma once
// Resource accountant: process-wide peak RSS and getrusage deltas,
// recorded into every run manifest as a `resource` section (one
// syscall at serialization time — always on), plus optional
// operator-new allocation counters (LVF2_ALLOC_STATS=1) that the
// tracer's stage rollup accumulates per span name, so allocation
// pressure is attributed to characterize/EM/MC/SSTA the same way wall
// time is.
//
// Disabled-path contract: with LVF2_ALLOC_STATS unset every global
// operator new pays one relaxed atomic load on top of malloc; the
// per-stage rollup hook in TraceSpan is the same single load.

#include <atomic>
#include <cstdint>

#include "obs/json.h"

namespace lvf2::obs {

namespace detail {
extern std::atomic<bool> g_alloc_stats_enabled;
}  // namespace detail

/// True when operator-new accounting is on (LVF2_ALLOC_STATS=1 or
/// set_alloc_stats). Relaxed load: the only cost paid per allocation
/// when accounting is off.
inline bool alloc_stats_enabled() {
  return detail::g_alloc_stats_enabled.load(std::memory_order_relaxed);
}

/// Runtime override (tests). Counters keep their totals across
/// off/on transitions.
void set_alloc_stats(bool enabled);

/// Point-in-time allocation totals. Process totals aggregate relaxed
/// atomics; thread totals read the calling thread's counters (used by
/// TraceSpan to delta a stage without synchronization).
struct AllocSnapshot {
  std::uint64_t count = 0;
  std::uint64_t bytes = 0;
};
AllocSnapshot process_alloc_totals();
AllocSnapshot thread_alloc_totals();

/// getrusage(RUSAGE_SELF) snapshot in portable units. peak_rss_kb is
/// ru_maxrss normalized to kilobytes.
struct ResourceUsage {
  std::uint64_t peak_rss_kb = 0;
  double utime_s = 0.0;   ///< user CPU
  double stime_s = 0.0;   ///< system CPU
  std::uint64_t minor_faults = 0;
  std::uint64_t major_faults = 0;
  std::uint64_t voluntary_ctx_switches = 0;
  std::uint64_t involuntary_ctx_switches = 0;
};
ResourceUsage resource_usage();

/// The manifest `resource` section: process rusage, the allocation
/// totals (when accounting is on), and the allocation columns of the
/// tracer's stage rollup (stages that allocated, by name). Built by
/// ManifestRecorder::to_json() on every armed run — peak RSS lands in
/// every manifest.
JsonValue resource_section();

}  // namespace lvf2::obs
