// Tests of the exec fork-join pool: thread-budget parsing, coverage
// and ordering guarantees, exception propagation, nested-call inline
// fallback, and — the property everything else rides on — bitwise
// reproducibility of the parallelized hot loops at any thread count.

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <cstdio>
#include <functional>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "cells/characterize.h"
#include "circuits/adder.h"
#include "core/cancel.h"
#include "exec/pool.h"
#include "obs/manifest.h"
#include "obs/metrics.h"
#include "spice/montecarlo.h"
#include "ssta/mc_ssta.h"

namespace lvf2::exec {
namespace {

/// Restores the environment-configured thread budget on scope exit so
/// a failing test cannot leak its override into later tests.
struct ScopedThreadCount {
  explicit ScopedThreadCount(std::size_t count) { set_thread_count(count); }
  ~ScopedThreadCount() { set_thread_count(0); }
};

TEST(ParseThreadCount, FallsBackOnMissingOrInvalid) {
  EXPECT_EQ(parse_thread_count(nullptr, 7), 7u);
  EXPECT_EQ(parse_thread_count("", 7), 7u);
  EXPECT_EQ(parse_thread_count("0", 7), 7u);
  EXPECT_EQ(parse_thread_count("garbage", 7), 7u);
  EXPECT_EQ(parse_thread_count("4x", 7), 7u);
  EXPECT_EQ(parse_thread_count("-3", 7), 7u);
  EXPECT_EQ(parse_thread_count("5000", 7), 7u);  // above the sanity cap
}

TEST(ParseThreadCount, AcceptsPlainDecimals) {
  EXPECT_EQ(parse_thread_count("1", 7), 1u);
  EXPECT_EQ(parse_thread_count("2", 7), 2u);
  EXPECT_EQ(parse_thread_count("64", 7), 64u);
  EXPECT_EQ(parse_thread_count("4096", 7), 4096u);
}

TEST(ThreadCount, OverrideWinsAndZeroRestores) {
  {
    ScopedThreadCount guard(3);
    EXPECT_EQ(thread_count(), 3u);
  }
  EXPECT_GE(thread_count(), 1u);  // back to env / hardware default
}

TEST(ParallelFor, RunsEveryIndexExactlyOnce) {
  ScopedThreadCount guard(4);
  constexpr std::size_t kN = 1000;
  std::vector<std::atomic<int>> hits(kN);
  parallel_for(kN, 7, [&](std::size_t i) {
    hits[i].fetch_add(1, std::memory_order_relaxed);
  });
  for (std::size_t i = 0; i < kN; ++i) {
    EXPECT_EQ(hits[i].load(), 1) << "index " << i;
  }
}

TEST(ParallelFor, ZeroItemsIsANoOp) {
  ScopedThreadCount guard(4);
  parallel_for(0, 1, [](std::size_t) { FAIL() << "fn called for n == 0"; });
}

TEST(ParallelFor, SingleThreadRunsInlineOnCaller) {
  ScopedThreadCount guard(1);
  const std::thread::id caller = std::this_thread::get_id();
  std::size_t calls = 0;
  parallel_for(64, 1, [&](std::size_t) {
    // Inline execution: same thread, no parallel-region flag — the
    // pool is not involved at all.
    EXPECT_EQ(std::this_thread::get_id(), caller);
    EXPECT_FALSE(in_parallel_region());
    ++calls;  // safe: single-threaded by construction
  });
  EXPECT_EQ(calls, 64u);
}

TEST(ParallelFor, PropagatesFirstExceptionAndStaysUsable) {
  ScopedThreadCount guard(4);
  EXPECT_THROW(parallel_for(100, 1,
                            [](std::size_t i) {
                              if (i == 37) {
                                throw std::runtime_error("boom at 37");
                              }
                            }),
               std::runtime_error);
  // The shared pool must survive a failed job and run the next one.
  std::atomic<std::size_t> ran{0};
  parallel_for(100, 1, [&](std::size_t) {
    ran.fetch_add(1, std::memory_order_relaxed);
  });
  EXPECT_EQ(ran.load(), 100u);
}

TEST(ParallelFor, NestedCallsRunInlineWithoutDeadlock) {
  ScopedThreadCount guard(4);
  std::atomic<std::size_t> inner_total{0};
  parallel_for(8, 1, [&](std::size_t) {
    EXPECT_TRUE(in_parallel_region());
    // Re-entering parallel_for from pool work must degrade to a plain
    // loop on this thread instead of waiting on the busy pool.
    parallel_for(8, 1, [&](std::size_t) {
      inner_total.fetch_add(1, std::memory_order_relaxed);
    });
  });
  EXPECT_EQ(inner_total.load(), 64u);
}

TEST(ParallelMap, PreservesResultOrder) {
  ScopedThreadCount guard(4);
  const std::vector<int> out = parallel_map<int>(
      257, [](std::size_t i) { return static_cast<int>(i * i); });
  ASSERT_EQ(out.size(), 257u);
  for (std::size_t i = 0; i < out.size(); ++i) {
    EXPECT_EQ(out[i], static_cast<int>(i * i));
  }
}

TEST(Pool, ConstructRunTeardownRepeatedly) {
  // Direct pool lifecycle (not the shared instance): constructing,
  // dispatching, and joining must be leak- and deadlock-free.
  for (int round = 0; round < 5; ++round) {
    Pool pool(4);
    EXPECT_EQ(pool.workers(), 4u);
    std::atomic<std::size_t> ran{0};
    const std::function<void(std::size_t)> fn = [&](std::size_t) {
      ran.fetch_add(1, std::memory_order_relaxed);
    };
    pool.run(500, 9, 4, fn);
    EXPECT_EQ(ran.load(), 500u);
  }
}

TEST(Pool, WorkerLimitCapsParallelism) {
  Pool pool(8);
  std::atomic<int> active{0};
  std::atomic<int> peak{0};
  const std::function<void(std::size_t)> fn = [&](std::size_t) {
    const int now = active.fetch_add(1, std::memory_order_relaxed) + 1;
    int seen = peak.load(std::memory_order_relaxed);
    while (seen < now &&
           !peak.compare_exchange_weak(seen, now, std::memory_order_relaxed)) {
    }
    std::this_thread::sleep_for(std::chrono::microseconds(50));
    active.fetch_sub(1, std::memory_order_relaxed);
  };
  pool.run(64, 1, 2, fn);  // parallelism 2: caller + at most 1 worker
  EXPECT_LE(peak.load(), 2);
}

// A fanned-out loop runs under the caller's deadline on every
// thread, so shards spinning on checkpoint() all cancel once it
// passes and the caller does not wait out the slowest worker.
TEST(Pool, FannedOutLoopInheritsCallerDeadline) {
  ScopedThreadCount guard(4);
  using Clock = std::chrono::steady_clock;
  std::atomic<int> started{0};
  std::atomic<int> cancelled{0};
  bool caller_cancelled = false;
  double elapsed_ms = 0.0;
  // A plain thread (not a pool worker), like an lvf2d dispatch thread.
  std::thread caller([&] {
    const Clock::time_point t0 = Clock::now();
    core::DeadlineGuard deadline(5.0);
    try {
      parallel_for(8, 1, [&](std::size_t) {
        started.fetch_add(1, std::memory_order_relaxed);
        try {
          while (Clock::now() - t0 < std::chrono::milliseconds(200)) {
            core::checkpoint();
            std::this_thread::sleep_for(std::chrono::microseconds(100));
          }
        } catch (const core::CancelledError&) {
          cancelled.fetch_add(1, std::memory_order_relaxed);
          throw;
        }
      });
    } catch (const core::CancelledError&) {
      caller_cancelled = true;
    }
    elapsed_ms =
        std::chrono::duration<double, std::milli>(Clock::now() - t0).count();
  });
  caller.join();
  EXPECT_TRUE(caller_cancelled);
  EXPECT_LT(elapsed_ms, 100.0);
  EXPECT_GE(started.load(), 1);
  EXPECT_EQ(cancelled.load(), started.load());
}

// --- bitwise reproducibility of the parallelized hot loops ---------

void expect_same_moments(const stats::SnMoments& a, const stats::SnMoments& b) {
  EXPECT_EQ(a.mean, b.mean);
  EXPECT_EQ(a.stddev, b.stddev);
  EXPECT_EQ(a.skewness, b.skewness);
}

void expect_same_lvf2(const core::Lvf2Parameters& a,
                      const core::Lvf2Parameters& b) {
  EXPECT_EQ(a.lambda, b.lambda);
  expect_same_moments(a.theta1, b.theta1);
  expect_same_moments(a.theta2, b.theta2);
}

TEST(ExecDeterminism, CharacterizeArcBitwiseEqualAcrossThreadCounts) {
  cells::CharacterizeOptions options;
  options.grid = cells::SlewLoadGrid::reduced(4);  // 2x2
  options.mc_samples = 1500;
  const cells::Cell inv = cells::build_cell(cells::CellFamily::kInv, 1, 1.0);
  const cells::Characterizer ch(spice::ProcessCorner{}, options);

  cells::ArcCharacterization serial, threaded;
  {
    ScopedThreadCount guard(1);
    serial = ch.characterize_arc(inv, inv.arcs[0]);
  }
  {
    ScopedThreadCount guard(4);
    threaded = ch.characterize_arc(inv, inv.arcs[0]);
  }

  ASSERT_EQ(serial.entries.size(), threaded.entries.size());
  for (std::size_t i = 0; i < serial.entries.size(); ++i) {
    const auto& s = serial.entries[i];
    const auto& t = threaded.entries[i];
    EXPECT_EQ(s.condition.slew_ns, t.condition.slew_ns);
    EXPECT_EQ(s.condition.load_pf, t.condition.load_pf);
    EXPECT_EQ(s.nominal_delay_ns, t.nominal_delay_ns);
    EXPECT_EQ(s.nominal_transition_ns, t.nominal_transition_ns);
    expect_same_moments(s.lvf_delay, t.lvf_delay);
    expect_same_moments(s.lvf_transition, t.lvf_transition);
    expect_same_lvf2(s.lvf2_delay, t.lvf2_delay);
    expect_same_lvf2(s.lvf2_transition, t.lvf2_transition);
    EXPECT_EQ(s.lvf2_delay_report.iterations, t.lvf2_delay_report.iterations);
    EXPECT_EQ(s.lvf2_delay_report.log_likelihood,
              t.lvf2_delay_report.log_likelihood);
    EXPECT_EQ(s.status.is_ok(), t.status.is_ok());
  }
}

TEST(ExecDeterminism, ShardedMonteCarloStableAcrossThreadCounts) {
  const spice::ProcessCorner corner;
  const spice::StageElectrical stage;
  spice::McConfig cfg;
  cfg.samples = 2000;
  cfg.seed = 77;
  cfg.shards = 4;

  spice::McResult serial, threaded;
  {
    ScopedThreadCount guard(1);
    serial = spice::run_monte_carlo(stage, {0.05, 0.05}, corner, cfg);
  }
  {
    ScopedThreadCount guard(4);
    threaded = spice::run_monte_carlo(stage, {0.05, 0.05}, corner, cfg);
  }
  EXPECT_EQ(serial.delay_ns, threaded.delay_ns);
  EXPECT_EQ(serial.transition_ns, threaded.transition_ns);
}

TEST(ExecDeterminism, SingleShardMatchesHistoricalStream) {
  // shards == 1 (the default) must reproduce the pre-sharding sample
  // stream byte-for-byte even when threads are available; shards > 1
  // is a different (opt-in) stream.
  const spice::ProcessCorner corner;
  const spice::StageElectrical stage;
  spice::McConfig legacy;
  legacy.samples = 800;
  legacy.seed = 42;

  spice::McResult baseline = spice::run_monte_carlo(
      stage, {0.05, 0.05}, corner, legacy);

  ScopedThreadCount guard(4);
  const spice::McResult same =
      spice::run_monte_carlo(stage, {0.05, 0.05}, corner, legacy);
  EXPECT_EQ(baseline.delay_ns, same.delay_ns);

  spice::McConfig sharded = legacy;
  sharded.shards = 4;
  const spice::McResult different =
      spice::run_monte_carlo(stage, {0.05, 0.05}, corner, sharded);
  EXPECT_EQ(different.delay_ns.size(), baseline.delay_ns.size());
  EXPECT_NE(baseline.delay_ns, different.delay_ns);
}

TEST(ExecDeterminism, PathMonteCarloStableAcrossThreadCounts) {
  circuits::AdderOptions options;
  options.bits = 4;
  const ssta::TimingPath path =
      circuits::build_adder_critical_path(options, spice::ProcessCorner{});
  ssta::PathMcConfig cfg;
  cfg.samples = 400;

  ssta::PathMcResult serial, threaded;
  {
    ScopedThreadCount guard(1);
    serial = ssta::run_path_monte_carlo(path, spice::ProcessCorner{}, cfg);
  }
  {
    ScopedThreadCount guard(4);
    threaded = ssta::run_path_monte_carlo(path, spice::ProcessCorner{}, cfg);
  }
  EXPECT_EQ(serial.stage_delays, threaded.stage_delays);
  EXPECT_EQ(serial.cumulative, threaded.cumulative);
}

// --- pool telemetry -------------------------------------------------

TEST(PoolTelemetry, DisabledByDefaultAndTogglable) {
  EXPECT_FALSE(telemetry_enabled());  // LVF2_EXEC_TELEMETRY unset
  set_telemetry(true);
  EXPECT_TRUE(telemetry_enabled());
  set_telemetry(false);
  EXPECT_FALSE(telemetry_enabled());
}

TEST(PoolTelemetry, CountsEveryChunkAndIndexUnderStress) {
  ScopedThreadCount guard(8);
  const std::vector<WorkerTelemetry> before = telemetry_snapshot();
  std::uint64_t chunks_before = 0;
  std::uint64_t indices_before = 0;
  for (const WorkerTelemetry& slot : before) {
    chunks_before += slot.chunks;
    indices_before += slot.indices;
  }

  set_telemetry(true);
  constexpr std::size_t kN = 10000;
  constexpr std::size_t kChunk = 3;
  constexpr int kJobs = 5;
  std::atomic<std::size_t> ran{0};
  for (int job = 0; job < kJobs; ++job) {
    parallel_for(kN, kChunk, [&](std::size_t) {
      ran.fetch_add(1, std::memory_order_relaxed);
    });
  }
  set_telemetry(false);
  EXPECT_EQ(ran.load(), kN * kJobs);

  const std::vector<WorkerTelemetry> after = telemetry_snapshot();
  ASSERT_FALSE(after.empty());
  std::uint64_t chunks = 0;
  std::uint64_t indices = 0;
  std::size_t active_slots = 0;
  for (const WorkerTelemetry& slot : after) {
    chunks += slot.chunks;
    indices += slot.indices;
    if (slot.indices > 0) ++active_slots;
    EXPECT_GE(slot.busy_us, 0.0);
  }
  // Every index ran exactly once and every chunk claim was counted:
  // ceil(kN / kChunk) chunks per job, kN indices per job.
  EXPECT_EQ(indices - indices_before, kN * kJobs);
  EXPECT_EQ(chunks - chunks_before,
            ((kN + kChunk - 1) / kChunk) * kJobs);
  // With 10000 tiny chunks across 5 jobs, more than one of the 8
  // slots (caller + workers) must have claimed work.
  EXPECT_GT(active_slots, 1u);

  // The registry also feeds the manifest `exec` section.
  obs::ManifestRecorder& recorder = obs::ManifestRecorder::instance();
  const std::string path = testing::TempDir() + "exec_telemetry.json";
  recorder.start(path);
  const std::string json = recorder.to_json();
  recorder.discard();
  EXPECT_NE(json.find("\"exec\":{\"workers\":"), std::string::npos);
  EXPECT_NE(json.find("\"per_worker\":[{\"slot\":\"caller\""),
            std::string::npos);
}

TEST(PoolTelemetry, OffPathRecordsNothingNew) {
  ScopedThreadCount guard(4);
  ASSERT_FALSE(telemetry_enabled());
  const std::vector<WorkerTelemetry> before = telemetry_snapshot();
  parallel_for(1000, 7, [](std::size_t) {});
  const std::vector<WorkerTelemetry> after = telemetry_snapshot();
  std::uint64_t before_indices = 0;
  std::uint64_t after_indices = 0;
  for (const WorkerTelemetry& slot : before) before_indices += slot.indices;
  for (const WorkerTelemetry& slot : after) after_indices += slot.indices;
  EXPECT_EQ(before_indices, after_indices);
}

// --- concurrent observability stress -------------------------------

TEST(ExecStress, ConcurrentObserveKeepsTotalsExact) {
  constexpr int kThreads = 8;
  constexpr int kIters = 5000;
  obs::Counter& counter = obs::counter("test.exec.stress.count");
  obs::DoubleCounter& dcounter =
      obs::double_counter("test.exec.stress.sum");
  obs::Histogram& histogram = obs::MetricsRegistry::instance().histogram(
      "test.exec.stress.histogram", {0.25, 0.5, 0.75});

  const std::uint64_t count_before = counter.value();
  const double sum_before = dcounter.value();
  const std::uint64_t hist_before = histogram.count();
  const double hist_sum_before = histogram.sum();

  obs::ManifestRecorder& recorder = obs::ManifestRecorder::instance();
  const std::string path = testing::TempDir() + "exec_stress_manifest.json";
  recorder.start(path);

  std::vector<std::thread> threads;
  threads.reserve(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      for (int i = 0; i < kIters; ++i) {
        counter.add(1);
        dcounter.add(0.5);
        histogram.observe(static_cast<double>(i % 4) * 0.25);
        if (i % 100 == 0) {
          obs::ArcQor arc;
          arc.table = "stress";
          arc.cell = "CELL_" + std::to_string(t);
          arc.arc = "A->Y";
          arc.metric = "delay";
          arc.load_idx = i;
          recorder.add_arc(std::move(arc));
        }
      }
    });
  }
  for (std::thread& t : threads) t.join();

  // CAS-loop double accumulation must not lose updates: the sums are
  // exact (0.5 and the 0/0.25/0.5/0.75 cycle are binary-exact).
  EXPECT_EQ(counter.value() - count_before,
            static_cast<std::uint64_t>(kThreads) * kIters);
  EXPECT_DOUBLE_EQ(dcounter.value() - sum_before, kThreads * kIters * 0.5);
  EXPECT_EQ(histogram.count() - hist_before,
            static_cast<std::uint64_t>(kThreads) * kIters);
  EXPECT_DOUBLE_EQ(histogram.sum() - hist_sum_before,
                   kThreads * (kIters / 4) * (0.0 + 0.25 + 0.5 + 0.75));

  const std::string json = recorder.to_json();
  recorder.discard();
  std::remove(path.c_str());
  std::size_t rows = 0;
  for (std::size_t pos = json.find("\"table\":\"stress\"");
       pos != std::string::npos;
       pos = json.find("\"table\":\"stress\"", pos + 1)) {
    ++rows;
  }
  EXPECT_EQ(rows, static_cast<std::size_t>(kThreads) * (kIters / 100));
}

}  // namespace
}  // namespace lvf2::exec
