#!/usr/bin/env bash
# Tier-1 gate: configure + build (warnings-as-errors on the
# instrumented targets) + ctest, then an end-to-end smoke test of the
# observability sinks (LVF2_TRACE / LVF2_METRICS / LVF2_LOG) against
# a real pipeline run, then the QoR regression gate: a fixed-seed
# manifest run diffed arc-by-arc against scripts/golden/
# qor_manifest.json with lvf2_report, plus a 4-bit adder path run
# diffed against scripts/golden/path_manifest.json; the canonical form
# of both scalar runs must also match its golden byte for byte, and
# the ambient SIMD tier of both runs must stay within a tolerance.
# A scalar-tier Table 1 sweep over seeds 1-30 must lose no more rows,
# and lead every row at no fewer seeds, than scripts/golden/
# table1_sweep.json.
#
# Tier-1.5 (--sanitize): the same gate rebuilt under ASan + UBSan in
# its own build directory, plus an everything-armed fault-injection
# pass (LVF2_FAULTS) — the acceptance run for the robustness layer.
#
# Tier-1.5 (--tsan): the concurrency gate — the tree rebuilt under
# ThreadSanitizer in its own build directory, then the exec pool /
# parallel hot-loop / concurrent-observability test subset run with
# LVF2_THREADS=4 so every lock and atomic in the fork-join path is
# exercised under TSan. Subset, not full ctest: TSan's 5-15x
# slowdown makes the single-threaded statistical suites pure cost.
#
# Tier-1.5 (--cache): the incremental-characterization gate — a cold
# and a warm LVF2_CACHE run of examples/characterize_library must
# produce byte-identical manifests (rtol 0 / atol 0), the warm run
# must be all hits and at least 10x faster in characterize.entry wall
# time, and lvf2_cache verify must reproduce sampled cached entries
# bit-for-bit.
#
# Tier-1.5 (--perf): the performance-observability gate — a profiled
# (LVF2_PROFILE), telemetry-armed (LVF2_EXEC_TELEMETRY,
# LVF2_ALLOC_STATS) bench_table1_scenarios run must emit a folded
# profile whose hot stacks name the pipeline stages, bench_perf must
# hold the disabled-hook budget and write BENCH_perf_micro.json, and
# `lvf2_report perf` must pass vs scripts/golden/perf_manifest.json
# (budget LVF2_PERF_BUDGET percent, default 300) while still failing
# on a synthetically inflated manifest (gate self-test).
#
# Tier-1.5 (--serve): the fault-tolerant serving gate — lvf2d is
# warmed (no faults, rw cache, deadline-free soak), then restarted
# with the I/O + EM faults armed on a readonly warm cache and soaked
# with N mixed multi-client queries; both runs must drain cleanly on
# SIGTERM with a manifest whose serve section shows
# accepted == responded, and the soak client must see zero invariant
# violations (valid status codes / degradation tags on every answer,
# deadline-tagged requests within deadline + slack). The faulted soak
# also exercises the serving-telemetry surface: the `metrics` op is
# scraped mid-soak both inline (lvf2d_soak --scrape-every) and over a
# live lvf2_top --prometheus scrape that must be well-formed and
# reconcile with the drain manifest's serve_telemetry section, whose
# deadline-population p99 queue+exec must fit the 250 ms budget; the
# JSONL access log (LVF2_ACCESS_LOG) must parse line-for-line and
# summarize cleanly under `lvf2_report serve`.
#
# Tier-1.5 (--yield): the high-sigma yield accuracy gate — a
# scalar-tier bench_yield_sigma sigma sweep (3.0-4.5 sigma on the
# "2 Peaks" scenario) whose manifest yield_hs section must reproduce
# scripts/golden/yield_manifest.json at zero tolerance, plus accuracy
# asserts from BENCH_yield_sigma.json: the IS estimate at 3.0/3.5
# sigma must agree with the same-run brute-force estimate within 3
# combined standard errors, every level must converge with sane
# ESS/weight diagnostics, and at >= 4 sigma the brute-force-equivalent
# sample count must be >= 50x the IS sample count.
#
# Usage: scripts/check.sh [--sanitize|--tsan|--cache|--perf|--serve|
#        --yield] [--update-golden] [--update-perf-golden]
#        [--update-yield-golden] [build-dir]
#        (default build-dir: build, build-asan with --sanitize,
#        build-tsan with --tsan)
#        --update-golden: re-record scripts/golden/qor_manifest.json,
#        scripts/golden/path_manifest.json and scripts/golden/
#        table1_sweep.json from the current build instead of diffing
#        against them.
#        --update-perf-golden: re-record scripts/golden/
#        perf_manifest.json from the current --perf run.
#        --update-yield-golden: re-record scripts/golden/
#        yield_manifest.json from the current --yield run.

set -euo pipefail
cd "$(dirname "$0")/.."

SANITIZE=0
TSAN=0
CACHE=0
PERF=0
SERVE=0
YIELD=0
UPDATE_GOLDEN=0
UPDATE_PERF_GOLDEN=0
UPDATE_YIELD_GOLDEN=0
while [ $# -gt 0 ]; do
  case "$1" in
    --sanitize) SANITIZE=1; shift ;;
    --tsan) TSAN=1; shift ;;
    --cache) CACHE=1; shift ;;
    --perf) PERF=1; shift ;;
    --serve) SERVE=1; shift ;;
    --yield) YIELD=1; shift ;;
    --update-golden) UPDATE_GOLDEN=1; shift ;;
    --update-perf-golden) UPDATE_PERF_GOLDEN=1; shift ;;
    --update-yield-golden) UPDATE_YIELD_GOLDEN=1; shift ;;
    *) break ;;
  esac
done
if [ "$SANITIZE" = 1 ]; then
  BUILD_DIR="${1:-build-asan}"
elif [ "$TSAN" = 1 ]; then
  BUILD_DIR="${1:-build-tsan}"
else
  BUILD_DIR="${1:-build}"
fi
JOBS="$(nproc 2>/dev/null || echo 4)"

CMAKE_FLAGS=(-DLVF2_WERROR=ON)
if [ "$SANITIZE" = 1 ]; then
  CMAKE_FLAGS+=(-DLVF2_SANITIZE=ON)
elif [ "$TSAN" = 1 ]; then
  CMAKE_FLAGS+=(-DLVF2_SANITIZE=thread)
fi
if command -v ccache >/dev/null; then
  CMAKE_FLAGS+=(-DCMAKE_CXX_COMPILER_LAUNCHER=ccache)
fi

if [ "$TSAN" = 1 ]; then
  echo "== ThreadSanitizer concurrency gate =="
  cmake -B "$BUILD_DIR" -S . "${CMAKE_FLAGS[@]}"
  cmake --build "$BUILD_DIR" -j"$JOBS" --target lvf2_tests
  LVF2_THREADS=4 "$BUILD_DIR/tests/lvf2_tests" --gtest_filter=\
'ParseThreadCount.*:ThreadCount.*:ParallelFor.*:ParallelMap.*:Pool.*'\
':PoolTelemetry.*:ExecDeterminism.*:ExecStress.*:Manifest.*'\
':MetricsRegistry.*:EvaluateModels.*:CacheStore.*'\
':CacheCharacterize.Concurrent*:Serve*:Yield.*'
  echo "check.sh: TSan gate green"
  exit 0
fi

if [ "$CACHE" = 1 ]; then
  echo "== result-cache incremental-characterization gate =="
  cmake -B "$BUILD_DIR" -S . "${CMAKE_FLAGS[@]}"
  cmake --build "$BUILD_DIR" -j"$JOBS" \
    --target characterize_library lvf2_report lvf2_cache_cli
  # LVF2_CACHE_GATE_DIR keeps the run's manifests + cache around
  # (CI uploads them as artifacts); default is a cleaned-up temp dir.
  if [ -n "${LVF2_CACHE_GATE_DIR:-}" ]; then
    CACHE_DIR="$LVF2_CACHE_GATE_DIR"
    mkdir -p "$CACHE_DIR"
  else
    CACHE_DIR="$(mktemp -d)"
    trap 'rm -rf "$CACHE_DIR"' EXIT
  fi
  REPORT="$BUILD_DIR/tools/lvf2_report"
  CACHE_CLI="$BUILD_DIR/tools/lvf2_cache"

  echo "-- cold run (populates $CACHE_DIR/cache)"
  LVF2_CACHE="$CACHE_DIR/cache" LVF2_MANIFEST="$CACHE_DIR/cold.json" \
    "$BUILD_DIR/examples/characterize_library" "$CACHE_DIR" 2000 4 >/dev/null
  echo "-- warm run (must be all hits)"
  LVF2_CACHE="$CACHE_DIR/cache" LVF2_MANIFEST="$CACHE_DIR/warm.json" \
    "$BUILD_DIR/examples/characterize_library" "$CACHE_DIR" 2000 4 >/dev/null

  # A warm run must change nothing: zero-tolerance QoR diff and
  # byte-identical canonical manifests.
  "$REPORT" diff "$CACHE_DIR/cold.json" "$CACHE_DIR/warm.json" \
      --rtol 0 --atol 0 \
    || { echo "FAIL: warm cached run changed QoR numbers"; exit 1; }
  "$REPORT" canon "$CACHE_DIR/cold.json" > "$CACHE_DIR/cold.canon"
  "$REPORT" canon "$CACHE_DIR/warm.json" > "$CACHE_DIR/warm.canon"
  cmp -s "$CACHE_DIR/cold.canon" "$CACHE_DIR/warm.canon" \
    || { echo "FAIL: cold and warm canonical manifests differ"; exit 1; }

  if command -v python3 >/dev/null; then
  python3 - "$CACHE_DIR" <<'EOF'
import json, sys, os
d = sys.argv[1]
cold = json.load(open(os.path.join(d, "cold.json")))
warm = json.load(open(os.path.join(d, "warm.json")))
entries = len(cold["arcs"])
assert entries > 0, "cold run characterized nothing"
assert cold["cache"]["hit"] == 0, cold["cache"]
assert cold["cache"]["store"] == entries, cold["cache"]
assert warm["cache"]["hit"] == entries, warm["cache"]
assert warm["cache"]["miss"] == 0, warm["cache"]
cold_ms = cold["stages"]["characterize.entry"]["wall_ms"]
warm_ms = warm["stages"]["characterize.entry"]["wall_ms"]
ratio = cold_ms / max(warm_ms, 1e-9)
assert ratio >= 10.0, f"warm run only {ratio:.1f}x faster ({cold_ms:.1f}ms -> {warm_ms:.1f}ms)"
print(f"ok: {entries} entries, warm all-hit, characterize.entry "
      f"{cold_ms:.1f}ms -> {warm_ms:.1f}ms ({ratio:.0f}x)")
EOF
  else
    echo "python3 unavailable; skipped hit-count / speedup assertions"
  fi

  "$CACHE_CLI" stats "$CACHE_DIR/cache"
  "$CACHE_CLI" verify "$CACHE_DIR/cache" --sample 4 \
    || { echo "FAIL: cached entries no longer reproduce"; exit 1; }
  echo "check.sh: cache gate green"
  exit 0
fi

if [ "$PERF" = 1 ]; then
  echo "== performance-observability gate =="
  cmake -B "$BUILD_DIR" -S . "${CMAKE_FLAGS[@]}"
  cmake --build "$BUILD_DIR" -j"$JOBS" \
    --target bench_table1_scenarios bench_perf lvf2_report
  # LVF2_PERF_GATE_DIR keeps the run's profile + manifests around
  # (CI uploads them as artifacts); default is a cleaned-up temp dir.
  if [ -n "${LVF2_PERF_GATE_DIR:-}" ]; then
    PERF_DIR="$LVF2_PERF_GATE_DIR"
    mkdir -p "$PERF_DIR"
  else
    PERF_DIR="$(mktemp -d)"
    trap 'rm -rf "$PERF_DIR"' EXIT
  fi
  REPORT="$BUILD_DIR/tools/lvf2_report"

  echo "-- profiled pipeline run (profiler + exec telemetry + alloc stats)"
  LVF2_PROFILE="$PERF_DIR/profile.folded,hz=300" \
  LVF2_EXEC_TELEMETRY=1 \
  LVF2_ALLOC_STATS=1 \
  LVF2_MANIFEST="$PERF_DIR/perf_manifest.json" \
    "$BUILD_DIR/bench/bench_table1_scenarios" --samples 4000 --seed 2024 \
    >/dev/null
  [ -s "$PERF_DIR/profile.folded" ] \
    || { echo "FAIL: profiler wrote no folded stacks"; exit 1; }
  [ -s "$PERF_DIR/perf_manifest.json" ] \
    || { echo "FAIL: perf manifest was not written"; exit 1; }

  "$REPORT" flame "$PERF_DIR/profile.folded" --top 15 \
    | tee "$PERF_DIR/flame.txt"
  # The hot stacks must attribute samples to real pipeline stages, not
  # only "(untagged)" — the whole point of stage tagging.
  grep -qE 'characterize|em\.|spice\.mc|ssta\.' "$PERF_DIR/flame.txt" \
    || { echo "FAIL: no pipeline stage named in the hot stacks"; exit 1; }

  # The manifest must carry the telemetry sections the profiled run
  # armed, and they must not leak into the determinism gates' view.
  grep -q '"exec":{' "$PERF_DIR/perf_manifest.json" \
    || { echo "FAIL: manifest has no exec section"; exit 1; }
  grep -q '"resource":{' "$PERF_DIR/perf_manifest.json" \
    || { echo "FAIL: manifest has no resource section"; exit 1; }
  grep -q '"profile":{' "$PERF_DIR/perf_manifest.json" \
    || { echo "FAIL: manifest has no profile section"; exit 1; }
  "$REPORT" canon "$PERF_DIR/perf_manifest.json" \
    | grep -qE '"exec"|"resource"|"profile"' \
    && { echo "FAIL: telemetry sections leaked into the canonical form"; \
         exit 1; }

  echo "-- disabled-hook budget + kernel throughput (bench_perf)"
  # One run records the disabled-path overhead gauges, the per-tier
  # BM_*Kernel throughput rows, and the scalar-vs-vector cold-entry
  # pair into BENCH_perf_micro.json (env -u LVF2_CACHE: any cache
  # setting, even =off, voids the cold-entry bench).
  env -u LVF2_CACHE LVF2_BENCH_JSON="$(pwd)" "$BUILD_DIR/bench/bench_perf" \
    --benchmark_filter='BM_Disabled.*|BM_PoolTelemetryOverhead|BM_.*Kernel/.*|BM_SkewNormalMStep/.*|BM_CharacterizeEntryCold/.*|BM_FitModel/.*|BM_Lvf2FitBinned/512|BM_ServeYieldHs/.*' \
    --benchmark_min_time=0.2 >"$PERF_DIR/bench_perf.txt" 2>&1 \
    || { cat "$PERF_DIR/bench_perf.txt"; exit 1; }
  [ -s BENCH_perf_micro.json ] \
    || { echo "FAIL: BENCH_perf_micro.json was not written"; exit 1; }
  if command -v python3 >/dev/null; then
  python3 - BENCH_perf_micro.json <<'EOF'
import json, os, sys
bench = json.load(open(sys.argv[1]))
reg = bench["metrics"]
# Per-call ns budget of a disabled hook: one relaxed atomic load. The
# contract is < 5 ns on an idle machine; the gate allows headroom for
# shared-runner noise (override with LVF2_PERF_NS_BUDGET).
budget = float(os.environ.get("LVF2_PERF_NS_BUDGET", "15"))
checked = 0
for key, value in reg.items():
    if key.startswith("BM_Disabled") or key.startswith("BM_PoolTelemetry"):
        assert value < budget, f"{key} = {value:.2f} ns > {budget} ns budget"
        checked += 1
assert checked >= 2, f"only {checked} disabled-path benches recorded"
print(f"ok: {checked} disabled-path hooks within {budget} ns")
# The perf trajectory must carry real kernel data, not only the
# disabled-path gauges: per-tier BM_*Kernel rows (suffix _0 scalar /
# _2 avx2) and the cold-entry pair with its frozen pre-SIMD scalar
# reference.
kernel_rows = [k for k in reg if "Kernel_" in k]
assert len(kernel_rows) >= 6, f"only {len(kernel_rows)} BM_*Kernel rows"
cold = [k for k in reg if k.startswith("BM_CharacterizeEntryCold_")]
assert "BM_CharacterizeEntryCold_0" in cold, "no scalar cold-entry row"
assert "BM_CharacterizeEntryCold_pre_simd_scalar_baseline_ms" in cold, \
    "no frozen pre-SIMD cold-entry baseline"
assert "BM_CharacterizeEntryCold_2" in cold, \
    "no AVX2 cold-entry row (AVX2 unavailable?)"
# The Newton M-step's fused kernel and the L1 M-step row, each with a
# scalar row and an AVX2 row; the M-step rows carry their per-M-step
# Newton iteration and evaluation counters.
for row in ("BM_SkewNormalNllScoreKernel", "BM_SkewNormalMStep"):
    assert f"{row}_0" in reg, f"no scalar {row} row"
    assert f"{row}_2" in reg, f"no AVX2 {row} row"
for k in [k for k in reg if k.startswith("BM_SkewNormalMStep_")
          and k[len("BM_SkewNormalMStep_"):].isdigit()]:
    for counter in ("newton_iterations", "evaluations"):
        assert reg.get(f"{k}_{counter}", 0) >= 1, f"{k} has no {counter}"
mstep = ", ".join(
    f"{k[-1]}: {reg[k]:.0f} us / {reg[k + '_newton_iterations']:.1f} it"
    for k in sorted(reg) if k[:-1] == "BM_SkewNormalMStep_")
print(f"ok: fused M-step kernel rows + M-step rows ({mstep})")
# One fit per model family (LVF, Norm2, LESN, LVF2); the LESN row
# tracks the Levenberg-Marquardt four-moment fit.
for k in range(4):
    assert f"BM_FitModel_{k}" in reg, f"no BM_FitModel_{k} row"
print(f"ok: model fit rows (LESN {reg['BM_FitModel_2']:.3f} ms)")
# L2 row: one binned LVF2 EM fit, with its iteration count and
# convergence flag.
l2 = "BM_Lvf2FitBinned_512"
assert l2 in reg, f"no {l2} row"
assert reg.get(f"{l2}_em_iterations", 0) >= 1, f"{l2} has no em_iterations"
assert f"{l2}_converged" in reg, f"{l2} has no converged counter"
print(f"ok: L2 row {reg[l2]:.2f} ms, "
      f"{reg[f'{l2}_em_iterations']:.0f} EM iterations, "
      f"converged {reg[f'{l2}_converged']:.0f}")
# L7 row: one served yield_hs request, with the proposal-shift memo
# cleared (_0, pilot + sampling) and kept (_1, sampling only).
for k in ("BM_ServeYieldHs_0", "BM_ServeYieldHs_1"):
    assert k in reg, f"no {k} row"
assert reg["BM_ServeYieldHs_1"] < reg["BM_ServeYieldHs_0"], \
    "a memoized yield_hs request is not cheaper than a cold one"
print(f"ok: L7 yield_hs row cold {reg['BM_ServeYieldHs_0']:.2f} ms, "
      f"warm {reg['BM_ServeYieldHs_1']:.2f} ms")
base = reg["BM_CharacterizeEntryCold_pre_simd_scalar_baseline_ms"]
avx2 = reg["BM_CharacterizeEntryCold_2"]
print(f"ok: {len(kernel_rows)} kernel rows; cold entry AVX2 "
      f"{avx2:.0f} ms vs pre-SIMD scalar {base:.0f} ms "
      f"({base / avx2:.1f}x)")
EOF
  else
    echo "python3 unavailable; skipped disabled-hook ns assertions"
  fi

  echo "-- perf budget vs committed baseline"
  PERF_GOLDEN=scripts/golden/perf_manifest.json
  if [ "$UPDATE_PERF_GOLDEN" = 1 ]; then
    mkdir -p scripts/golden
    cp "$PERF_DIR/perf_manifest.json" "$PERF_GOLDEN"
    echo "re-recorded $PERF_GOLDEN from this run"
  elif [ -f "$PERF_GOLDEN" ]; then
    # Wall/CPU/RSS vary machine to machine; the generous default
    # budget (LVF2_PERF_BUDGET percent + absolute slack) only fires on
    # order-of-magnitude blowups, which is exactly what an accidental
    # O(n^2) or a leak looks like.
    "$REPORT" perf "$PERF_GOLDEN" "$PERF_DIR/perf_manifest.json" \
        --budget-pct "${LVF2_PERF_BUDGET:-300}" --abs-ms 500 --abs-kb 262144 \
      || { echo "FAIL: perf regressed vs $PERF_GOLDEN (rerun with" \
                "--update-perf-golden if the change is intentional)"; \
           exit 1; }
  else
    echo "WARN: $PERF_GOLDEN missing; run scripts/check.sh --perf" \
         "--update-perf-golden"
  fi

  # Gate self-test: an inflated stage wall time must trip the budget.
  if command -v python3 >/dev/null; then
    python3 - "$PERF_DIR" <<'EOF'
import json, os, sys
d = sys.argv[1]
manifest = json.load(open(os.path.join(d, "perf_manifest.json")))
assert manifest["stages"], "perf manifest has no stage rollups"
stage = next(iter(manifest["stages"]))
manifest["stages"][stage]["wall_ms"] = \
    manifest["stages"][stage]["wall_ms"] * 100 + 1e6
json.dump(manifest, open(os.path.join(d, "inflated_manifest.json"), "w"))
print(f"inflated stage {stage} for the self-test")
EOF
    if "$REPORT" perf "$PERF_DIR/perf_manifest.json" \
        "$PERF_DIR/inflated_manifest.json" \
        --budget-pct "${LVF2_PERF_BUDGET:-300}" --abs-ms 500 >/dev/null; then
      echo "FAIL: lvf2_report perf accepted a 100x inflated stage"
      exit 1
    fi
    echo "ok: inflated stage wall time trips the perf gate"
  fi
  echo "check.sh: perf gate green"
  exit 0
fi

if [ "$SERVE" = 1 ]; then
  echo "== lvf2d fault-tolerant serving gate =="
  cmake -B "$BUILD_DIR" -S . "${CMAKE_FLAGS[@]}"
  cmake --build "$BUILD_DIR" -j"$JOBS" \
    --target lvf2d lvf2d_soak lvf2_top lvf2_report
  # LVF2_SERVE_GATE_DIR keeps the daemon logs + manifest around (CI
  # uploads them as artifacts); default is a cleaned-up temp dir.
  if [ -n "${LVF2_SERVE_GATE_DIR:-}" ]; then
    SOAK_DIR="$LVF2_SERVE_GATE_DIR"
    mkdir -p "$SOAK_DIR"
  else
    SOAK_DIR="$(mktemp -d)"
    trap 'rm -rf "$SOAK_DIR"' EXIT
  fi
  SOCK="$SOAK_DIR/lvf2d.sock"
  N="${LVF2_SOAK_N:-200}"
  DAEMON_PID=""

  start_daemon() {  # start_daemon <log-file> [ENV=VAL ...]
    local log="$1"
    shift
    rm -f "$SOCK"
    env "$@" LVF2_SERVE="unix:$SOCK" LVF2_SERVE_SAMPLES=300 \
      LVF2_CACHE="$SOAK_DIR/cache" \
      "$BUILD_DIR/tools/lvf2d" >"$log" 2>&1 &
    DAEMON_PID=$!
    for _ in $(seq 1 100); do
      [ -S "$SOCK" ] && return 0
      kill -0 "$DAEMON_PID" 2>/dev/null \
        || { echo "FAIL: lvf2d died at startup"; cat "$log"; return 1; }
      sleep 0.1
    done
    echo "FAIL: lvf2d never bound $SOCK"
    cat "$log"
    return 1
  }

  stop_daemon() {  # SIGTERM, bounded drain wait, exit code must be 0
    kill -TERM "$DAEMON_PID"
    for _ in $(seq 1 300); do
      kill -0 "$DAEMON_PID" 2>/dev/null || break
      sleep 0.1
    done
    if kill -0 "$DAEMON_PID" 2>/dev/null; then
      echo "FAIL: lvf2d did not drain within 30s of SIGTERM"
      kill -9 "$DAEMON_PID"
      return 1
    fi
    local rc=0
    wait "$DAEMON_PID" || rc=$?
    if [ "$rc" != 0 ]; then
      echo "FAIL: lvf2d exited with status $rc"
      return 1
    fi
  }

  # Phase 1: a fault-free, deadline-free soak with the same seed and
  # mix as phase 2 populates the result cache, so the faulted replica
  # below serves warm entries. Same LVF2_SERVE_SAMPLES both phases —
  # the cache key covers the Monte-Carlo config.
  echo "-- warm phase: fault-free daemon populates the cache"
  start_daemon "$SOAK_DIR/warm_daemon.log" || exit 1
  timeout 900 "$BUILD_DIR/tools/lvf2d_soak" --connect "unix:$SOCK" \
      --n "$N" --clients 4 --deadline-ms 0 \
    || { echo "FAIL: warm soak failed"; cat "$SOAK_DIR/warm_daemon.log"; \
         exit 1; }
  stop_daemon || exit 1
  [ -n "$(ls "$SOAK_DIR/cache" 2>/dev/null)" ] \
    || { echo "FAIL: warm run left no cache shards"; exit 1; }

  # Phase 2: the survival run. Socket + cache-shard I/O faults and EM
  # collapse armed at 10% each, readonly warm cache, per-request
  # deadlines — every response must carry a valid status code or
  # degradation tag, and SIGTERM must drain to a complete manifest.
  echo "-- soak phase: faults armed, readonly warm cache, deadlines on"
  start_daemon "$SOAK_DIR/soak_daemon.log" \
    LVF2_CACHE_MODE=readonly \
    LVF2_DEADLINE_MS=250 \
    LVF2_FAULTS="socket.read:0.1,socket.write:0.1,cache.read_io:0.1,em.collapse:0.1;seed=2024" \
    LVF2_MANIFEST="$SOAK_DIR/serve_manifest.json" \
    LVF2_METRICS="$SOAK_DIR/serve_metrics.json" \
    LVF2_ACCESS_LOG="$SOAK_DIR/access.log" || exit 1
  # The soak runs in the background so lvf2_top can scrape the live
  # daemon mid-soak; the soak itself also hits the metrics op inline
  # every 25 requests (--scrape-every).
  timeout 600 "$BUILD_DIR/tools/lvf2d_soak" --connect "unix:$SOCK" \
      --n "$N" --clients 4 --scrape-every 25 &
  SOAK_PID=$!
  sleep 0.5
  SCRAPED=0
  for _ in $(seq 1 100); do
    if "$BUILD_DIR/tools/lvf2_top" --connect "unix:$SOCK" --once \
        --prometheus >"$SOAK_DIR/metrics.prom" 2>/dev/null \
        && grep -q '^lvf2_serve_op_' "$SOAK_DIR/metrics.prom" \
        && grep -q '^lvf2_serve_accepted_total' "$SOAK_DIR/metrics.prom"; then
      SCRAPED=1
      break
    fi
    kill -0 "$SOAK_PID" 2>/dev/null || break
    sleep 0.2
  done
  wait "$SOAK_PID" \
    || { echo "FAIL: faulted soak failed"; cat "$SOAK_DIR/soak_daemon.log"; \
         exit 1; }
  [ "$SCRAPED" = 1 ] \
    || { echo "FAIL: mid-soak Prometheus scrape never saw per-op samples"; \
         exit 1; }
  stop_daemon || exit 1

  [ -s "$SOAK_DIR/serve_manifest.json" ] \
    || { echo "FAIL: drained daemon wrote no manifest"; exit 1; }
  [ -s "$SOAK_DIR/access.log" ] \
    || { echo "FAIL: soak left no access log"; exit 1; }
  if command -v python3 >/dev/null; then
    python3 - "$SOAK_DIR/serve_manifest.json" <<'EOF'
import json, sys
manifest = json.load(open(sys.argv[1]))
serve = manifest.get("serve")
assert serve, "manifest has no serve section"
assert serve["drained"] == 1, serve
assert serve["accepted"] > 0, serve
assert serve["accepted"] == serve["responded"], \
    f"accepted {serve['accepted']} != responded {serve['responded']}"
answered = (serve["completed_full"] + serve["completed_degraded"]
            + serve["failed"])
assert answered == serve["responded"], serve
assert serve["io_retry"] + serve["io_injected_hard"] > 0, \
    "socket faults never fired"
print(f"ok: accepted={serve['accepted']} responded={serve['responded']} "
      f"full={serve['completed_full']} "
      f"degraded={serve['completed_degraded']} failed={serve['failed']} "
      f"io_retry={serve['io_retry']} hard={serve['io_injected_hard']} "
      f"drained={serve['drained']}")
EOF
  else
    grep -q '"serve":' "$SOAK_DIR/serve_manifest.json" \
      || { echo "FAIL: manifest has no serve section"; exit 1; }
    echo "python3 unavailable; skipped serve-section count assertions"
  fi

  echo "-- serving telemetry: scrape well-formedness + manifest SLOs"
  if command -v python3 >/dev/null; then
    python3 - "$SOAK_DIR" <<'EOF'
import json, re, sys, os
d = sys.argv[1]
manifest = json.load(open(os.path.join(d, "serve_manifest.json")))
serve = manifest["serve"]
tel = manifest.get("serve_telemetry")
assert tel, "manifest has no serve_telemetry section"

# Per-op telemetry must reconcile with the server's own drain counts:
# every answered request is attributed to exactly one op row.
ops = tel["ops"]
responded = sum(int(row["responded"]) for row in ops.values())
assert responded == serve["responded"], \
    f"op rows sum to {responded}, serve.responded is {serve['responded']}"

# Deadline SLO: the soak runs every timed request under the daemon's
# 250 ms budget, and degradation (not lateness) is the escape hatch —
# so the deadline population's p99 timeline must fit the budget.
budget = tel["deadline_budget_ms"]
assert budget == 250.0, tel
dl = tel["deadline"]
assert dl["total"] > 0, "no deadline-bounded requests recorded"
assert 0.0 <= dl["compliance"] <= 1.0, dl
p99 = dl["queue_p99_ms"] + dl["exec_p99_ms"]
assert p99 <= budget, \
    f"deadline p99 queue+exec {p99:.1f} ms exceeds the {budget:.0f} ms budget"

# The mid-soak Prometheus scrape: every family is declared with
# # TYPE exactly once and before use, values parse, and the
# cumulative per-op counts can only have grown by drain time.
declared = set()
samples = {}
for line in open(os.path.join(d, "metrics.prom")):
    line = line.rstrip("\n")
    if not line:
        continue
    if line.startswith("# TYPE "):
        family = line.split()[2]
        assert family not in declared, f"family {family} declared twice"
        declared.add(family)
        continue
    if line.startswith("#"):
        continue
    m = re.fullmatch(r'([a-zA-Z_:][a-zA-Z0-9_:]*)(\{[^}]*\})? (\S+)', line)
    assert m, f"unparseable sample line: {line!r}"
    name, labels, value = m.group(1), m.group(2) or "", m.group(3)
    float(value)  # must parse
    family = re.sub(r'_(sum|count|bucket)$', '', name)
    assert name in declared or family in declared, \
        f"sample {name} has no # TYPE declaration"
    samples[name + labels] = float(value)
acc = samples["lvf2_serve_accepted_total"]
resp = samples["lvf2_serve_responded_total"]
assert 0 <= acc - resp <= 1024, f"accepted {acc} vs responded {resp}"
scraped_ops = 0
for key, value in samples.items():
    m = re.fullmatch(r'lvf2_serve_op_requests_total\{op="([^"]+)"\}', key)
    if not m:
        continue
    scraped_ops += 1
    final = ops.get(m.group(1))
    assert final is not None, f"scraped op {m.group(1)} missing at drain"
    assert value <= final["requests"], \
        f"{key}: scraped {value} > final {final['requests']}"
assert scraped_ops > 0, "scrape carried no per-op request counters"

# The access log: every line is one parseable JSON record.
records = 0
for line in open(os.path.join(d, "access.log")):
    if not line.strip():
        continue
    rec = json.loads(line)
    assert rec["rid"] > 0 and rec["op"], rec
    records += 1
assert records > 0, "access log is empty"
print(f"ok: telemetry reconciles ({responded} responses over "
      f"{len(ops)} ops), deadline p99 {p99:.1f} ms <= {budget:.0f} ms "
      f"(compliance {dl['compliance']:.3f}), scrape well-formed "
      f"({len(samples)} samples, {scraped_ops} ops), "
      f"{records} access-log records")
EOF
  else
    echo "python3 unavailable; skipped telemetry assertions"
  fi
  "$BUILD_DIR/tools/lvf2_report" serve "$SOAK_DIR/access.log" \
    || { echo "FAIL: lvf2_report serve rejected the access log"; exit 1; }
  echo "check.sh: serve gate green"
  exit 0
fi

if [ "$YIELD" = 1 ]; then
  echo "== high-sigma yield accuracy gate =="
  cmake -B "$BUILD_DIR" -S . "${CMAKE_FLAGS[@]}"
  cmake --build "$BUILD_DIR" -j"$JOBS" \
    --target bench_yield_sigma lvf2_report
  # LVF2_YIELD_GATE_DIR keeps the run's manifest + bench JSON around
  # (CI uploads them as artifacts); default is a cleaned-up temp dir.
  if [ -n "${LVF2_YIELD_GATE_DIR:-}" ]; then
    YIELD_DIR="$LVF2_YIELD_GATE_DIR"
    mkdir -p "$YIELD_DIR"
  else
    YIELD_DIR="$(mktemp -d)"
    trap 'rm -rf "$YIELD_DIR"' EXIT
  fi
  REPORT="$BUILD_DIR/tools/lvf2_report"

  # Scalar tier: the bitwise reference path the golden is recorded
  # from (same rationale as the QoR gate — vector kernels are a few
  # ULP off per call, which the IS accept/reject amplifies).
  echo "-- scalar-tier sigma sweep (IS vs brute force)"
  LVF2_SIMD=scalar \
  LVF2_MANIFEST="$YIELD_DIR/yield_manifest.json" \
  LVF2_BENCH_JSON="$YIELD_DIR" \
    "$BUILD_DIR/bench/bench_yield_sigma" --full \
    | tee "$YIELD_DIR/yield_sweep.txt"
  [ -s "$YIELD_DIR/yield_manifest.json" ] \
    || { echo "FAIL: sweep wrote no manifest"; exit 1; }
  [ -s "$YIELD_DIR/BENCH_yield_sigma.json" ] \
    || { echo "FAIL: BENCH_yield_sigma.json was not written"; exit 1; }

  YIELD_GOLDEN=scripts/golden/yield_manifest.json
  if [ "$UPDATE_YIELD_GOLDEN" = 1 ]; then
    mkdir -p scripts/golden
    "$REPORT" canon "$YIELD_DIR/yield_manifest.json" > "$YIELD_GOLDEN"
    echo "re-recorded $YIELD_GOLDEN from the scalar-tier sweep"
  elif [ -f "$YIELD_GOLDEN" ]; then
    "$REPORT" diff "$YIELD_GOLDEN" "$YIELD_DIR/yield_manifest.json" \
        --sections yield_hs --rtol 0 --atol 0 \
      || { echo "FAIL: the scalar tier no longer reproduces" \
                "$YIELD_GOLDEN bitwise (rerun with" \
                "--update-yield-golden only if the IS numerics changed" \
                "intentionally)"; exit 1; }
  else
    echo "WARN: $YIELD_GOLDEN missing; run scripts/check.sh --yield" \
         "--update-yield-golden"
  fi

  if command -v python3 >/dev/null; then
  python3 - "$YIELD_DIR/BENCH_yield_sigma.json" <<'EOF'
import json, math, sys
reg = json.load(open(sys.argv[1]))["metrics"]
levels = ["s30", "s35", "s40", "s45"]
# Every level must converge to the 10% relative-error target with
# healthy self-normalized-weight diagnostics: ESS in (0, n] (and
# above the defensive-mixture floor alpha*n = n/2 would be ideal, but
# the gate only asserts the hard bound), max weight a vanishing
# fraction of the total.
for key in levels:
    assert reg[f"converged_is_{key}"] == 1.0, \
        f"{key}: IS did not converge (rel_err {reg[f'rel_err_is_{key}']:.3f})"
    n = reg[f"samples_is_{key}"]
    ess = reg[f"ess_{key}"]
    assert 0.0 < ess <= n, f"{key}: ESS {ess} outside (0, {n}]"
    wmax = reg[f"max_weight_fraction_{key}"]
    assert 0.0 < wmax <= 0.05, f"{key}: max weight fraction {wmax}"
# Accuracy anchor: at 3.0/3.5 sigma the IS estimate must agree with
# the same-run brute-force estimate within 3 combined standard errors.
for key in ("s30", "s35"):
    p_is, se_is = reg[f"p_is_{key}"], reg[f"se_is_{key}"]
    p_bf, se_bf = reg[f"p_bf_{key}"], reg[f"se_bf_{key}"]
    se = math.hypot(se_is, se_bf)
    pull = abs(p_is - p_bf) / se
    assert pull <= 3.0, \
        f"{key}: IS {p_is:.4g} vs brute force {p_bf:.4g} is {pull:.1f} SE apart"
    print(f"ok: {key} IS agrees with brute force ({pull:.2f} SE)")
# Efficiency: at >= 4 sigma the brute-force-equivalent sample count
# (plain MC at the relative error IS achieved) must be >= 50x the
# samples IS actually spent.
for key in ("s40", "s45"):
    ratio = reg[f"bf_equiv_ratio_{key}"]
    assert ratio >= 50.0, f"{key}: IS only {ratio:.1f}x cheaper than MC"
    print(f"ok: {key} IS {ratio:.0f}x cheaper than equal-error brute force")
EOF
  else
    echo "python3 unavailable; cannot run the yield accuracy asserts"
    exit 1
  fi
  echo "check.sh: yield gate green"
  exit 0
fi

cmake -B "$BUILD_DIR" -S . "${CMAKE_FLAGS[@]}"
cmake --build "$BUILD_DIR" -j"$JOBS"
ctest --test-dir "$BUILD_DIR" --output-on-failure -j"$JOBS"

if [ "$SANITIZE" = 1 ]; then
  echo "== fault-injection smoke test (all faults armed, ASan+UBSan) =="
  LVF2_FAULTS="all;seed=3" \
    "$BUILD_DIR/tests/lvf2_tests" \
    --gtest_filter='FaultMatrixTest.AllFaultsAtOnceStillSurvive' >/dev/null
  echo "ok: armed pipeline survived under sanitizers"
fi

echo "== observability smoke test =="
SMOKE_DIR="$(mktemp -d)"
trap 'rm -rf "$SMOKE_DIR"' EXIT

LVF2_TRACE="$SMOKE_DIR/trace.json" \
LVF2_METRICS="$SMOKE_DIR/metrics.json" \
LVF2_METRICS_SUMMARY=1 \
LVF2_LOG=info \
LVF2_BENCH_JSON="$SMOKE_DIR" \
LVF2_MANIFEST="$SMOKE_DIR/manifest.json" \
  "$BUILD_DIR/bench/bench_table1_scenarios" --samples 4000 --seed 2024 \
  >/dev/null

for f in trace.json metrics.json BENCH_table1_scenarios.json manifest.json; do
  [ -s "$SMOKE_DIR/$f" ] || { echo "FAIL: $f was not written"; exit 1; }
done

if command -v python3 >/dev/null; then
  python3 - "$SMOKE_DIR" <<'EOF'
import json, sys, os
d = sys.argv[1]
trace = json.load(open(os.path.join(d, "trace.json")))
assert isinstance(trace["traceEvents"], list) and trace["traceEvents"], \
    "trace has no events"
metrics = json.load(open(os.path.join(d, "metrics.json")))
for key in ("mc.samples", "em.iterations", "em.nonconverged"):
    assert key in metrics["counters"], f"metrics missing {key}"
assert metrics["counters"]["mc.samples"] > 0
bench = json.load(open(os.path.join(d, "BENCH_table1_scenarios.json")))
assert bench["wall_s"] > 0 and "registry" in bench
manifest = json.load(open(os.path.join(d, "manifest.json")))
assert manifest["schema_version"] == 1 and len(manifest["arcs"]) == 5, \
    "manifest missing arc rows"
assert manifest["stages"], "manifest has no stage rollups"
print(f"ok: {len(trace['traceEvents'])} trace events, "
      f"mc.samples={metrics['counters']['mc.samples']}, "
      f"{len(manifest['arcs'])} manifest arcs, "
      f"bench wall={bench['wall_s']:.2f}s")
EOF
else
  echo "python3 unavailable; skipped JSON validation (files exist and are non-empty)"
fi

echo "== QoR regression gate =="
GOLDEN=scripts/golden/qor_manifest.json
REPORT="$BUILD_DIR/tools/lvf2_report"
# The golden manifest is recorded from — and reproduced by — the
# scalar dispatch tier at ZERO tolerance: LVF2_SIMD=scalar loops the
# per-sample stats:: functions and is the bitwise reference path. The
# ambient-tier smoke manifest above (avx2 where available) is
# held to the toleranced diff instead: the vector kernels are a few
# ULP off per call, which EM iteration counts amplify into small QoR
# shifts that rtol absorbs and a genuine accuracy bug does not.
LVF2_SIMD=scalar LVF2_MANIFEST="$SMOKE_DIR/manifest_scalar.json" \
  "$BUILD_DIR/bench/bench_table1_scenarios" --samples 4000 --seed 2024 \
  >/dev/null
# The second scalar-tier golden: the 4-bit adder carry-chain endpoint
# row. Its numbers depend on every Norm2/LVF2 fit_weighted refit along
# the path, not only on the five raw-sample fits of the table-1 run.
PATH_GOLDEN=scripts/golden/path_manifest.json
LVF2_SIMD=scalar LVF2_MANIFEST="$SMOKE_DIR/path_scalar.json" \
  "$BUILD_DIR/examples/ssta_path" 4 >/dev/null
# The same path on the ambient tier, held to the SIMD tolerance.
LVF2_MANIFEST="$SMOKE_DIR/path.json" \
  "$BUILD_DIR/examples/ssta_path" 4 >/dev/null
if [ "$UPDATE_GOLDEN" = 1 ]; then
  mkdir -p scripts/golden
  "$REPORT" canon "$SMOKE_DIR/manifest_scalar.json" > "$GOLDEN"
  "$REPORT" canon "$SMOKE_DIR/path_scalar.json" > "$PATH_GOLDEN"
  echo "re-recorded $GOLDEN and $PATH_GOLDEN from the scalar-tier runs"
elif [ -f "$GOLDEN" ]; then
  "$REPORT" diff "$PATH_GOLDEN" "$SMOKE_DIR/path_scalar.json" \
      --rtol 0 --atol 0 \
    || { echo "FAIL: the scalar tier no longer reproduces $PATH_GOLDEN" \
              "bitwise (rerun with --update-golden only if the scalar" \
              "numerics changed intentionally)"; exit 1; }
  "$REPORT" diff "$GOLDEN" "$SMOKE_DIR/manifest_scalar.json" \
      --rtol 0 --atol 0 \
    || { echo "FAIL: the scalar tier no longer reproduces $GOLDEN" \
              "bitwise (rerun with --update-golden only if the scalar" \
              "numerics changed intentionally)"; exit 1; }
  # Same numbers is not enough: the canonical text must match the
  # goldens byte for byte, so a change in how a manifest renders (key
  # order, number format) fails here too.
  for pair in "manifest_scalar.json:$GOLDEN" "path_scalar.json:$PATH_GOLDEN"; do
    "$REPORT" canon "$SMOKE_DIR/${pair%%:*}" | cmp -s - "${pair#*:}" \
      || { echo "FAIL: canonical ${pair%%:*} differs from ${pair#*:}" \
                "byte for byte"; exit 1; }
  done
  "$REPORT" diff "$GOLDEN" "$SMOKE_DIR/manifest.json" \
      --rtol 0.35 --atol 1e-6 \
    || { echo "FAIL: vector-tier QoR drifted vs $GOLDEN beyond the" \
              "SIMD tolerance (accuracy regression in the batch" \
              "kernels)"; exit 1; }
  "$REPORT" diff "$PATH_GOLDEN" "$SMOKE_DIR/path.json" \
      --rtol 0.35 --atol 1e-6 \
    || { echo "FAIL: vector-tier path QoR drifted vs $PATH_GOLDEN" \
              "beyond the SIMD tolerance"; exit 1; }
else
  echo "WARN: $GOLDEN missing; run scripts/check.sh --update-golden"
fi

echo "== Table 1 seed-sweep gate =="
# One seed's Table 1 ordering is partly luck, so the scalar tier also
# runs seeds 1-30 (~4 s): no row may lose to the best baseline at more
# seeds, and LVF2 may lead every row at no fewer seeds, than the
# committed sweep.
SWEEP_GOLDEN=scripts/golden/table1_sweep.json
mkdir -p "$SMOKE_DIR/sweep"
LVF2_SIMD=scalar LVF2_BENCH_JSON="$SMOKE_DIR/sweep" \
  "$BUILD_DIR/bench/bench_table1_scenarios" --seeds 1-30
if command -v python3 >/dev/null; then
  python3 - "$SMOKE_DIR/sweep/BENCH_table1_scenarios.json" "$SWEEP_GOLDEN" \
    "$UPDATE_GOLDEN" <<'EOF'
import json, sys
run = json.load(open(sys.argv[1]))["metrics"]
sweep = {
    "seeds": "1-%d" % run["seeds"],
    "samples": int(run["samples_per_scenario"]),
    "rows": {k[len("lost."):]: {"lost": int(v),
                                "geomean": round(run["geomean." + k[5:]], 3)}
             for k, v in run.items() if k.startswith("lost.")},
    "lead_every_row": int(run["lead_every_row"]),
}
if sys.argv[3] == "1":
    with open(sys.argv[2], "w") as f:
        json.dump(sweep, f, indent=2)
        f.write("\n")
    print(f"re-recorded {sys.argv[2]}")
    sys.exit(0)
golden = json.load(open(sys.argv[2]))
assert sweep["seeds"] == golden["seeds"] and \
    sweep["samples"] == golden["samples"], "sweep setup differs from golden"
bad = [f"{row}: lost at {sweep['rows'][row]['lost']} seeds > {g['lost']}"
       for row, g in golden["rows"].items()
       if sweep["rows"][row]["lost"] > g["lost"]]
if sweep["lead_every_row"] < golden["lead_every_row"]:
    bad.append(f"LVF2 leads every row at {sweep['lead_every_row']} seeds "
               f"< {golden['lead_every_row']}")
assert not bad, "Table 1 sweep regressed vs golden: " + "; ".join(bad)
print(f"ok: Table 1 sweep no worse than {sys.argv[2]}")
EOF
else
  echo "python3 unavailable; skipped the Table 1 sweep comparison"
fi

echo "== thread-count determinism gate =="
# The same fixed-seed pipeline at 1 thread and at 4 threads must
# produce identical manifests (zero tolerance): parallelism must
# never change a number, only the wall clock. Per-task RNG seed
# derivation plus key-sorted manifest serialization is what makes
# this hold — see DESIGN.md decision 16.
LVF2_THREADS=1 LVF2_MANIFEST="$SMOKE_DIR/manifest_t1.json" \
  "$BUILD_DIR/bench/bench_table1_scenarios" --samples 4000 --seed 2024 \
  >/dev/null
LVF2_THREADS=4 LVF2_MANIFEST="$SMOKE_DIR/manifest_t4.json" \
  "$BUILD_DIR/bench/bench_table1_scenarios" --samples 4000 --seed 2024 \
  >/dev/null
"$REPORT" diff "$SMOKE_DIR/manifest_t1.json" "$SMOKE_DIR/manifest_t4.json" \
    --rtol 0 --atol 0 \
  || { echo "FAIL: 1-thread and 4-thread runs diverged (parallelism" \
            "changed a result; see DESIGN.md decision 16)"; exit 1; }
echo "ok: 1-thread and 4-thread manifests are identical"

echo "check.sh: all green"
