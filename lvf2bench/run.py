#!/usr/bin/env python3
"""Build and run the LVF^2 benchmark (see README.md in this directory).

Usage, from the root of a source checkout:

  python3 lvf2bench/run.py --workload charlib-cold --seed 1 --seconds 20 --trace 0
  python3 lvf2bench/run.py --self-test
  python3 lvf2bench/run.py --compare A.json B.json

A run builds lvf2bench/ (CMake, into $CARGO_TARGET_DIR or .bench_build)
and runs one workload; the last line of stdout is the result object.
--self-test builds and runs the benchmark's own unit tests. --compare
prints the metric ratios of two run records (written under
<build>/results/), and refuses when their machine fingerprints differ.
"""

import argparse
import hashlib
import json
import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
BENCH_DIR = Path(__file__).resolve().parent

# Instrumentation and state the library arms from the environment at
# start-up. LVF2_CACHE alone would arm the result cache in a static
# initializer and turn charlib-cold warm; LVF2_PROFILE crashes on the
# AVX2 tier. The traced run uses only the benchmark's own spans.
REFUSED_ENV = (
    "LVF2_CACHE", "LVF2_MANIFEST", "LVF2_TRACE", "LVF2_METRICS",
    "LVF2_PROFILE", "LVF2_FAULTS", "LVF2_ALLOC_STATS",
    "LVF2_EXEC_TELEMETRY", "LVF2_ACCESS_LOG",
)
WORKLOADS = ("charlib-cold", "serve-warm", "path-ssta")
RUN_TIMEOUT_S = 170


def fail(message, code=1):
    print(f"lvf2bench: {message}", file=sys.stderr)
    sys.exit(code)


def build_root():
    target = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    return (ROOT / target).resolve()


def build(target):
    if not (ROOT / "src" / "CMakeLists.txt").is_file():
        fail(f"no LVF^2 sources under {ROOT / 'src'}")
    build_dir = build_root() / "lvf2bench"
    jobs = str(os.cpu_count() or 1)
    if not (build_dir / "CMakeCache.txt").is_file():
        configure = ["cmake", "-S", str(BENCH_DIR), "-B", str(build_dir),
                     "-DCMAKE_BUILD_TYPE=RelWithDebInfo"]
        if subprocess.run(configure, stdout=sys.stderr).returncode != 0:
            fail("cmake configure failed")
    step = ["cmake", "--build", str(build_dir), "-j", jobs, "--target", target]
    if subprocess.run(step, stdout=sys.stderr).returncode != 0:
        fail(f"building {target} failed")
    return build_dir / target


def revision():
    """The commit when this is a git checkout, else a digest of the sources."""
    if (ROOT / ".git").exists():
        try:
            head = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                                  capture_output=True, text=True)
            if head.returncode == 0:
                return head.stdout.strip()
        except OSError:
            pass
    digest = hashlib.sha256()
    for base in (ROOT / "src", BENCH_DIR):
        for path in sorted(p for p in base.rglob("*") if p.is_file()):
            digest.update(str(path.relative_to(ROOT)).encode())
            digest.update(path.read_bytes())
    return "src-" + digest.hexdigest()[:16]


def compare(a_path, b_path):
    a = json.loads(Path(a_path).read_text())
    b = json.loads(Path(b_path).read_text())
    if a["fingerprint"] != b["fingerprint"]:
        print("fingerprints differ; results are not comparable:")
        print("  A:", json.dumps(a["fingerprint"], sort_keys=True))
        print("  B:", json.dumps(b["fingerprint"], sort_keys=True))
        return 3
    if (a["workload"], a["trace"]) != (b["workload"], b["trace"]):
        print("records are of different workloads or trace modes")
        return 3
    print(f"{a['workload']} trace={a['trace']}  seeds {a['seed']} vs {b['seed']}")
    ma, mb = a["result"]["metrics"], b["result"]["metrics"]
    for name in ma:
        va, vb = ma[name]["value"], mb.get(name, {}).get("value")
        ratio = f"{vb / va:8.3f}x" if vb is not None and va else "       -"
        print(f"  {name:32s} {va:14.6g} {vb if vb is not None else '-':>14} "
              f"{ratio} {ma[name]['unit']}")
    return 0


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS)
    parser.add_argument("--seed", type=int)
    parser.add_argument("--seconds", type=float)
    parser.add_argument("--trace", choices=("0", "1"))
    parser.add_argument("--self-test", action="store_true")
    parser.add_argument("--compare", nargs=2, metavar="RECORD")
    args = parser.parse_args()

    if args.compare:
        return compare(*args.compare)
    for name in REFUSED_ENV:
        if os.environ.get(name):
            fail(f"refusing to run with {name} set", 2)
    if args.self_test:
        return subprocess.run([str(build("lvf2bench_selftest"))]).returncode
    if None in (args.workload, args.seed, args.seconds, args.trace):
        parser.error("--workload, --seed, --seconds and --trace are required")

    binary = build("lvf2bench")
    out = build_root()
    command = [str(binary), "--workload", args.workload,
               "--seed", str(args.seed), "--seconds", str(args.seconds),
               "--trace", args.trace, "--revision", revision(),
               "--run-dir", os.path.relpath(out / "run", ROOT),
               "--out-dir", str(out / "results")]
    try:
        proc = subprocess.run(command, cwd=ROOT, stdout=subprocess.PIPE,
                              text=True, timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        fail(f"{args.workload} did not finish within {RUN_TIMEOUT_S} s")
    sys.stdout.write(proc.stdout)
    sys.stdout.flush()
    return proc.returncode


if __name__ == "__main__":
    sys.exit(main())
