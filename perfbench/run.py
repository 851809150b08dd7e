#!/usr/bin/env python3
"""Build and run the repository benchmark.

    python3 perfbench/run.py --workload campaign|screen|serve --seed N \
        --seconds S --trace 0|1
    python3 perfbench/run.py --self-test

Run from the repository root. The first run configures and builds the
`perfbench` binary (the impeccable libraries from src/ plus perfbench/src/)
under $CARGO_TARGET_DIR, default `.bench_build/`; later runs only re-check
the build. The binary's stdout is passed through; its last line is the
result JSON {"correct", "attempted", "failed", "metrics"}. Any failure exits
non-zero without printing a result.

--self-test runs every workload once against its real reference (ok_frac
must be 1) and once against a deliberately wrong one (ok_frac must drop
below 1, and the result must say correct: false).
"""

import argparse
import hashlib
import json
import os
import shutil
import subprocess
import sys

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)
WORKLOADS = ("campaign", "screen", "serve")
RUN_TIMEOUT_S = 170
BUILD_JOBS = "2"


def log(msg):
    print(f"perfbench: {msg}", file=sys.stderr, flush=True)


def build_root():
    return os.path.join(ROOT, os.environ.get("CARGO_TARGET_DIR") or ".bench_build")


def build():
    """Configure once, then (re)build the binary; returns its path."""
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        raise RuntimeError("no impeccable sources (src/CMakeLists.txt) to build")
    bdir = os.path.join(build_root(), "perfbench")
    if not os.path.isfile(os.path.join(bdir, "CMakeCache.txt")):
        subprocess.run(["cmake", "-S", BENCH_DIR, "-B", bdir,
                        "-DCMAKE_BUILD_TYPE=RelWithDebInfo"],
                       check=True, stdout=sys.stderr, cwd=ROOT)
    subprocess.run(["cmake", "--build", bdir, "--target", "perfbench",
                    "-j", BUILD_JOBS], check=True, stdout=sys.stderr, cwd=ROOT)
    return os.path.join(bdir, "perfbench")


def source_revision():
    """git commit when the tree is a checkout, plus a digest of src/."""
    try:
        commit = subprocess.run(["git", "rev-parse", "--short=12", "HEAD"],
                                cwd=ROOT, capture_output=True, text=True,
                                timeout=10).stdout.strip() or "none"
    except (OSError, subprocess.SubprocessError):
        commit = "none"
    h = hashlib.sha256()
    for dirpath, dirnames, filenames in os.walk(os.path.join(ROOT, "src")):
        dirnames.sort()
        for name in sorted(filenames):
            path = os.path.join(dirpath, name)
            h.update(os.path.relpath(path, ROOT).encode())
            with open(path, "rb") as f:
                h.update(f.read())
    return f"{commit}+src:{h.hexdigest()[:12]}"


def load_spec():
    """BENCHMARK.json at the repository root, or None if absent."""
    path = os.path.join(ROOT, "BENCHMARK.json")
    if not os.path.isfile(path):
        return None
    with open(path) as f:
        return json.load(f)


def expected_metrics(trace):
    """Metric names BENCHMARK.json promises for this mode (None if absent)."""
    spec = load_spec()
    if spec is None:
        return None
    return {m["name"] for m in spec["per_layer" if trace else "end_to_end"]}


def run(binary, workload, seed, seconds, trace, corrupt=False):
    """Run one measurement; returns (stdout lines, parsed result)."""
    workdir = os.path.join(build_root(), "work", f"{workload}-{os.getpid()}")
    shutil.rmtree(workdir, ignore_errors=True)
    cmd = [binary, "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", "1" if trace else "0",
           "--workdir", workdir, "--commit", source_revision()]
    if corrupt:
        cmd.append("--corrupt-reference")
    try:
        proc = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True,
                              timeout=RUN_TIMEOUT_S)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    if proc.returncode != 0:
        raise RuntimeError(f"{workload} exited with code {proc.returncode}")
    lines = proc.stdout.strip().splitlines()
    if not lines:
        raise RuntimeError(f"{workload} printed no result")
    result = json.loads(lines[-1])
    if set(result) != {"correct", "attempted", "failed", "metrics"}:
        raise RuntimeError(f"malformed result keys {sorted(result)}")
    want = expected_metrics(trace)
    if want is not None and set(result["metrics"]) != want:
        raise RuntimeError("metrics differ from BENCHMARK.json: "
                           f"{sorted(set(result['metrics']) ^ want)}")
    return lines, result


def self_test(binary):
    ok = True
    for workload in WORKLOADS:
        for corrupt in (False, True):
            _, r = run(binary, workload, 1, 1, False, corrupt)
            frac = r["metrics"]["ok_frac"]["value"]
            good = (r["correct"] and frac == 1.0) if not corrupt else \
                (not r["correct"] and frac < 1.0)
            ok &= good
            print(f"self-test {workload:8s} reference={'wrong' if corrupt else 'real':5s} "
                  f"correct={r['correct']!s:5s} ok_frac={frac:.4f} "
                  f"{'PASS' if good else 'FAIL'}")
    return ok


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", choices=WORKLOADS)
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float,
                    help="measured seconds (default: run_seconds of BENCHMARK.json)")
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--self-test", action="store_true")
    args = ap.parse_args()
    if not args.self_test and not args.workload:
        ap.error("--workload is required")
    if args.seconds is None and not args.self_test:
        spec = load_spec()
        if spec is None:
            ap.error("--seconds is required without BENCHMARK.json")
        args.seconds = spec["run_seconds"]
    try:
        binary = build()
        if args.self_test:
            return 0 if self_test(binary) else 1
        lines, _ = run(binary, args.workload, args.seed, args.seconds,
                       args.trace == 1)
    except (OSError, RuntimeError, ValueError, subprocess.SubprocessError) as e:
        log(f"error: {e}")
        return 1
    print("\n".join(lines), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
