#!/usr/bin/env bash
# SIMD audit: every `#pragma omp simd` loop under src/ must vectorize.
#
# GCC treats `omp simd` as a request, not an order: a loop it cannot
# vectorize (a branch around a store, a speculated division under
# -ftrapping-math, a bool mask with no vector type) silently stays scalar.
# This script recompiles each src/ file that contains the pragma with the
# exact command the build used for it — taken from the build tree's
# compile_commands.json, so per-file options such as ligand.cpp's FP flags
# are included — plus -fopt-info-vec-all, and fails when the loop under any
# pragma reports "couldn't vectorize", or reports nothing at all.
#
# There is no allowlist: a pragma over a loop that cannot vectorize is
# removed, with a one-line comment saying why.
#
# Second check: a file that compiles ISA variants with [[gnu::target(...)]]
# (the GEMM tile, src/impeccable/ml/gemm.cpp) must emit no fused
# multiply-add. Its results are pinned bit for bit on every ISA the host
# runs; an FMA would round c + a·b once instead of twice. The file is
# recompiled to a scratch object with the build's command and disassembled;
# any vfmadd/vfmsub/vfnmadd/vfnmsub instruction fails the audit.
#
# Usage: scripts/simd_audit.sh [BUILD_DIR]   (default: build, the default
#        preset's tree; configure it first with `cmake --preset default`)
set -euo pipefail
cd "$(dirname "$0")/.."

BUILD_DIR=${1:-build}
DB="$BUILD_DIR/compile_commands.json"
if [ ! -f "$DB" ]; then
  echo "simd_audit: $DB not found; configure with 'cmake --preset default'" >&2
  exit 2
fi

# The vectorizer reports only on the translation unit being compiled, so a
# pragma in a header would escape the audit: keep lane loops in .cpp files.
headers=$(grep -rl --include='*.hpp' '#pragma omp simd' src || true)
if [ -n "$headers" ]; then
  echo "simd_audit: '#pragma omp simd' in headers (move the loop to a .cpp):" >&2
  echo "$headers" >&2
  exit 1
fi

mapfile -t files < <(grep -rl --include='*.cpp' '#pragma omp simd' src | sort)
if [ "${#files[@]}" -eq 0 ]; then
  echo "simd_audit: no '#pragma omp simd' under src/"
  exit 0
fi
# Files with per-ISA variants; passed after a "--" separator.
mapfile -t isa_files < <(grep -rl --include='*.cpp' 'gnu::target(' src | sort)

python3 - "$DB" "${files[@]}" -- "${isa_files[@]}" <<'PY'
import json
import os
import re
import shlex
import subprocess
import sys
import tempfile

db_path, rest = sys.argv[1], sys.argv[2:]
sep = rest.index("--")
files, isa_files = rest[:sep], rest[sep + 1:]
with open(db_path) as f:
    commands = {os.path.realpath(e["file"]): e for e in json.load(f)}


def build_args(entry, out, extra=()):
    """The build's compile command, retargeted to write `out`."""
    args = (entry["arguments"] if "arguments" in entry
            else shlex.split(entry["command"]))
    out_args, skip = [], False
    for a in args:
        if skip:
            skip = False
            continue
        if a in ("-o", "-MF", "-MT", "-MQ"):
            skip = True
            continue
        if a in ("-MD", "-MMD"):
            continue
        out_args.append(a)
    return out_args + ["-o", out, *extra]


def audit_command(entry):
    """The build's compile command, retargeted to write no object file and
    to print the vectorizer's report."""
    return (build_args(entry, os.devnull, ["-fopt-info-vec-all"]),
            entry["directory"])


def pragma_loops(path):
    """Line numbers of the `for` statement under each `omp simd` pragma."""
    with open(path) as f:
        lines = f.read().split("\n")
    loops = []
    for i, line in enumerate(lines):
        if line.strip() != "#pragma omp simd":
            continue
        j = i + 1
        while j < len(lines) and not lines[j].strip():
            j += 1
        if j == len(lines) or not lines[j].strip().startswith("for"):
            sys.exit(f"simd_audit: {path}:{i + 1}: pragma not followed by a for loop")
        loops.append(j + 1)
    return loops


failed = 0
audited = 0
for rel in files:
    path = os.path.realpath(rel)
    if path not in commands:
        print(f"FAIL {rel}: not in {db_path} (file not built by this tree?)")
        failed += 1
        continue
    cmd, cwd = audit_command(commands[path])
    proc = subprocess.run(cmd, cwd=cwd, capture_output=True, text=True)
    if proc.returncode != 0:
        print(f"FAIL {rel}: compile failed\n{proc.stderr}")
        failed += 1
        continue
    report = proc.stderr.splitlines()
    for line in pragma_loops(rel):
        audited += 1
        tag = re.compile(r"^(?:.*/)?" + re.escape(os.path.basename(rel)) +
                         rf":{line}:\d+: (optimized|missed): (.*)$")
        vectorized, missed, reasons = [], [], []
        for msg in report:
            m = tag.match(msg)
            if not m:
                continue
            text = m.group(2)
            if text.startswith("loop vectorized"):
                vectorized.append(text)
            elif text.startswith("couldn't vectorize loop"):
                missed.append(text)
            elif text.startswith("not vectorized"):
                reasons.append(text)
        if missed or not vectorized:
            failed += 1
            why = ("; ".join(sorted(set(missed + reasons))) if missed
                   else "no vectorizer report")
            print(f"FAIL {rel}:{line}: {why}")
        else:
            print(f"ok   {rel}:{line}: {vectorized[0]}")

fma = re.compile(r"\bvfn?m(add|sub)")
for rel in isa_files:
    path = os.path.realpath(rel)
    if path not in commands:
        print(f"FAIL {rel}: not in {db_path} (file not built by this tree?)")
        failed += 1
        continue
    with tempfile.TemporaryDirectory() as tmp:
        obj = os.path.join(tmp, "variant.o")
        entry = commands[path]
        proc = subprocess.run(build_args(entry, obj), cwd=entry["directory"],
                              capture_output=True, text=True)
        if proc.returncode != 0:
            print(f"FAIL {rel}: compile failed\n{proc.stderr}")
            failed += 1
            continue
        dis = subprocess.run(["objdump", "-d", "--no-show-raw-insn", obj],
                             capture_output=True, text=True, check=True).stdout
    fused = sorted({m.group(0) for m in fma.finditer(dis)})
    if fused:
        failed += 1
        print(f"FAIL {rel}: fused multiply-add in an ISA variant: {', '.join(fused)}")
    else:
        print(f"ok   {rel}: no fused multiply-add in its ISA variants")

print(f"simd_audit: {audited} omp simd loops audited, "
      f"{len(isa_files)} ISA-variant files checked for FMA, {failed} failing")
sys.exit(1 if failed else 0)
PY
