#!/usr/bin/env bash
# One-command verification gate across the whole check matrix:
#   1. default preset (warnings promoted to errors): build + full suite +
#      the `lint`-labelled project-rule lint over the tree + the `audit`
#      label (imp_audit: static lock-order cycles, wait/blocking-under-lock,
#      module layering, fwd-declarable includes — plus its seeded
#      self-tests) + the `library` label (out-of-core LigandStore format,
#      corruption resilience, and the InMemory/Mmap fingerprint-equality
#      gate) as its own lane so a store regression is named in the output,
#      not buried in the suite; then the SIMD audit (scripts/simd_audit.sh:
#      every `#pragma omp simd` loop under src/ must vectorize under the
#      default preset's flags, per-file options included, and the GEMM's
#      ISA-variant object must hold no fused multiply-add);
#   2. asan preset (Address+LeakSanitizer with IMPECCABLE_CHECKS on — the
#      RNG-ownership auditor and IMP_DCHECK bounds checks run live): full
#      suite + the `library` label again (the mmap read path and spill
#      files are exactly where a lifetime bug would hide);
#   3. ubsan preset (-fsanitize=undefined, errors fatal): full suite;
#   4. checks preset (IMPECCABLE_CHECKS globally, no sanitizer): full suite
#      with the lockdep runtime live in every library lock — the rank table
#      in common/lockdep.hpp is enforced on every acquisition the suite
#      drives — plus the audit label again under that configuration;
#   5. tsan preset: one lane, `tsan-concurrency`, over every
#      concurrency-sensitive label — obs (recorder/metrics), graph (stage
#      graph + campaign runs), serve (inference-server worker/submitter
#      paths and the concurrent SurrogateModel::predict_batch contract),
#      multi (shared-backend multi-target campaigns), raptor (overlay
#      bulking and fan-out on LocalBackend pool threads), library (ligand
#      featurization over compute pools of 1, 2 and 8 threads, nested too),
#      pool (the work-stealing pool itself: exec_engine_test) and ml (the
#      GEMM kernel over 2- and 8-thread pools and the per-image
#      predict_batch fan-out: gemm_test, ml_test);
#   6. native preset (-march=native Release): the `dock`-, `ml`- and
#      `chem`-labelled suites — the batched SIMD scorer's bitwise-equivalence
#      gate, the GEMM pinned to gemm_naive on every ISA variant, the
#      surrogate's pinned score bits and the pinned layout_2d/embed_3d
#      digests must hold under the widest vectorization the host supports,
#      not just the portable default codegen;
#   7. benchmark self-test (perfbench/run.py --self-test): builds the
#      repository benchmark against the current src/ and runs every
#      workload against its real and a deliberately wrong reference, so an
#      API change that breaks the benchmark's build or its ok_frac gates
#      fails here.
#
# Usage: scripts/check.sh [-j N] [-q]
#   -q  quick: default-preset build, tests, lint, audit, library gate and
#       SIMD audit only (skip sanitizers, the native lane and the benchmark
#       self-test)
set -euo pipefail
cd "$(dirname "$0")/.."

JOBS=$(nproc 2>/dev/null || echo 4)
QUICK=0
while getopts "j:q" opt; do
  case $opt in
    j) JOBS=$OPTARG ;;
    q) QUICK=1 ;;
    *) echo "usage: $0 [-j N] [-q]" >&2; exit 2 ;;
  esac
done

echo "== configure + build (default preset, -Werror) =="
cmake --preset default -DIMPECCABLE_WERROR=ON
cmake --build --preset default -j "$JOBS"

echo "== full test suite (default preset) =="
ctest --preset default -j "$JOBS"

echo "== project lint (lint label) =="
ctest --preset lint -j "$JOBS"

echo "== concurrency audit (audit label: imp_audit + seeded self-tests) =="
ctest --preset audit -j "$JOBS"

echo "== out-of-core library gate (library label) =="
ctest --preset library -j "$JOBS"

echo "== SIMD audit (every omp simd loop vectorizes; no FMA in ISA variants) =="
scripts/simd_audit.sh build

if [ "$QUICK" -eq 1 ]; then
  echo "== quick checks passed (sanitizer lanes skipped) =="
  exit 0
fi

echo "== configure + build (asan preset: ASan+LSan, IMPECCABLE_CHECKS) =="
cmake --preset asan -DIMPECCABLE_WERROR=ON
cmake --build --preset asan -j "$JOBS"

echo "== asan: full test suite =="
ctest --preset asan -j "$JOBS"

echo "== asan: out-of-core library gate (library label) =="
ctest --preset asan-library -j "$JOBS"

echo "== configure + build (ubsan preset, -fno-sanitize-recover) =="
cmake --preset ubsan -DIMPECCABLE_WERROR=ON
cmake --build --preset ubsan -j "$JOBS"

echo "== ubsan: full test suite =="
ctest --preset ubsan -j "$JOBS"

echo "== configure + build (checks preset: lockdep live in every lock) =="
cmake --preset checks -DIMPECCABLE_WERROR=ON
cmake --build --preset checks -j "$JOBS"

echo "== checks: full test suite (runtime lock-rank enforcement) =="
ctest --preset checks -j "$JOBS"

echo "== checks: concurrency audit (audit label) =="
ctest --preset checks-audit -j "$JOBS"

echo "== configure + build (tsan preset) =="
cmake --preset tsan
cmake --build --preset tsan -j "$JOBS"

echo "== tsan: concurrency lane (obs, graph, serve, multi, raptor, library, pool, ml labels) =="
ctest --preset tsan-concurrency -j "$JOBS"

echo "== configure + build (native preset: -march=native Release) =="
cmake --preset native -DIMPECCABLE_WERROR=ON
cmake --build --preset native -j "$JOBS"

echo "== native: dock-, ml- and chem-labeled tests (bitwise kernel gates) =="
ctest --preset native-kernels -j "$JOBS"

echo "== benchmark self-test (perfbench: build + ok_frac gates) =="
python3 perfbench/run.py --self-test

echo "== all checks passed =="
