#pragma once
// Shared blocked/tiled SGEMM kernel — the one matrix multiply under every
// dense and (via im2col) convolutional layer of the ML1 surrogate and the
// 3D-AAE.
//
// Layout is row-major throughout. The kernel computes
//     C (M×N) = alpha * op(A) * op(B) + beta * C
// with op ∈ {identity, transpose}. Transposed operands are packed into
// reused per-thread scratch once per call — except a transposed B under
// fewer than 4 rows of C (Dense at one image), whose stored rows are read in
// place through 4×4 register transposes. Then a register-tile
// micro-kernel — 4 rows of C × 2 vectors — streams over 256-deep K panels:
// its eight vector accumulators stay in registers for a whole panel, so C is
// loaded and stored once per panel. Leftover columns run narrower tiles,
// then scalar loops; leftover rows run a one-row loop. 32-row panels of C
// fan out through common::parallel_for over the installed compute pool
// (nested inside a caller's pool job too).
//
// ISA dispatch: the one tile source is compiled three times on x86-64 —
// for the build's baseline (4×8 tiles), for AVX2 (4×16) and for AVX-512F
// (4×32) — and gemm() runs the widest variant the host supports, resolved
// once per process from __builtin_cpu_supports (other targets build the
// baseline variant only).
// No variant enables FMA and the file builds with -ffp-contract=off, so the
// wider vectors change how many C columns one instruction updates, never
// the IEEE multiply and add each element sees: the bits do not depend on
// the ISA.
//
// Determinism contract: every C element sees beta scaling, then
// c += (alpha·a[k])·b[k][j] for k ascending, whatever ISA variant, tile,
// panel or thread it lands in — results are bit-identical with a serial run
// and with gemm_naive. The order also matches the naive bias-first ascending-k loops
// the layers used before this kernel existed, so trained weights are
// preserved across the rewrite.

#include <vector>

#include "impeccable/common/thread_pool.hpp"

namespace impeccable::ml {

enum class Trans { No, Yes };

/// Blocked SGEMM. `lda`/`ldb`/`ldc` are leading dimensions (row strides) of
/// the STORED matrices (A is M×K when ta==No, K×M when ta==Yes; likewise B).
void gemm(Trans ta, Trans tb, int M, int N, int K, float alpha, const float* A,
          int lda, const float* B, int ldb, float beta, float* C, int ldc);

/// Instruction-set variant of the GEMM tile (see the header comment).
enum class GemmIsa { Baseline, Avx2, Avx512f };

/// "baseline", "avx2" or "avx512f".
const char* gemm_isa_name(GemmIsa isa);

/// The variant gemm() runs on this host.
GemmIsa gemm_isa();

/// Every variant this build carries that the host can run, baseline first
/// (tests and benches only).
std::vector<GemmIsa> gemm_isas();

/// gemm() on a given variant; throws std::invalid_argument if the host
/// cannot run it (tests and benches only).
void gemm_on(GemmIsa isa, Trans ta, Trans tb, int M, int N, int K,
             float alpha, const float* A, int lda, const float* B, int ldb,
             float beta, float* C, int ldc);

/// Naive triple-loop reference (tests and benches only).
void gemm_naive(Trans ta, Trans tb, int M, int N, int K, float alpha,
                const float* A, int lda, const float* B, int ldb, float beta,
                float* C, int ldc);

/// The one compute-pool registry lives in common (see thread_pool.hpp); code
/// installs a pool with common::ComputePoolScope. This alias stays only for
/// the benchmark harness (perfbench/), its one caller, until Benchmark v2.
using common::set_compute_pool;

}  // namespace impeccable::ml
