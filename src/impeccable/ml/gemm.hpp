#pragma once
// Shared blocked/tiled SGEMM kernel — the one matrix multiply under every
// dense and convolutional layer of the ML1 surrogate and the 3D-AAE.
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
// Implicit-GEMM convolution: conv3x3_gemm runs the same tile with B
// addressed differently (a template parameter of the tile: row stride for
// gemm, tap offsets for the conv). Row k = ci·9 + di·3 + dj of a 3x3
// convolution's column matrix is the zero-bordered image shifted by the
// tap, so the kernel pads each image once and reads every tap straight from
// it through a per-tap offset table instead of unfolding the 9×-sized
// column matrix. A vector never straddles two image rows: widths that are a
// multiple of 4 run tiles across rows with the widest vector that divides
// the width, other widths run row by row with narrower tiles and then
// scalar columns.
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

/// One image of a 3x3 same-padding, stride-1 convolution as an implicit
/// GEMM: y (cout × h·w) += weight (cout × 9·cin, the (Cout, Cin, 3, 3)
/// layout) · the column matrix of x (cin × h × w), whose row
/// k = ci·9 + di·3 + dj holds x shifted by the tap (di - 1, dj - 1) with
/// zeros outside the image. Same order contract as gemm with alpha = beta =
/// 1: every output sees its prior value (the caller's bias), then
/// += w[k]·x_k for k ascending, bitwise equal to gemm_naive over an
/// explicit im2col. Counts 2·cout·h·w·9·cin into ml.gemm.flops.
void conv3x3_gemm(int cout, int cin, int h, int w, const float* weight,
                  const float* x, float* y);

/// conv3x3_gemm() on a given variant; throws std::invalid_argument if the
/// host cannot run it (tests and benches only).
void conv3x3_gemm_on(GemmIsa isa, int cout, int cin, int h, int w,
                     const float* weight, const float* x, float* y);

/// Naive triple-loop reference (tests and benches only).
void gemm_naive(Trans ta, Trans tb, int M, int N, int K, float alpha,
                const float* A, int lda, const float* B, int ldb, float beta,
                float* C, int ldc);

/// The one compute-pool registry lives in common (see thread_pool.hpp); code
/// installs a pool with common::ComputePoolScope. This alias stays only for
/// the benchmark harness (perfbench/), its one caller, until Benchmark v2.
using common::set_compute_pool;

}  // namespace impeccable::ml
