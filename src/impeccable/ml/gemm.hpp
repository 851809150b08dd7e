#pragma once
// Shared blocked/tiled SGEMM kernel — the one matrix multiply under every
// dense and (via im2col) convolutional layer of the ML1 surrogate and the
// 3D-AAE.
//
// Layout is row-major throughout. The kernel computes
//     C (M×N) = alpha * op(A) * op(B) + beta * C
// with op ∈ {identity, transpose}. Transposed operands are packed into a
// contiguous scratch panel once per call, then a 4-row × 8-column register-
// tile micro-kernel streams over cache-sized K panels (GemmTiling): the 32
// accumulators stay in registers for a whole panel, so C is loaded and
// stored once per panel. Leftover rows and columns run plain scalar loops.
// Row panels of C can be fanned out over a ThreadPool.
//
// Determinism contract: every C element sees beta scaling, then
// c += (alpha·a[k])·b[k][j] for k ascending, whatever tile, panel or thread
// it lands in — results are bit-identical with a serial run and with
// gemm_naive. The order also matches the naive bias-first ascending-k loops
// the layers used before this kernel existed, so trained weights are
// preserved across the rewrite.

#include "impeccable/common/thread_pool.hpp"

namespace impeccable::ml {

enum class Trans { No, Yes };

struct GemmTiling {
  int kc = 256;  ///< K panel height (keeps a B panel resident in L1/L2)
  int mc = 32;   ///< C rows per parallel task
};

/// Blocked SGEMM. `lda`/`ldb`/`ldc` are leading dimensions (row strides) of
/// the STORED matrices (A is M×K when ta==No, K×M when ta==Yes; likewise B).
/// `pool` enables row-panel parallelism; pass nullptr for serial.
void gemm(Trans ta, Trans tb, int M, int N, int K, float alpha, const float* A,
          int lda, const float* B, int ldb, float beta, float* C, int ldc,
          common::ThreadPool* pool = nullptr, const GemmTiling& tiling = {});

/// Naive triple-loop reference (tests and benches only).
void gemm_naive(Trans ta, Trans tb, int M, int N, int K, float alpha,
                const float* A, int lda, const float* B, int ldb, float beta,
                float* C, int ldc);

/// The process-wide compute pool the NN layers use for intra-layer
/// parallelism; the one registry lives in common (see thread_pool.hpp).
using common::compute_pool;
using common::set_compute_pool;

}  // namespace impeccable::ml
