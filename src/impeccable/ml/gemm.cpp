#include "impeccable/ml/gemm.hpp"

#include <algorithm>
#include <stdexcept>
#include <vector>

#include "impeccable/obs/recorder.hpp"

namespace impeccable::ml {

namespace {

/// Register-tile shape of the micro-kernel: kTileRows rows of C by
/// kTileCols columns, 32 accumulators held across a whole K panel.
constexpr int kTileRows = 4;
constexpr int kTileCols = 8;

/// C rows [i0, i1) += alpha * A·B over K panels; A is (M×K, lda) row-major,
/// B is (K×N, ldb) row-major. Every C element sees the same operations in
/// the same order whatever the row partition or tile it lands in — beta
/// scaling, then c += (alpha·a[k])·b[k][j] for k ascending — which is the
/// determinism contract and makes the result bitwise equal to gemm_naive.
void gemm_rows_nn(std::size_t i0, std::size_t i1, int N, int K, float alpha,
                  const float* A, int lda, const float* B, int ldb, float beta,
                  float* C, int ldc, int kc) {
  for (std::size_t i = i0; i < i1; ++i) {
    float* c = C + i * static_cast<std::size_t>(ldc);
    if (beta == 0.0f)
      std::fill(c, c + N, 0.0f);
    else if (beta != 1.0f)
      for (int j = 0; j < N; ++j) c[j] *= beta;
  }
  for (int k0 = 0; k0 < K; k0 += kc) {
    const int k1 = std::min(K, k0 + kc);
    std::size_t i = i0;
    for (; i + kTileRows <= i1; i += kTileRows) {
      const float* a0 = A + (i + 0) * static_cast<std::size_t>(lda);
      const float* a1 = A + (i + 1) * static_cast<std::size_t>(lda);
      const float* a2 = A + (i + 2) * static_cast<std::size_t>(lda);
      const float* a3 = A + (i + 3) * static_cast<std::size_t>(lda);
      float* c0 = C + (i + 0) * static_cast<std::size_t>(ldc);
      float* c1 = C + (i + 1) * static_cast<std::size_t>(ldc);
      float* c2 = C + (i + 2) * static_cast<std::size_t>(ldc);
      float* c3 = C + (i + 3) * static_cast<std::size_t>(ldc);
      int j = 0;
      // 4×8 register tile: C is loaded and stored once per K panel, not
      // once per k.
      for (; j + kTileCols <= N; j += kTileCols) {
        float t0[kTileCols], t1[kTileCols], t2[kTileCols], t3[kTileCols];
        std::copy(c0 + j, c0 + j + kTileCols, t0);
        std::copy(c1 + j, c1 + j + kTileCols, t1);
        std::copy(c2 + j, c2 + j + kTileCols, t2);
        std::copy(c3 + j, c3 + j + kTileCols, t3);
        for (int k = k0; k < k1; ++k) {
          const float x0 = alpha * a0[k];
          const float x1 = alpha * a1[k];
          const float x2 = alpha * a2[k];
          const float x3 = alpha * a3[k];
          const float* b = B + static_cast<std::size_t>(k) * ldb + j;
#pragma omp simd
          for (int jj = 0; jj < kTileCols; ++jj) {
            t0[jj] += x0 * b[jj];
            t1[jj] += x1 * b[jj];
            t2[jj] += x2 * b[jj];
            t3[jj] += x3 * b[jj];
          }
        }
        std::copy(t0, t0 + kTileCols, c0 + j);
        std::copy(t1, t1 + kTileCols, c1 + j);
        std::copy(t2, t2 + kTileCols, c2 + j);
        std::copy(t3, t3 + kTileCols, c3 + j);
      }
      // Leftover columns: 4 rows of A share each streamed row of B.
      if (j < N) {
        for (int k = k0; k < k1; ++k) {
          const float x0 = alpha * a0[k];
          const float x1 = alpha * a1[k];
          const float x2 = alpha * a2[k];
          const float x3 = alpha * a3[k];
          const float* b = B + static_cast<std::size_t>(k) * ldb;
          for (int jr = j; jr < N; ++jr) {
            const float bv = b[jr];
            c0[jr] += x0 * bv;
            c1[jr] += x1 * bv;
            c2[jr] += x2 * bv;
            c3[jr] += x3 * bv;
          }
        }
      }
    }
    // Leftover rows.
    for (; i < i1; ++i) {
      const float* a = A + i * static_cast<std::size_t>(lda);
      float* c = C + i * static_cast<std::size_t>(ldc);
      for (int k = k0; k < k1; ++k) {
        const float x = alpha * a[k];
        const float* b = B + static_cast<std::size_t>(k) * ldb;
        for (int j = 0; j < N; ++j) c[j] += x * b[j];
      }
    }
  }
}

/// Pack op(X) (an M×K logical matrix stored transposed as K×M with leading
/// dimension ld) into a contiguous M×K row-major buffer.
void pack_transposed(const float* X, int ld, int rows, int cols,
                     std::vector<float>& out) {
  // X is cols×rows stored; out(r, c) = X(c, r).
  out.resize(static_cast<std::size_t>(rows) * cols);
  for (int c = 0; c < cols; ++c) {
    const float* src = X + static_cast<std::size_t>(c) * ld;
    float* dst = out.data() + c;
    for (int r = 0; r < rows; ++r) dst[static_cast<std::size_t>(r) * cols] = src[r];
  }
}

}  // namespace

void gemm(Trans ta, Trans tb, int M, int N, int K, float alpha, const float* A,
          int lda, const float* B, int ldb, float beta, float* C, int ldc,
          common::ThreadPool* pool, const GemmTiling& tiling) {
  if (M < 0 || N < 0 || K < 0)
    throw std::invalid_argument("gemm: negative dimension");
  if (M == 0 || N == 0) return;

  if (obs::Recorder* rec = obs::global()) {
    rec->metrics().counter("ml.gemm.calls").add(1);
    rec->metrics().counter("ml.gemm.flops")
        .add(2ull * static_cast<std::uint64_t>(M) *
             static_cast<std::uint64_t>(N) * static_cast<std::uint64_t>(K));
  }

  // Normalize to the NN case by packing transposed operands once.
  std::vector<float> a_pack, b_pack;
  if (ta == Trans::Yes) {
    // Stored K×M (lda); pack to M×K.
    pack_transposed(A, lda, M, K, a_pack);
    A = a_pack.data();
    lda = K;
  }
  if (tb == Trans::Yes) {
    // Stored N×K (ldb); pack to K×N.
    pack_transposed(B, ldb, K, N, b_pack);
    B = b_pack.data();
    ldb = N;
  }
  if (K == 0) {
    // Pure beta scaling.
    gemm_rows_nn(0, static_cast<std::size_t>(M), N, 0, alpha, A, lda, B, ldb,
                 beta, C, ldc, 1);
    return;
  }

  const int kc = std::max(1, tiling.kc);
  const std::size_t mc = static_cast<std::size_t>(std::max(1, tiling.mc));
  const std::size_t blocks = (static_cast<std::size_t>(M) + mc - 1) / mc;
  auto run_block = [&](std::size_t blk) {
    const std::size_t i0 = blk * mc;
    const std::size_t i1 = std::min<std::size_t>(M, i0 + mc);
    gemm_rows_nn(i0, i1, N, K, alpha, A, lda, B, ldb, beta, C, ldc, kc);
  };
  if (pool && pool->size() > 1 && blocks > 1) {
    pool->parallel_for(0, blocks, run_block, 1);
  } else {
    for (std::size_t blk = 0; blk < blocks; ++blk) run_block(blk);
  }
}

void gemm_naive(Trans ta, Trans tb, int M, int N, int K, float alpha,
                const float* A, int lda, const float* B, int ldb, float beta,
                float* C, int ldc) {
  auto a_at = [&](int i, int k) {
    return ta == Trans::No ? A[static_cast<std::size_t>(i) * lda + k]
                           : A[static_cast<std::size_t>(k) * lda + i];
  };
  auto b_at = [&](int k, int j) {
    return tb == Trans::No ? B[static_cast<std::size_t>(k) * ldb + j]
                           : B[static_cast<std::size_t>(j) * ldb + k];
  };
  for (int i = 0; i < M; ++i) {
    for (int j = 0; j < N; ++j) {
      float acc = beta == 0.0f ? 0.0f : beta * C[static_cast<std::size_t>(i) * ldc + j];
      for (int k = 0; k < K; ++k) acc += alpha * a_at(i, k) * b_at(k, j);
      C[static_cast<std::size_t>(i) * ldc + j] = acc;
    }
  }
}

}  // namespace impeccable::ml
