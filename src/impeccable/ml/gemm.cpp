#include "impeccable/ml/gemm.hpp"

#include <algorithm>
#include <cstring>
#include <stdexcept>
#include <string>
#include <vector>

#include "impeccable/common/thread_pool.hpp"
#include "impeccable/ml/scratch.hpp"
#include "impeccable/obs/recorder.hpp"

namespace impeccable::ml {

namespace {

/// Register-tile height of the micro-kernel: kTileRows rows of C share each
/// streamed row of B.
constexpr int kTileRows = 4;

/// K panel height: alpha·A for a 4-row tile and one panel is staged in a
/// kTileRows × kPanel stack buffer, and a B panel stays resident in L1/L2.
/// Panel edges only decide when C partial sums go through memory, never an
/// element's operation order.
constexpr int kPanel = 256;

/// C rows per parallel_for job.
constexpr std::size_t kRowBlock = 32;

/// The NN-case operands of one gemm call, after transposed operands were
/// packed: A is (M×K, lda) row-major, B is (K×N, ldb) row-major.
struct NnArgs {
  int N, K;
  float alpha;
  const float* A;
  int lda;
  const float* B;
  int ldb;
  float beta;
  float* C;
  int ldc;
};

/// A vector of kLanes floats (GCC/Clang vector extension): one SSE, AVX or
/// AVX-512 register in the variant built for that ISA, lowered piecewise
/// elsewhere. Lane l of `t += x * b` is the scalar c += x·b[l], one IEEE
/// multiply then one add (no FMA: none is enabled and contraction is off).
template <int kLanes>
struct Lanes {
  typedef float type __attribute__((vector_size(kLanes * sizeof(float))));
};

/// One kTileRows × (2·kLanes) register tile of C over one K panel of `kn`
/// steps: load the tile, add x[r][k]·b[k][jj] for k ascending, store it.
/// Its eight accumulators stay in registers for the whole panel. Row r of
/// the staged alpha·A panel is x + r·kPanel; b is the panel's first B row
/// at the tile's first column; c0..c3 are the C rows at that column.
template <int kLanes>
[[gnu::always_inline]] inline void tile(const float* x, int kn,
                                        const float* b, std::size_t ldb,
                                        float* c0, float* c1, float* c2,
                                        float* c3) {
  using V = typename Lanes<kLanes>::type;
  float* const c[kTileRows] = {c0, c1, c2, c3};
  V t[2 * kTileRows];
#pragma GCC unroll 4
  for (int r = 0; r < kTileRows; ++r) {
    std::memcpy(&t[2 * r], c[r], sizeof(V));
    std::memcpy(&t[2 * r + 1], c[r] + kLanes, sizeof(V));
  }
  for (int k = 0; k < kn; ++k) {
    V b0, b1;
    std::memcpy(&b0, b + static_cast<std::size_t>(k) * ldb, sizeof(V));
    std::memcpy(&b1, b + static_cast<std::size_t>(k) * ldb + kLanes, sizeof(V));
#pragma GCC unroll 4
    for (int r = 0; r < kTileRows; ++r) {
      const float xr = x[r * kPanel + k];
      t[2 * r] += xr * b0;
      t[2 * r + 1] += xr * b1;
    }
  }
#pragma GCC unroll 4
  for (int r = 0; r < kTileRows; ++r) {
    std::memcpy(c[r], &t[2 * r], sizeof(V));
    std::memcpy(c[r] + kLanes, &t[2 * r + 1], sizeof(V));
  }
}

/// The beta step of the order contract for one C row: beta == 0 clears it
/// (NaN or Inf in C do not survive), beta == 1 leaves it untouched.
inline void scale_row(float* c, int N, float beta) {
  if (beta == 0.0f)
    std::fill(c, c + N, 0.0f);
  else if (beta != 1.0f)
    for (int j = 0; j < N; ++j) c[j] *= beta;
}

/// C rows [i0, i1) += alpha * A·B over K panels. Every C element sees the
/// same operations in the same order whatever the row partition, panel or
/// tile width it lands in — beta scaling, then c += (alpha·a[k])·b[k][j] for
/// k ascending — which is the determinism contract and makes the result
/// bitwise equal to gemm_naive. This is the one tile source: always inlined
/// into each ISA variant below, whose register width is kLanes floats.
template <int kLanes>
[[gnu::always_inline]] inline void gemm_rows_nn(const NnArgs& g,
                                                std::size_t i0,
                                                std::size_t i1) {
  const int N = g.N, K = g.K, lda = g.lda, ldc = g.ldc;
  const std::size_t ldb = static_cast<std::size_t>(g.ldb);
  const float alpha = g.alpha, beta = g.beta;
  const float* const A = g.A;
  const float* const B = g.B;
  float* const C = g.C;
  for (std::size_t i = i0; i < i1; ++i)
    scale_row(C + i * static_cast<std::size_t>(ldc), N, beta);
  alignas(64) float x[kTileRows * kPanel];
  for (int k0 = 0; k0 < K; k0 += kPanel) {
    const int k1 = std::min(K, k0 + kPanel), kn = k1 - k0;
    const float* bp = B + static_cast<std::size_t>(k0) * ldb;
    std::size_t i = i0;
    for (; i + kTileRows <= i1; i += kTileRows) {
      // Stage alpha·a[k] once per panel: every column tile reuses it.
      float* c[kTileRows];
      for (int r = 0; r < kTileRows; ++r) {
        const float* a = A + (i + r) * static_cast<std::size_t>(lda) + k0;
        for (int k = 0; k < kn; ++k) x[r * kPanel + k] = alpha * a[k];
        c[r] = C + (i + r) * static_cast<std::size_t>(ldc);
      }
      // Register tiles: C is loaded and stored once per K panel, not once
      // per k. The variant's widest tiles first, then 8-column ones.
      int j = 0;
      for (; j + 2 * kLanes <= N; j += 2 * kLanes)
        tile<kLanes>(x, kn, bp + j, ldb, c[0] + j, c[1] + j, c[2] + j,
                     c[3] + j);
      if constexpr (kLanes > 4)
        for (; j + 8 <= N; j += 8)
          tile<4>(x, kn, bp + j, ldb, c[0] + j, c[1] + j, c[2] + j, c[3] + j);
      // Leftover columns: 4 rows of A share each streamed row of B.
      if (j < N) {
        for (int k = 0; k < kn; ++k) {
          const float* b = bp + static_cast<std::size_t>(k) * ldb;
          for (int jr = j; jr < N; ++jr) {
            const float bv = b[jr];
            for (int r = 0; r < kTileRows; ++r)
              c[r][jr] += x[r * kPanel + k] * bv;
          }
        }
      }
    }
    // Leftover rows.
    for (; i < i1; ++i) {
      const float* a = A + i * static_cast<std::size_t>(lda);
      float* __restrict c = C + i * static_cast<std::size_t>(ldc);
      for (int k = k0; k < k1; ++k) {
        const float xk = alpha * a[k];
        const float* __restrict b = B + static_cast<std::size_t>(k) * ldb;
#pragma omp simd
        for (int j = 0; j < N; ++j) c[j] += xk * b[j];
      }
    }
  }
}

// The ISA variants of the tile. Target attributes rather than ifunc or
// target_clones: a plain function pointer resolved at run time is what the
// sanitizer builds handle. None of them enables FMA.
using RowsKernel = void (*)(const NnArgs&, std::size_t, std::size_t);

void rows_baseline(const NnArgs& g, std::size_t i0, std::size_t i1) {
  gemm_rows_nn<4>(g, i0, i1);
}

#if defined(__x86_64__)
[[gnu::target("avx2")]] void rows_avx2(const NnArgs& g, std::size_t i0,
                                       std::size_t i1) {
  gemm_rows_nn<8>(g, i0, i1);
}

[[gnu::target("avx512f")]] void rows_avx512f(const NnArgs& g, std::size_t i0,
                                             std::size_t i1) {
  gemm_rows_nn<16>(g, i0, i1);
}
#endif

bool host_runs(GemmIsa isa) {
#if defined(__x86_64__)
  switch (isa) {
    case GemmIsa::Baseline:
      return true;
    case GemmIsa::Avx2:
      return __builtin_cpu_supports("avx2");
    case GemmIsa::Avx512f:
      return __builtin_cpu_supports("avx512f");
  }
  return false;
#else
  return isa == GemmIsa::Baseline;
#endif
}

RowsKernel rows_kernel(GemmIsa isa) {
  switch (isa) {
#if defined(__x86_64__)
    case GemmIsa::Avx512f:
      return rows_avx512f;
    case GemmIsa::Avx2:
      return rows_avx2;
#endif
    default:
      return rows_baseline;
  }
}

/// Pack op(X) (an M×K logical matrix stored transposed as K×M with leading
/// dimension ld) into a contiguous M×K row-major buffer.
void pack_transposed(const float* X, int ld, int rows, int cols, float* out) {
  // X is cols×rows stored; out(r, c) = X(c, r).
  for (int c = 0; c < cols; ++c) {
    const float* src = X + static_cast<std::size_t>(c) * ld;
    float* dst = out + c;
    for (int r = 0; r < rows; ++r) dst[static_cast<std::size_t>(r) * cols] = src[r];
  }
}

/// kBlocks·4 columns of one C row of an NT product, B's stored rows read in
/// place: c[j] += (alpha·a[k])·b[j][k] for k ascending. Each 4×4 block of B
/// (4 rows j, 4 steps k) is transposed in registers, so one vector holds
/// b[j..j+3][k] and lane l sees exactly the scalar multiply and add in k
/// order; the kBlocks accumulators are independent add chains.
template <int kBlocks>
[[gnu::always_inline]] inline void nt_columns(const float* a, float alpha,
                                              int K, const float* b,
                                              std::size_t ldb, float* c) {
  using V = Lanes<4>::type;
  V t[kBlocks];
  for (int q = 0; q < kBlocks; ++q) std::memcpy(&t[q], c + 4 * q, sizeof(V));
  int k = 0;
  for (; k + 4 <= K; k += 4) {
    const float x0 = alpha * a[k], x1 = alpha * a[k + 1],
                x2 = alpha * a[k + 2], x3 = alpha * a[k + 3];
#pragma GCC unroll 4
    for (int q = 0; q < kBlocks; ++q) {
      const float* r = b + 4 * q * ldb + k;
      V r0, r1, r2, r3;
      std::memcpy(&r0, r, sizeof(V));
      std::memcpy(&r1, r + ldb, sizeof(V));
      std::memcpy(&r2, r + 2 * ldb, sizeof(V));
      std::memcpy(&r3, r + 3 * ldb, sizeof(V));
      const V lo01 = __builtin_shufflevector(r0, r1, 0, 4, 1, 5);
      const V lo23 = __builtin_shufflevector(r2, r3, 0, 4, 1, 5);
      const V hi01 = __builtin_shufflevector(r0, r1, 2, 6, 3, 7);
      const V hi23 = __builtin_shufflevector(r2, r3, 2, 6, 3, 7);
      t[q] += x0 * __builtin_shufflevector(lo01, lo23, 0, 1, 4, 5);
      t[q] += x1 * __builtin_shufflevector(lo01, lo23, 2, 3, 6, 7);
      t[q] += x2 * __builtin_shufflevector(hi01, hi23, 0, 1, 4, 5);
      t[q] += x3 * __builtin_shufflevector(hi01, hi23, 2, 3, 6, 7);
    }
  }
  for (; k < K; ++k) {
    const float x = alpha * a[k];
    for (int q = 0; q < kBlocks; ++q) {
      const float* r = b + 4 * q * ldb + k;
      const V col = {r[0], r[ldb], r[2 * ldb], r[3 * ldb]};
      t[q] += x * col;
    }
  }
  for (int q = 0; q < kBlocks; ++q) std::memcpy(c + 4 * q, &t[q], sizeof(V));
}

/// C = alpha·A·Bᵀ + beta·C for M below one register tile, with B stored N×K
/// and read in place. Packing Bᵀ costs all N·K elements per call — for the
/// surrogate's dense layer at one image, several times the product itself.
/// Same order contract as gemm_rows_nn: beta scaling, then
/// c += (alpha·a[k])·b[j][k] for k ascending.
void gemm_small_nt(int M, int N, int K, float alpha, const float* A, int lda,
                   const float* B, int ldb, float beta, float* C, int ldc) {
  const std::size_t ldbz = static_cast<std::size_t>(ldb);
  for (int i = 0; i < M; ++i) {
    const float* a = A + static_cast<std::size_t>(i) * lda;
    float* c = C + static_cast<std::size_t>(i) * ldc;
    scale_row(c, N, beta);
    int j = 0;
    for (; j + 16 <= N; j += 16)
      nt_columns<4>(a, alpha, K, B + j * ldbz, ldbz, c + j);
    for (; j + 4 <= N; j += 4)
      nt_columns<1>(a, alpha, K, B + j * ldbz, ldbz, c + j);
    for (; j < N; ++j) {
      const float* b = B + j * ldbz;
      float cj = c[j];
      for (int k = 0; k < K; ++k) cj += (alpha * a[k]) * b[k];
      c[j] = cj;
    }
  }
}

void gemm_dispatch(RowsKernel rows, Trans ta, Trans tb, int M, int N, int K,
                   float alpha, const float* A, int lda, const float* B,
                   int ldb, float beta, float* C, int ldc) {
  if (M < 0 || N < 0 || K < 0)
    throw std::invalid_argument("gemm: negative dimension");
  if (M == 0 || N == 0) return;

  if (obs::Recorder* rec = obs::global()) {
    rec->metrics().counter("ml.gemm.calls").add(1);
    rec->metrics().counter("ml.gemm.flops")
        .add(2ull * static_cast<std::uint64_t>(M) *
             static_cast<std::uint64_t>(N) * static_cast<std::uint64_t>(K));
  }

  // Normalize to the NN case by packing transposed operands once, into this
  // thread's reused scratch: the pool's chunk runners only read it, and
  // while this thread waits in parallel_for it runs only this call's
  // chunks, which never pack.
  thread_local std::vector<float> a_slot, b_slot;
  Scratch a_pack, b_pack;
  if (ta == Trans::Yes) {
    // Stored K×M (lda); pack to M×K.
    float* p = a_pack.get(a_slot, static_cast<std::size_t>(M) * K);
    pack_transposed(A, lda, M, K, p);
    A = p;
    lda = K;
  }
  if (tb == Trans::Yes && M < kTileRows) {
    gemm_small_nt(M, N, K, alpha, A, lda, B, ldb, beta, C, ldc);
    return;
  }
  if (tb == Trans::Yes) {
    // Stored N×K (ldb); pack to K×N.
    float* p = b_pack.get(b_slot, static_cast<std::size_t>(K) * N);
    pack_transposed(B, ldb, K, N, p);
    B = p;
    ldb = N;
  }
  const NnArgs args{N, K, alpha, A, lda, B, ldb, beta, C, ldc};
  if (K == 0) {
    // Pure beta scaling.
    rows(args, 0, static_cast<std::size_t>(M));
    return;
  }

  const std::size_t blocks =
      (static_cast<std::size_t>(M) + kRowBlock - 1) / kRowBlock;
  common::parallel_for(0, blocks, [&](std::size_t blk) {
    const std::size_t i0 = blk * kRowBlock;
    rows(args, i0, std::min<std::size_t>(M, i0 + kRowBlock));
  });
}

}  // namespace

const char* gemm_isa_name(GemmIsa isa) {
  switch (isa) {
    case GemmIsa::Avx2:
      return "avx2";
    case GemmIsa::Avx512f:
      return "avx512f";
    case GemmIsa::Baseline:
      break;
  }
  return "baseline";
}

GemmIsa gemm_isa() {
  static const GemmIsa isa = [] {
    for (GemmIsa best : {GemmIsa::Avx512f, GemmIsa::Avx2})
      if (host_runs(best)) return best;
    return GemmIsa::Baseline;
  }();
  return isa;
}

std::vector<GemmIsa> gemm_isas() {
  std::vector<GemmIsa> out;
  for (GemmIsa isa : {GemmIsa::Baseline, GemmIsa::Avx2, GemmIsa::Avx512f})
    if (host_runs(isa)) out.push_back(isa);
  return out;
}

void gemm(Trans ta, Trans tb, int M, int N, int K, float alpha, const float* A,
          int lda, const float* B, int ldb, float beta, float* C, int ldc) {
  static const RowsKernel rows = rows_kernel(gemm_isa());
  gemm_dispatch(rows, ta, tb, M, N, K, alpha, A, lda, B, ldb, beta, C, ldc);
}

void gemm_on(GemmIsa isa, Trans ta, Trans tb, int M, int N, int K,
             float alpha, const float* A, int lda, const float* B, int ldb,
             float beta, float* C, int ldc) {
  if (!host_runs(isa))
    throw std::invalid_argument(std::string("gemm_on: host cannot run ") +
                                gemm_isa_name(isa));
  gemm_dispatch(rows_kernel(isa), ta, tb, M, N, K, alpha, A, lda, B, ldb, beta,
                C, ldc);
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
