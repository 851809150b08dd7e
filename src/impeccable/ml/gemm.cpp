#include "impeccable/ml/gemm.hpp"

#include <algorithm>
#include <cstdint>
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

/// B's row k and column j, as plain gemm stores it: row-major (K×N), row
/// stride ld. Its columns are one contiguous run.
struct StridedRows {
  const float* b;
  std::size_t ld;
  const float* row(int k) const { return b + static_cast<std::size_t>(k) * ld; }
  StridedRows from(int k0) const { return {row(k0), ld}; }
  std::size_t col(int j) const { return static_cast<std::size_t>(j); }
  int run(int N) const { return N; }
};

/// B's row k = ci·9 + di·3 + dj and column j = i·w + jj of a 3x3
/// convolution's column matrix — what im2col would have written — read
/// straight from the zero-bordered (h+2)×(w+2) image. off[k] =
/// ci·(h+2)·(w+2) + di·(w+2) + dj is the tap's offset and pixel (i, jj)
/// sits at column i·(w+2) + jj past it, so B's columns come in runs of w
/// (one per output row) with a two-pixel gap between runs.
struct TapRows {
  const float* b;
  const std::size_t* off;
  int w;
  const float* row(int k) const { return b + off[k]; }
  TapRows from(int k0) const { return {b, off + k0, w}; }
  std::size_t col(int j) const {
    return static_cast<std::size_t>(j) + 2 * static_cast<std::size_t>(j / w);
  }
  int run(int) const { return w; }
};

/// The NN-case operands of one call, after transposed operands were packed:
/// A is (M×K, lda) row-major; B's rows and columns come from `BRows`.
template <class BRows>
struct NnArgs {
  int N, K;
  float alpha;
  const float* A;
  int lda;
  BRows B;
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
/// the staged alpha·A panel is x + r·kPanel; bp yields the panel's B rows,
/// whose columns for the tile's two vectors start at jb0 and jb1; c0..c3
/// are the C rows at the tile's first column.
template <int kLanes, class BRows>
[[gnu::always_inline]] inline void tile(const float* x, int kn,
                                        const BRows& bp, std::size_t jb0,
                                        std::size_t jb1, float* c0, float* c1,
                                        float* c2, float* c3) {
  using V = typename Lanes<kLanes>::type;
  float* const c[kTileRows] = {c0, c1, c2, c3};
  V t[2 * kTileRows];
#pragma GCC unroll 4
  for (int r = 0; r < kTileRows; ++r) {
    std::memcpy(&t[2 * r], c[r], sizeof(V));
    std::memcpy(&t[2 * r + 1], c[r] + kLanes, sizeof(V));
  }
  for (int k = 0; k < kn; ++k) {
    const float* b = bp.row(k);
    V b0, b1;
    std::memcpy(&b0, b + jb0, sizeof(V));
    std::memcpy(&b1, b + jb1, sizeof(V));
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

/// Register tiles of 2·kLanes columns over C columns [j, j1) while whole
/// ones fit; returns the first column left over.
template <int kLanes, class BRows>
[[gnu::always_inline]] inline int tiles(const float* x, int kn,
                                        const BRows& bp,
                                        float* const c[kTileRows], int j,
                                        int j1) {
  for (; j + 2 * kLanes <= j1; j += 2 * kLanes)
    tile<kLanes>(x, kn, bp, bp.col(j), bp.col(j + kLanes), c[0] + j,
                 c[1] + j, c[2] + j, c[3] + j);
  return j;
}

/// C columns [j, j1) of a kTileRows-row block over one K panel: the
/// variant's widest register tiles first, then each narrower one, then
/// scalar columns. A vector must not cross from one run of B's columns into
/// the next: `one_run` says [j, j1) lies inside one run; otherwise the range
/// starts at a run boundary and a width is used only if it divides `run`.
template <int kLanes, class BRows>
[[gnu::always_inline]] inline void columns(const float* x, int kn,
                                           const BRows& bp, int run,
                                           bool one_run,
                                           float* const c[kTileRows], int j,
                                           int j1) {
  const auto fits = [&](int lanes) { return one_run || run % lanes == 0; };
  if (fits(kLanes)) j = tiles<kLanes>(x, kn, bp, c, j, j1);
  if constexpr (kLanes > 8)
    if (fits(8)) j = tiles<8>(x, kn, bp, c, j, j1);
  if constexpr (kLanes > 4)
    if (fits(4)) j = tiles<4>(x, kn, bp, c, j, j1);
  // Leftover columns: 4 rows of A share each B element.
  for (; j < j1; ++j) {
    const std::size_t jb = bp.col(j);
    for (int k = 0; k < kn; ++k) {
      const float bv = bp.row(k)[jb];
      for (int r = 0; r < kTileRows; ++r) c[r][j] += x[r * kPanel + k] * bv;
    }
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
/// into each ISA variant below, whose register width is kLanes floats, for
/// each way of addressing B.
template <int kLanes, class BRows>
[[gnu::always_inline]] inline void gemm_rows_nn(const NnArgs<BRows>& g,
                                                std::size_t i0,
                                                std::size_t i1) {
  const int N = g.N, K = g.K, lda = g.lda, ldc = g.ldc;
  const float alpha = g.alpha, beta = g.beta;
  const float* const A = g.A;
  float* const C = g.C;
  // B's columns come in runs of `run`. When every run is a multiple of four
  // columns, vectors of a width dividing it never cross a run, so one
  // column range covers all of C; otherwise each run is a range of its own.
  const int run = g.B.run(N);
  const int span = run % 4 == 0 ? N : run;
  for (std::size_t i = i0; i < i1; ++i)
    scale_row(C + i * static_cast<std::size_t>(ldc), N, beta);
  alignas(64) float x[kTileRows * kPanel];
  for (int k0 = 0; k0 < K; k0 += kPanel) {
    const int k1 = std::min(K, k0 + kPanel), kn = k1 - k0;
    const BRows bp = g.B.from(k0);
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
      // per k.
      for (int j0 = 0; j0 < N; j0 += span)
        columns<kLanes>(x, kn, bp, run, span <= run, c, j0, j0 + span);
    }
    // Leftover rows, one run of B's columns at a time.
    for (; i < i1; ++i) {
      const float* a = A + i * static_cast<std::size_t>(lda) + k0;
      float* const ci = C + i * static_cast<std::size_t>(ldc);
      for (int j0 = 0; j0 < N; j0 += run) {
        float* __restrict c = ci + j0;
        const int n = std::min(run, N - j0);
        for (int k = 0; k < kn; ++k) {
          const float xk = alpha * a[k];
          const float* __restrict b = bp.row(k) + bp.col(j0);
#pragma omp simd
          for (int j = 0; j < n; ++j) c[j] += xk * b[j];
        }
      }
    }
  }
}

// The ISA variants of the tile, one per way of addressing B. Target
// attributes rather than ifunc or target_clones: a plain function pointer
// resolved at run time is what the sanitizer builds handle. None of them
// enables FMA.
template <class BRows>
using RowsKernel = void (*)(const NnArgs<BRows>&, std::size_t, std::size_t);

template <class BRows>
void rows_baseline(const NnArgs<BRows>& g, std::size_t i0, std::size_t i1) {
  gemm_rows_nn<4>(g, i0, i1);
}

#if defined(__x86_64__)
template <class BRows>
[[gnu::target("avx2")]] void rows_avx2(const NnArgs<BRows>& g, std::size_t i0,
                                       std::size_t i1) {
  gemm_rows_nn<8>(g, i0, i1);
}

template <class BRows>
[[gnu::target("avx512f")]] void rows_avx512f(const NnArgs<BRows>& g,
                                             std::size_t i0, std::size_t i1) {
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

template <class BRows>
RowsKernel<BRows> rows_kernel(GemmIsa isa) {
  switch (isa) {
#if defined(__x86_64__)
    case GemmIsa::Avx512f:
      return rows_avx512f<BRows>;
    case GemmIsa::Avx2:
      return rows_avx2<BRows>;
#endif
    default:
      return rows_baseline<BRows>;
  }
}

void check_host_runs(GemmIsa isa, const char* who) {
  if (!host_runs(isa))
    throw std::invalid_argument(std::string(who) + ": host cannot run " +
                                gemm_isa_name(isa));
}

/// Count one product of 2·M·N·K flops into the global recorder.
void count_gemm(std::uint64_t M, std::uint64_t N, std::uint64_t K) {
  if (obs::Recorder* rec = obs::global()) {
    rec->metrics().counter("ml.gemm.calls").add(1);
    rec->metrics().counter("ml.gemm.flops").add(2ull * M * N * K);
  }
}

/// C rows [0, M) through `rows`, kRowBlock rows per parallel_for job.
template <class BRows>
void run_rows(RowsKernel<BRows> rows, const NnArgs<BRows>& args, int M) {
  const std::size_t blocks =
      (static_cast<std::size_t>(M) + kRowBlock - 1) / kRowBlock;
  common::parallel_for(0, blocks, [&](std::size_t blk) {
    const std::size_t i0 = blk * kRowBlock;
    rows(args, i0, std::min<std::size_t>(M, i0 + kRowBlock));
  });
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

void gemm_dispatch(RowsKernel<StridedRows> rows, Trans ta, Trans tb, int M,
                   int N, int K, float alpha, const float* A, int lda,
                   const float* B, int ldb, float beta, float* C, int ldc) {
  if (M < 0 || N < 0 || K < 0)
    throw std::invalid_argument("gemm: negative dimension");
  if (M == 0 || N == 0) return;
  count_gemm(M, N, K);

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
  const NnArgs<StridedRows> args{
      N, K, alpha, A, lda, {B, static_cast<std::size_t>(ldb)}, beta, C, ldc};
  if (K == 0) {
    // Pure beta scaling.
    rows(args, 0, static_cast<std::size_t>(M));
    return;
  }
  run_rows(rows, args, M);
}

/// Implicit-GEMM 3x3 convolution of one image (see conv3x3_gemm): pad it
/// once into this thread's scratch, tabulate each tap's offset into the
/// padded image, and run the tile over C = y (cout × h·w) with B's rows
/// addressed through the table (TapRows).
void conv3x3_dispatch(RowsKernel<TapRows> rows, int cout, int cin, int h,
                      int w, const float* weight, const float* x, float* y) {
  if (cout < 0 || cin < 0 || h < 0 || w < 0)
    throw std::invalid_argument("conv3x3_gemm: negative dimension");
  if (cout == 0 || h == 0 || w == 0 || cin == 0) return;
  const int kdim = 9 * cin;
  const std::size_t hw = static_cast<std::size_t>(h) * w;
  count_gemm(cout, hw, kdim);

  const std::size_t pw = static_cast<std::size_t>(w) + 2;
  const std::size_t pplane = (static_cast<std::size_t>(h) + 2) * pw;
  thread_local std::vector<float> pad_slot;
  thread_local std::vector<std::size_t> off_slot;
  Scratch pad_buf;
  float* pad = pad_buf.get(pad_slot, static_cast<std::size_t>(cin) * pplane);
  std::fill(pad, pad + static_cast<std::size_t>(cin) * pplane, 0.0f);
  for (int ci = 0; ci < cin; ++ci)
    for (int i = 0; i < h; ++i) {
      const float* __restrict src = x + ci * hw + static_cast<std::size_t>(i) * w;
      float* __restrict dst = pad + ci * pplane + (i + 1) * pw + 1;
#pragma omp simd
      for (int j = 0; j < w; ++j) dst[j] = src[j];
    }
  if (off_slot.size() < static_cast<std::size_t>(kdim)) off_slot.resize(kdim);
  for (int k = 0; k < kdim; ++k)
    off_slot[k] = (k / 9) * pplane + (k % 9 / 3) * pw + k % 3;

  const int n = static_cast<int>(hw);
  const NnArgs<TapRows> args{
      n, kdim, 1.0f, weight, kdim, {pad, off_slot.data(), w}, 1.0f, y, n};
  run_rows(rows, args, cout);
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
  static const RowsKernel<StridedRows> rows =
      rows_kernel<StridedRows>(gemm_isa());
  gemm_dispatch(rows, ta, tb, M, N, K, alpha, A, lda, B, ldb, beta, C, ldc);
}

void gemm_on(GemmIsa isa, Trans ta, Trans tb, int M, int N, int K,
             float alpha, const float* A, int lda, const float* B, int ldb,
             float beta, float* C, int ldc) {
  check_host_runs(isa, "gemm_on");
  gemm_dispatch(rows_kernel<StridedRows>(isa), ta, tb, M, N, K, alpha, A, lda,
                B, ldb, beta, C, ldc);
}

void conv3x3_gemm(int cout, int cin, int h, int w, const float* weight,
                  const float* x, float* y) {
  static const RowsKernel<TapRows> rows = rows_kernel<TapRows>(gemm_isa());
  conv3x3_dispatch(rows, cout, cin, h, w, weight, x, y);
}

void conv3x3_gemm_on(GemmIsa isa, int cout, int cin, int h, int w,
                     const float* weight, const float* x, float* y) {
  check_host_runs(isa, "conv3x3_gemm_on");
  conv3x3_dispatch(rows_kernel<TapRows>(isa), cout, cin, h, w, weight, x, y);
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
