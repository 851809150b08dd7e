// Blocked GEMM tests: exhaustive small-shape equivalence against the naive
// reference (all transpose combinations, non-multiple-of-tile shapes,
// alpha/beta variants), bitwise equality with the naive reference on every
// ISA variant the host runs and across pool sizes, Conv3x3's implicit GEMM
// bitwise against naive im2col + GEMM on every ISA variant, and a Dense
// layer gradient-check regression over the GEMM-backed forward/backward.

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstring>
#include <vector>

#include "impeccable/common/rng.hpp"
#include "impeccable/common/thread_pool.hpp"
#include "impeccable/ml/gemm.hpp"
#include "impeccable/ml/layers.hpp"

namespace ic = impeccable::common;
namespace ml = impeccable::ml;

namespace {

std::vector<float> random_matrix(std::size_t n, ic::Rng& rng) {
  std::vector<float> m(n);
  for (auto& v : m) v = static_cast<float>(rng.uniform(-1.0, 1.0));
  return m;
}

void expect_gemm_matches_naive(ml::Trans ta, ml::Trans tb, int M, int N, int K,
                               float alpha, float beta, ic::Rng& rng) {
  const auto A = random_matrix(static_cast<std::size_t>(M) * K, rng);
  const auto B = random_matrix(static_cast<std::size_t>(K) * N, rng);
  const auto C0 = random_matrix(static_cast<std::size_t>(M) * N, rng);
  const int lda = ta == ml::Trans::No ? K : M;
  const int ldb = tb == ml::Trans::No ? N : K;

  auto ref = C0;
  ml::gemm_naive(ta, tb, M, N, K, alpha, A.data(), lda, B.data(), ldb, beta,
                 ref.data(), N);
  auto got = C0;
  ml::gemm(ta, tb, M, N, K, alpha, A.data(), lda, B.data(), ldb, beta,
           got.data(), N);

  for (std::size_t i = 0; i < ref.size(); ++i)
    ASSERT_NEAR(ref[i], got[i], 1e-4f)
        << "M=" << M << " N=" << N << " K=" << K << " ta=" << (ta == ml::Trans::Yes)
        << " tb=" << (tb == ml::Trans::Yes) << " alpha=" << alpha
        << " beta=" << beta << " at " << i;
}

}  // namespace

TEST(Gemm, ExhaustiveSmallShapesMatchNaive) {
  ic::Rng rng(1234);
  // Every register-tile remainder path (leftover rows, narrower column
  // tiles, scalar columns); BitwiseEqualsNaive crosses the K-panel and
  // row-block edges.
  const int dims[] = {1, 2, 3, 4, 5, 8, 13, 17};
  for (int M : dims)
    for (int N : dims)
      for (int K : dims)
        for (auto ta : {ml::Trans::No, ml::Trans::Yes})
          for (auto tb : {ml::Trans::No, ml::Trans::Yes})
            expect_gemm_matches_naive(ta, tb, M, N, K, 1.0f, 0.0f, rng);
}

TEST(Gemm, AlphaBetaVariantsMatchNaive) {
  ic::Rng rng(99);
  // Shapes not multiples of any tile.
  for (float alpha : {1.0f, 0.5f, -2.0f})
    for (float beta : {0.0f, 1.0f, 0.25f})
      for (auto ta : {ml::Trans::No, ml::Trans::Yes})
        for (auto tb : {ml::Trans::No, ml::Trans::Yes})
          expect_gemm_matches_naive(ta, tb, 37, 19, 23, alpha, beta, rng);
}

TEST(Gemm, ZeroDimensionsAreHandled) {
  ic::Rng rng(5);
  // K == 0 degenerates to beta-scaling; M == 0 / N == 0 are no-ops.
  expect_gemm_matches_naive(ml::Trans::No, ml::Trans::No, 4, 3, 0, 1.0f, 0.5f,
                            rng);
  std::vector<float> c{1.0f, 2.0f};
  ml::gemm(ml::Trans::No, ml::Trans::No, 0, 2, 3, 1.0f, nullptr, 3, nullptr, 2,
           0.0f, c.data(), 2);
  EXPECT_EQ(c[0], 1.0f);
  EXPECT_EQ(c[1], 2.0f);
}

TEST(Gemm, ResultIsBitwiseInvariantAcrossPoolSizes) {
  ic::Rng rng(31);
  const int M = 67, N = 29, K = 41;  // two 32-row panels + remainder
  const auto A = random_matrix(static_cast<std::size_t>(M) * K, rng);
  const auto B = random_matrix(static_cast<std::size_t>(K) * N, rng);

  std::vector<float> serial(static_cast<std::size_t>(M) * N, 0.0f);
  ml::gemm(ml::Trans::No, ml::Trans::No, M, N, K, 1.0f, A.data(), K, B.data(),
           N, 0.0f, serial.data(), N);

  for (std::size_t threads : {std::size_t{2}, std::size_t{8}}) {
    ic::ThreadPool pool(threads);
    const ic::ComputePoolScope scope(&pool);
    std::vector<float> par(static_cast<std::size_t>(M) * N, 0.0f);
    ml::gemm(ml::Trans::No, ml::Trans::No, M, N, K, 1.0f, A.data(), K,
             B.data(), N, 0.0f, par.data(), N);
    ASSERT_EQ(std::memcmp(serial.data(), par.data(),
                          serial.size() * sizeof(float)), 0)
        << "pool size " << threads;
  }
}

TEST(Gemm, BitwiseEqualsNaive) {
  // Every C element sees the same operations in the same order in every
  // register tile, the leftover-row/column loops and gemm_naive, so the
  // kernel is pinned byte for byte, not to a tolerance — on every ISA
  // variant the host runs, not only the one gemm() dispatches to.
  const std::vector<ml::GemmIsa> isas = ml::gemm_isas();
  ASSERT_FALSE(isas.empty());
  EXPECT_EQ(isas.front(), ml::GemmIsa::Baseline);
  EXPECT_NE(std::find(isas.begin(), isas.end(), ml::gemm_isa()), isas.end());
  struct Shape {
    int M, N, K;
  };
  const Shape shapes[] = {
      {8, 1024, 36},  {16, 256, 72}, {16, 64, 144},  // the surrogate's convs
      {1, 32, 256},   // the surrogate's first dense layer at one image
      {37, 29, 300},  // M % 4 != 0, N % 8 != 0, two K panels, two row blocks
      {67, 13, 530},  // three 32-row blocks, three 256-deep K panels
      {12, 61, 9},    // every tile width, then scalar columns
      {3, 7, 5},      // smaller than one tile in both directions
      {4, 8, 1},      // exactly one tile, one k
      // Below one tile, NT reads B's rows in place: 16- and 4-column
      // blocks, scalar columns, and k steps left over from 4-deep blocks.
      {1, 21, 7},
      {2, 37, 261},
      {3, 19, 6},
  };
  ic::ThreadPool pool2(2), pool8(8);
  ic::Rng rng(2024);
  for (const Shape& sh : shapes) {
    const auto A = random_matrix(static_cast<std::size_t>(sh.M) * sh.K, rng);
    const auto B = random_matrix(static_cast<std::size_t>(sh.K) * sh.N, rng);
    const auto C0 = random_matrix(static_cast<std::size_t>(sh.M) * sh.N, rng);
    for (auto ta : {ml::Trans::No, ml::Trans::Yes})
      for (auto tb : {ml::Trans::No, ml::Trans::Yes})
        for (float alpha : {1.0f, -0.5f})
          for (float beta : {0.0f, 1.0f, 0.25f}) {
            const int lda = ta == ml::Trans::No ? sh.K : sh.M;
            const int ldb = tb == ml::Trans::No ? sh.N : sh.K;
            auto ref = C0;
            ml::gemm_naive(ta, tb, sh.M, sh.N, sh.K, alpha, A.data(), lda,
                           B.data(), ldb, beta, ref.data(), sh.N);
            for (const ml::GemmIsa isa : isas)
              for (ic::ThreadPool* pool :
                   {static_cast<ic::ThreadPool*>(nullptr), &pool2, &pool8}) {
                const ic::ComputePoolScope scope(pool);
                auto got = C0;
                ml::gemm_on(isa, ta, tb, sh.M, sh.N, sh.K, alpha, A.data(),
                            lda, B.data(), ldb, beta, got.data(), sh.N);
                ASSERT_EQ(std::memcmp(ref.data(), got.data(),
                                      ref.size() * sizeof(float)), 0)
                    << ml::gemm_isa_name(isa) << " M=" << sh.M
                    << " N=" << sh.N << " K=" << sh.K
                    << " ta=" << (ta == ml::Trans::Yes)
                    << " tb=" << (tb == ml::Trans::Yes) << " alpha=" << alpha
                    << " beta=" << beta
                    << " pool=" << (pool ? pool->size() : 0);
              }
          }
  }
}

namespace {

/// Conv3x3 of x (n, cin, h, w) the slow way: an explicit im2col (padding
/// taps as literal zeros, row k = ci·9 + (di+1)·3 + (dj+1)), then
/// gemm_naive over the bias-filled output, image by image.
std::vector<float> naive_conv(const ml::Conv3x3& conv, const ml::Tensor& x) {
  const int n = x.dim(0), cin = x.dim(1), h = x.dim(2), w = x.dim(3);
  const int cout = conv.weight.dim(0), kdim = cin * 9, hw = h * w;
  std::vector<float> ref(static_cast<std::size_t>(n) * cout * hw);
  std::vector<float> col(static_cast<std::size_t>(kdim) * hw);
  for (int b = 0; b < n; ++b) {
    for (int ci = 0; ci < cin; ++ci)
      for (int di = -1; di <= 1; ++di)
        for (int dj = -1; dj <= 1; ++dj)
          for (int i = 0; i < h; ++i)
            for (int j = 0; j < w; ++j) {
              const int ii = i + di, jj = j + dj;
              col[static_cast<std::size_t>(ci * 9 + (di + 1) * 3 + dj + 1) * hw +
                  i * w + j] = ii < 0 || ii >= h || jj < 0 || jj >= w
                                   ? 0.0f
                                   : x.at(b, ci, ii, jj);
            }
    float* yb = ref.data() + static_cast<std::size_t>(b) * cout * hw;
    for (int co = 0; co < cout; ++co)
      std::fill(yb + co * hw, yb + (co + 1) * hw,
                conv.bias[static_cast<std::size_t>(co)]);
    ml::gemm_naive(ml::Trans::No, ml::Trans::No, cout, hw, kdim, 1.0f,
                   conv.weight.data(), kdim, col.data(), hw, 1.0f, yb, hw);
  }
  return ref;
}

/// A Conv3x3 with random weights and a random (non-zero) bias.
ml::Conv3x3 random_conv(int cin, int cout, ic::Rng& rng) {
  ml::Conv3x3 conv(cin, cout, rng);
  for (std::size_t i = 0; i < conv.bias.size(); ++i)
    conv.bias[i] = static_cast<float>(rng.uniform(-1.0, 1.0));
  return conv;
}

}  // namespace

TEST(Gemm, Conv3x3BitwiseEqualsIm2colNaive) {
  // Conv3x3 reads every tap straight from a zero-bordered copy of each
  // image (an implicit GEMM). Against a full naive im2col (padding taps
  // included as explicit zeros) and gemm_naive it is equal byte for byte:
  // infer() and forward() (the host's ISA variant) at batch 1 and 3, and
  // each ISA variant's kernel image by image. The grid pins the tap-offset
  // table and every tile remainder: widths that are lane multiples run
  // tiles across output rows, the others one row at a time with narrower
  // tiles and scalar columns; 1 and 3 output channels take the leftover-row
  // path, and 1×1 is all padding.
  const std::vector<ml::GemmIsa> isas = ml::gemm_isas();
  const int sizes[] = {1, 3, 5, 8, 12, 16, 17, 32};
  for (const int h : sizes)
    for (const int w : sizes)
      for (const int cin : {1, 4, 16})
        for (const int cout : {1, 3, 8, 16}) {
          ic::Rng rng(static_cast<std::uint64_t>(((h * 64 + w) * 32 + cin) * 32 +
                                                 cout));
          ml::Conv3x3 conv = random_conv(cin, cout, rng);
          const ml::Tensor x = ml::Tensor::randn({3, cin, h, w}, rng, 1.0f);
          const std::vector<float> ref = naive_conv(conv, x);
          const std::size_t img = static_cast<std::size_t>(cout) * h * w;
          const std::size_t in = static_cast<std::size_t>(cin) * h * w;
          const auto where = [&] {
            return testing::Message() << "h=" << h << " w=" << w
                                      << " cin=" << cin << " cout=" << cout;
          };
          ml::Tensor x1({1, cin, h, w});
          std::copy(x.data(), x.data() + in, x1.data());
          for (const ml::Tensor& y : {conv.infer(x1), conv.forward(x1)})
            ASSERT_EQ(std::memcmp(ref.data(), y.data(), img * sizeof(float)), 0)
                << where() << " batch 1";
          for (const ml::Tensor& y : {conv.infer(x), conv.forward(x)})
            ASSERT_EQ(std::memcmp(ref.data(), y.data(),
                                  ref.size() * sizeof(float)), 0)
                << where() << " batch 3";
          std::vector<float> y(img);
          for (const ml::GemmIsa isa : isas)
            for (std::size_t b = 0; b < 3; ++b) {
              for (int co = 0; co < cout; ++co)
                std::fill(y.begin() + co * h * w, y.begin() + (co + 1) * h * w,
                          conv.bias[static_cast<std::size_t>(co)]);
              ml::conv3x3_gemm_on(isa, cout, cin, h, w, conv.weight.data(),
                                  x.data() + b * in, y.data());
              ASSERT_EQ(std::memcmp(ref.data() + b * img, y.data(),
                                    img * sizeof(float)), 0)
                  << where() << " " << ml::gemm_isa_name(isa) << " image " << b;
            }
        }
}

// ---------------------------------------------------------------- Dense

TEST(Gemm, DenseForwardMatchesManualLoops) {
  ic::Rng rng(7);
  ml::Dense dense(13, 5, rng);
  const ml::Tensor x = ml::Tensor::randn({9, 13}, rng, 1.0f);
  const ml::Tensor y = dense.forward(x);
  for (int i = 0; i < 9; ++i) {
    for (int o = 0; o < 5; ++o) {
      float acc = dense.bias[static_cast<std::size_t>(o)];
      for (int k = 0; k < 13; ++k) acc += dense.weight.at(o, k) * x.at(i, k);
      EXPECT_NEAR(y.at(i, o), acc, 1e-5f);
    }
  }
}

TEST(Gemm, DenseGradientCheck) {
  ic::Rng rng(11);
  ml::Dense dense(6, 4, rng);
  const ml::Tensor x = ml::Tensor::randn({3, 6}, rng, 1.0f);

  // Scalar loss L = sum(y); dL/dy = 1 everywhere.
  auto loss = [&](const ml::Tensor& inp) {
    ml::Dense probe(6, 4, rng);  // same-shape scratch, weights overwritten
    probe.weight = dense.weight;
    probe.bias = dense.bias;
    const ml::Tensor y = probe.forward(inp);
    float s = 0.0f;
    for (std::size_t i = 0; i < y.size(); ++i) s += y[i];
    return s;
  };

  ml::Tensor y = dense.forward(x);
  ml::Tensor ones(y.shape());
  for (std::size_t i = 0; i < ones.size(); ++i) ones[i] = 1.0f;
  dense.zero_grad();
  const ml::Tensor gx = dense.backward(ones);

  const float h = 1e-2f;
  // Input gradient vs central finite differences.
  for (std::size_t i = 0; i < x.size(); ++i) {
    ml::Tensor xp = x, xm = x;
    xp[i] += h;
    xm[i] -= h;
    const float fd = (loss(xp) - loss(xm)) / (2 * h);
    EXPECT_NEAR(gx[i], fd, 2e-2f) << "input " << i;
  }
  // Weight gradient: dL/dW[o][k] = sum_i x[i][k].
  for (int o = 0; o < 4; ++o) {
    for (int k = 0; k < 6; ++k) {
      float expect = 0.0f;
      for (int i = 0; i < 3; ++i) expect += x.at(i, k);
      EXPECT_NEAR(dense.weight_grad.at(o, k), expect, 1e-4f);
    }
  }
  // Bias gradient: dL/db[o] = batch size.
  for (int o = 0; o < 4; ++o)
    EXPECT_NEAR(dense.bias_grad[static_cast<std::size_t>(o)], 3.0f, 1e-5f);
}
