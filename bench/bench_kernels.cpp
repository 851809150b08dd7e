// Execution-engine benchmarks: pool submit/parallel_for throughput, blocked
// vs naive GEMM GFLOP/s (square and the surrogate's conv shapes), batched Dense::forward and parallel per-ligand
// dock() at several pool sizes. These are the numbers recorded in
// BENCH_pr1.json to track the perf trajectory of the execution layer.
//
// Run:  build/bench/bench_kernels [--benchmark_format=json]

#include <benchmark/benchmark.h>

#include <memory>
#include <vector>

#include "impeccable/chem/smiles.hpp"
#include "impeccable/common/rng.hpp"
#include "impeccable/common/thread_pool.hpp"
#include "impeccable/dock/engine.hpp"
#include "impeccable/dock/receptor.hpp"
#include "impeccable/ml/gemm.hpp"
#include "impeccable/ml/layers.hpp"
#include "impeccable/ml/surrogate.hpp"
#include "impeccable/chem/depiction.hpp"

namespace chem = impeccable::chem;
namespace dock = impeccable::dock;
namespace ml = impeccable::ml;
namespace ic = impeccable::common;
using impeccable::common::Rng;

// ---------------------------------------------------------------- pool

static void BM_PoolSubmitThroughput(benchmark::State& state) {
  ic::ThreadPool pool(static_cast<std::size_t>(state.range(0)));
  for (auto _ : state) {
    for (int i = 0; i < 1024; ++i) pool.submit([] {});
    pool.wait_idle();
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) * 1024);
}
BENCHMARK(BM_PoolSubmitThroughput)->Arg(1)->Arg(2)->Arg(4)->UseRealTime();

static void BM_ParallelForTinyBodies(benchmark::State& state) {
  ic::ThreadPool pool(static_cast<std::size_t>(state.range(0)));
  std::vector<float> out(1 << 16);
  for (auto _ : state) {
    pool.parallel_for(0, out.size(), [&](std::size_t i) {
      out[i] = static_cast<float>(i) * 0.5f;
    });
    benchmark::ClobberMemory();
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(out.size()));
}
BENCHMARK(BM_ParallelForTinyBodies)->Arg(1)->Arg(2)->Arg(4)->UseRealTime();

// ---------------------------------------------------------------- GEMM

namespace {

std::vector<float> random_matrix(std::size_t n, std::uint64_t seed) {
  Rng rng(seed);
  std::vector<float> m(n);
  for (auto& v : m) v = static_cast<float>(rng.uniform(-1.0, 1.0));
  return m;
}

void report_gflops(benchmark::State& state, int M, int N, int K) {
  state.counters["GFLOP/s"] = benchmark::Counter(
      static_cast<double>(state.iterations()) * 2.0 * M * N * K * 1e-9,
      benchmark::Counter::kIsRate);
}

}  // namespace

static void BM_GemmNaive(benchmark::State& state) {
  const int n = static_cast<int>(state.range(0));
  const auto A = random_matrix(static_cast<std::size_t>(n) * n, 1);
  const auto B = random_matrix(static_cast<std::size_t>(n) * n, 2);
  std::vector<float> C(static_cast<std::size_t>(n) * n, 0.0f);
  for (auto _ : state) {
    ml::gemm_naive(ml::Trans::No, ml::Trans::No, n, n, n, 1.0f, A.data(), n,
                   B.data(), n, 0.0f, C.data(), n);
    benchmark::ClobberMemory();
  }
  report_gflops(state, n, n, n);
}
BENCHMARK(BM_GemmNaive)->Arg(128)->Arg(256);

static void BM_GemmBlocked(benchmark::State& state) {
  const int n = static_cast<int>(state.range(0));
  const std::size_t threads = static_cast<std::size_t>(state.range(1));
  std::unique_ptr<ic::ThreadPool> pool;
  if (threads > 1) pool = std::make_unique<ic::ThreadPool>(threads);
  const auto A = random_matrix(static_cast<std::size_t>(n) * n, 1);
  const auto B = random_matrix(static_cast<std::size_t>(n) * n, 2);
  std::vector<float> C(static_cast<std::size_t>(n) * n, 0.0f);
  for (auto _ : state) {
    ml::gemm(ml::Trans::No, ml::Trans::No, n, n, n, 1.0f, A.data(), n,
             B.data(), n, 0.0f, C.data(), n, pool.get());
    benchmark::ClobberMemory();
  }
  report_gflops(state, n, n, n);
}
BENCHMARK(BM_GemmBlocked)
    ->Args({128, 1})
    ->Args({256, 1})
    ->Args({256, 2})
    ->Args({256, 4})
    ->UseRealTime();

// The three per-image convolution GEMMs of the default ML1 surrogate
// (M×N×K = Cout × H·W × Cin·9): conv1 at 32×32, conv2 at 16×16 and the
// residual convs at 8×8. beta = 1, as in Conv3x3 (C holds the bias).
static void BM_GemmConvShapes(benchmark::State& state) {
  const int M = static_cast<int>(state.range(0));
  const int N = static_cast<int>(state.range(1));
  const int K = static_cast<int>(state.range(2));
  const auto A = random_matrix(static_cast<std::size_t>(M) * K, 1);
  const auto B = random_matrix(static_cast<std::size_t>(K) * N, 2);
  std::vector<float> C(static_cast<std::size_t>(M) * N, 0.0f);
  for (auto _ : state) {
    ml::gemm(ml::Trans::No, ml::Trans::No, M, N, K, 1.0f, A.data(), K,
             B.data(), N, 1.0f, C.data(), N);
    benchmark::ClobberMemory();
  }
  report_gflops(state, M, N, K);
}
BENCHMARK(BM_GemmConvShapes)
    ->Args({8, 1024, 36})
    ->Args({16, 256, 72})
    ->Args({16, 64, 144});

// ---------------------------------------------------------------- Dense

static void BM_DenseForwardBatch(benchmark::State& state) {
  const std::size_t threads = static_cast<std::size_t>(state.range(0));
  std::unique_ptr<ic::ThreadPool> pool;
  if (threads > 1) pool = std::make_unique<ic::ThreadPool>(threads);
  ml::set_compute_pool(pool.get());
  Rng rng(3);
  ml::Dense dense(512, 128, rng);
  const ml::Tensor x = ml::Tensor::randn({64, 512}, rng, 1.0f);
  for (auto _ : state) benchmark::DoNotOptimize(dense.forward(x));
  ml::set_compute_pool(nullptr);
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) * 64);
  report_gflops(state, 64, 128, 512);
}
BENCHMARK(BM_DenseForwardBatch)->Arg(1)->Arg(2)->Arg(4)->UseRealTime();

static void BM_SurrogatePredictBatch(benchmark::State& state) {
  const std::size_t threads = static_cast<std::size_t>(state.range(0));
  std::unique_ptr<ic::ThreadPool> pool;
  if (threads > 1) pool = std::make_unique<ic::ThreadPool>(threads);
  ml::set_compute_pool(pool.get());
  ml::SurrogateModel model;
  std::vector<chem::Image> images(
      16, chem::depict(chem::parse_smiles("CC(=O)Oc1ccccc1C(=O)O")));
  for (auto _ : state) benchmark::DoNotOptimize(model.predict_batch(images));
  ml::set_compute_pool(nullptr);
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) * 16);
}
BENCHMARK(BM_SurrogatePredictBatch)->Arg(1)->Arg(2)->Arg(4)->UseRealTime();

// ---------------------------------------------------------------- dock

static void BM_DockLigand(benchmark::State& state) {
  const std::size_t threads = static_cast<std::size_t>(state.range(0));
  std::unique_ptr<ic::ThreadPool> pool;
  if (threads > 1) pool = std::make_unique<ic::ThreadPool>(threads);
  const auto receptor = dock::Receptor::synthesize("bench", 1);
  dock::GridOptions gopts;
  gopts.nodes = 25;
  const auto grid = dock::compute_grid(receptor, gopts);
  const auto mol = chem::parse_smiles("CC(C)Cc1ccc(cc1)C(C)C(=O)O");
  dock::DockOptions opts;
  opts.runs = 8;
  opts.lga.population = 30;
  opts.lga.generations = 10;
  opts.pool = pool.get();
  for (auto _ : state)
    benchmark::DoNotOptimize(dock::dock(*grid, mol, "bench-ligand", opts));
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          opts.runs);
}
BENCHMARK(BM_DockLigand)->Arg(1)->Arg(2)->Arg(4)->Arg(8)->UseRealTime();
