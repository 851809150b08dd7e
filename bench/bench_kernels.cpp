// The hot-kernel benchmark suite: every per-work-unit cost the Table 2/3
// models scale up, in one google-benchmark binary. Pool submit and
// parallel_for; naive vs blocked GEMM (square and the surrogate's conv
// shapes), the surrogate's Conv3x3 layers, Dense::forward and surrogate
// inference; scalar and batched pose
// evaluation per fixture ligand, the pool-wide scorer rate, seeded dock()
// runs and dock() at pool sizes 1..8; the MD step and cell list; chem
// (2D layout at 12/20/30 atoms, depiction), Chamfer, LOF and
// block-averaging kernels.
//
// GFLOP/s counters on pose evaluation, the MD step and predict_batch divide
// the analytic flop models (dock::flops_per_evaluation, md::flops_per_md_step,
// SurrogateModel::flops_per_image) by measured time: this host's analogue of
// Table 3's per-component rates. Batched dock rows count poses as items, so
// their items_per_second over the scalar row of the same ligand is the
// batching speedup. BM_DockSeeded's best_score and evaluations counters are
// exact: unchanged values after a scorer change mean unchanged trajectories.
//
// Run:  build/bench/bench_kernels [--benchmark_filter=Dock]
//           [--benchmark_format=json] [--benchmark_out=<file>]

#include <benchmark/benchmark.h>

#include <atomic>
#include <iterator>
#include <memory>
#include <string>
#include <vector>

#include "impeccable/chem/depiction.hpp"
#include "impeccable/chem/fingerprint.hpp"
#include "impeccable/chem/layout.hpp"
#include "impeccable/chem/library.hpp"
#include "impeccable/chem/scaffold.hpp"
#include "impeccable/chem/smiles.hpp"
#include "impeccable/chem/substructure.hpp"
#include "impeccable/common/rng.hpp"
#include "impeccable/common/stats.hpp"
#include "impeccable/common/thread_pool.hpp"
#include "impeccable/dock/engine.hpp"
#include "impeccable/dock/receptor.hpp"
#include "impeccable/dock/score.hpp"
#include "impeccable/dock/score_batch.hpp"
#include "impeccable/md/integrator.hpp"
#include "impeccable/md/simulation.hpp"
#include "impeccable/md/system.hpp"
#include "impeccable/ml/gemm.hpp"
#include "impeccable/ml/layers.hpp"
#include "impeccable/ml/lof.hpp"
#include "impeccable/ml/loss.hpp"
#include "impeccable/ml/surrogate.hpp"
#include "impeccable/ml/tensor.hpp"

namespace chem = impeccable::chem;
namespace dock = impeccable::dock;
namespace md = impeccable::md;
namespace ml = impeccable::ml;
namespace ic = impeccable::common;
using impeccable::common::Rng;

namespace {

/// A pool of `threads` workers, or none for 1 (the serial path).
std::unique_ptr<ic::ThreadPool> make_pool(std::int64_t threads) {
  if (threads <= 1) return nullptr;
  return std::make_unique<ic::ThreadPool>(static_cast<std::size_t>(threads));
}

/// `flops_per_iteration` over the benchmark's (real or CPU) time.
void report_gflops(benchmark::State& state, double flops_per_iteration) {
  state.counters["GFLOP/s"] = benchmark::Counter(
      static_cast<double>(state.iterations()) * flops_per_iteration * 1e-9,
      benchmark::Counter::kIsRate);
}

void count_items(benchmark::State& state, std::int64_t per_iteration = 1) {
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          per_iteration);
}

std::vector<float> random_matrix(std::size_t n, std::uint64_t seed) {
  Rng rng(seed);
  std::vector<float> m(n);
  for (auto& v : m) v = static_cast<float>(rng.uniform(-1.0, 1.0));
  return m;
}

}  // namespace

// ---------------------------------------------------------------- pool

static void BM_PoolSubmitThroughput(benchmark::State& state) {
  ic::ThreadPool pool(static_cast<std::size_t>(state.range(0)));
  for (auto _ : state) {
    for (int i = 0; i < 1024; ++i) pool.submit([] {});
    pool.wait_idle();
  }
  count_items(state, 1024);
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
  count_items(state, static_cast<std::int64_t>(out.size()));
}
BENCHMARK(BM_ParallelForTinyBodies)->Arg(1)->Arg(2)->Arg(4)->UseRealTime();

// ---------------------------------------------------------------- GEMM

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
  report_gflops(state, 2.0 * n * n * n);
}
BENCHMARK(BM_GemmNaive)->Arg(128)->Arg(256);

static void BM_GemmBlocked(benchmark::State& state) {
  const int n = static_cast<int>(state.range(0));
  const auto pool = make_pool(state.range(1));
  const ic::ComputePoolScope scope(pool.get());
  const auto A = random_matrix(static_cast<std::size_t>(n) * n, 1);
  const auto B = random_matrix(static_cast<std::size_t>(n) * n, 2);
  std::vector<float> C(static_cast<std::size_t>(n) * n, 0.0f);
  for (auto _ : state) {
    ml::gemm(ml::Trans::No, ml::Trans::No, n, n, n, 1.0f, A.data(), n,
             B.data(), n, 0.0f, C.data(), n);
    benchmark::ClobberMemory();
  }
  report_gflops(state, 2.0 * n * n * n);
}
BENCHMARK(BM_GemmBlocked)
    ->Args({128, 1})
    ->Args({256, 1})
    ->Args({256, 2})
    ->Args({256, 4})
    ->UseRealTime();

// The three per-image convolution GEMMs of the default ML1 surrogate
// (M×N×K = Cout × H·W × Cin·9): conv1 at 32×32, conv2 at 16×16 and the
// residual convs at 8×8. beta = 1, as in Conv3x3 (C holds the bias). The
// row label names the GEMM ISA variant this host dispatched to.
static void BM_GemmConvShapes(benchmark::State& state) {
  state.SetLabel(ml::gemm_isa_name(ml::gemm_isa()));
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
  report_gflops(state, 2.0 * M * N * K);
}
BENCHMARK(BM_GemmConvShapes)
    ->Args({8, 1024, 36})
    ->Args({16, 256, 72})
    ->Args({16, 64, 144});

// The surrogate's three convolution layers at one image, as inference runs
// them (Conv3x3::infer: bias, then the implicit GEMM over the padded image):
// 4→8 channels at 32×32, 8→16 at 16×16 and the residual 16→16 at 8×8.
// The flop count is the layer's GEMM, 2·Cout·H·W·9·Cin; the row label names
// the GEMM ISA variant this host dispatched to.
static void BM_Conv3x3Infer(benchmark::State& state) {
  struct Shape {
    int cin, cout, hw;
  };
  constexpr Shape kShapes[] = {{4, 8, 32}, {8, 16, 16}, {16, 16, 8}};
  const Shape& sh = kShapes[state.range(0)];
  state.SetLabel(ml::gemm_isa_name(ml::gemm_isa()));
  Rng rng(5);
  const ml::Conv3x3 conv(sh.cin, sh.cout, rng);
  const ml::Tensor x = ml::Tensor::randn({1, sh.cin, sh.hw, sh.hw}, rng, 1.0f);
  for (auto _ : state) benchmark::DoNotOptimize(conv.infer(x));
  count_items(state);
  report_gflops(state, 2.0 * sh.cout * sh.hw * sh.hw * 9 * sh.cin);
}
BENCHMARK(BM_Conv3x3Infer)->DenseRange(0, 2);

// ---------------------------------------------------------------- surrogate

static void BM_DenseForwardBatch(benchmark::State& state) {
  const auto pool = make_pool(state.range(0));
  const ic::ComputePoolScope scope(pool.get());
  Rng rng(3);
  ml::Dense dense(512, 128, rng);
  const ml::Tensor x = ml::Tensor::randn({64, 512}, rng, 1.0f);
  for (auto _ : state) benchmark::DoNotOptimize(dense.forward(x));
  count_items(state, 64);
  report_gflops(state, 2.0 * 64 * 128 * 512);
}
BENCHMARK(BM_DenseForwardBatch)->Arg(1)->Arg(2)->Arg(4)->UseRealTime();

static void BM_SurrogateInference(benchmark::State& state) {
  state.SetLabel(ml::gemm_isa_name(ml::gemm_isa()));
  ml::SurrogateModel model;
  const auto img = chem::depict(chem::parse_smiles("CC(=O)Oc1ccccc1C(=O)O"));
  for (auto _ : state) benchmark::DoNotOptimize(model.predict(img));
  count_items(state);
}
BENCHMARK(BM_SurrogateInference);

static void BM_SurrogatePredictBatch(benchmark::State& state) {
  const auto pool = make_pool(state.range(0));
  const ic::ComputePoolScope scope(pool.get());
  ml::SurrogateModel model;
  std::vector<chem::Image> images(
      16, chem::depict(chem::parse_smiles("CC(=O)Oc1ccccc1C(=O)O")));
  for (auto _ : state) benchmark::DoNotOptimize(model.predict_batch(images));
  count_items(state, 16);
  report_gflops(state, 16.0 * static_cast<double>(model.flops_per_image()));
}
BENCHMARK(BM_SurrogatePredictBatch)->Arg(1)->Arg(2)->Arg(4)->UseRealTime();

// ---------------------------------------------------------------- dock

namespace {

/// The scorer fixtures: the first argument of every ligand-indexed dock
/// benchmark selects one of these.
struct DockLigandFixture {
  const char* id;
  const char* smiles;
};
constexpr DockLigandFixture kDockLigands[] = {
    {"aspirin", "CC(=O)Oc1ccccc1C(=O)O"},
    {"ibuprofen", "CC(C)Cc1ccc(cc1)C(C)C(=O)O"},
    {"phenetidine", "CCOc1ccc(N)cc1"},
};
constexpr std::size_t kDockPoses = 64;

const dock::AffinityGrid& dock_grid() {
  static const auto grid =
      dock::compute_grid(dock::Receptor::synthesize("BENCH", 42));
  return *grid;
}

/// One fixture ligand, its conformer and a fixed working set of 64 poses
/// around the pocket.
struct DockCase {
  const char* id;
  chem::Molecule mol;
  dock::Ligand lig;
  std::vector<dock::Pose> poses;

  explicit DockCase(const DockLigandFixture& fx)
      : id(fx.id), mol(chem::parse_smiles(fx.smiles)), lig(mol, 3) {
    Rng rng(0xbe9c);
    for (std::size_t i = 0; i < kDockPoses; ++i)
      poses.push_back(lig.random_pose(dock_grid().pocket_center, 3.0, rng));
  }

  double flops_per_pose() const {
    return static_cast<double>(dock::flops_per_evaluation(
        lig.atom_count(), static_cast<int>(lig.nonbonded_pairs().size())));
  }
};

/// The fixture selected by the benchmark's first argument; labels the row.
const DockCase& dock_case(benchmark::State& state) {
  static const std::vector<DockCase> cases(std::begin(kDockLigands),
                                           std::end(kDockLigands));
  const DockCase& c = cases.at(static_cast<std::size_t>(state.range(0)));
  state.SetLabel(c.id);
  return c;
}

std::vector<std::int64_t> ligand_args() {
  return benchmark::CreateDenseRange(
      0, static_cast<std::int64_t>(std::size(kDockLigands)) - 1, 1);
}

}  // namespace

static void BM_DockEvaluate(benchmark::State& state) {
  const DockCase& c = dock_case(state);
  const dock::ScoringFunction score(dock_grid(), c.lig);
  std::size_t i = 0;
  for (auto _ : state)
    benchmark::DoNotOptimize(score.evaluate(c.poses[i++ % kDockPoses]));
  count_items(state);
  report_gflops(state, c.flops_per_pose());
}
BENCHMARK(BM_DockEvaluate)->ArgsProduct({ligand_args()});

static void BM_DockEvaluateWithGradient(benchmark::State& state) {
  const DockCase& c = dock_case(state);
  const dock::ScoringFunction score(dock_grid(), c.lig);
  dock::PoseGradient grad;
  std::size_t i = 0;
  for (auto _ : state)
    benchmark::DoNotOptimize(
        score.evaluate_with_gradient(c.poses[i++ % kDockPoses], grad));
  count_items(state);
}
BENCHMARK(BM_DockEvaluateWithGradient)->ArgsProduct({ligand_args()});

/// One fixture ligand's poses through the batched SoA kernels, `range(1)`
/// poses per call.
static void dock_batch(benchmark::State& state, bool gradient) {
  const DockCase& c = dock_case(state);
  const int batch = static_cast<int>(state.range(1));
  const dock::ScoringFunction score(dock_grid(), c.lig);
  dock::BatchScratch scratch;
  dock::PoseBatch pb;
  double energies[dock::kMaxBatchPoses];
  std::vector<dock::PoseGradient> grads(static_cast<std::size_t>(batch));
  for (std::size_t at = 0; auto _ : state) {
    pb = {};
    for (int l = 0; l < batch; ++l) pb.push(c.poses[at++ % kDockPoses]);
    if (gradient)
      score.evaluate_with_gradient_batch(pb, scratch, energies, grads.data());
    else
      score.evaluate_batch(pb, scratch, energies);
    benchmark::DoNotOptimize(energies[0]);
  }
  count_items(state, batch);
  if (!gradient) report_gflops(state, batch * c.flops_per_pose());
}

static void BM_DockEvaluateBatch(benchmark::State& state) {
  dock_batch(state, false);
}
BENCHMARK(BM_DockEvaluateBatch)->ArgsProduct({ligand_args(), {1, 4, 8, 16}});

static void BM_DockEvaluateWithGradientBatch(benchmark::State& state) {
  dock_batch(state, true);
}
BENCHMARK(BM_DockEvaluateWithGradientBatch)
    ->ArgsProduct({ligand_args(), {1, 4, 8, 16}});

// Aggregate evaluation rate of `range(1)` pool workers, each with its own
// scorer as in dock()'s LGA runs (built on the worker's thread, so no two
// scratch arenas share a cache line). Workers pull 64-pose chunks until the
// iteration's 1024 evaluations per worker are done, so one descheduled
// thread does not stall the others.
static void BM_DockEvaluatePool(benchmark::State& state) {
  const DockCase& c = dock_case(state);
  const auto workers = static_cast<std::size_t>(state.range(1));
  const std::size_t evals = workers * kDockPoses * 16;
  ic::ThreadPool pool(workers);
  for (auto _ : state) {
    std::atomic<std::size_t> next{0};
    for (std::size_t w = 0; w < workers; ++w)
      pool.submit([&] {
        const dock::ScoringFunction score(dock_grid(), c.lig);
        while (next.fetch_add(kDockPoses) < evals)
          for (const auto& p : c.poses)
            benchmark::DoNotOptimize(score.evaluate(p));
      });
    pool.wait_idle();
  }
  count_items(state, static_cast<std::int64_t>(evals));
  report_gflops(state, static_cast<double>(evals) * c.flops_per_pose());
}
BENCHMARK(BM_DockEvaluatePool)
    ->ArgsProduct({ligand_args(), {1, 2, 4}})
    ->UseRealTime();

// A seeded dock() per fixture ligand. best_score and evaluations are exact
// counters: they pin the search trajectory, not the speed.
static void BM_DockSeeded(benchmark::State& state) {
  const DockCase& c = dock_case(state);
  dock::DockOptions opts;
  opts.runs = 2;
  opts.lga.population = 20;
  opts.lga.generations = 8;
  dock::DockResult res;
  for (auto _ : state) res = dock::dock(dock_grid(), c.mol, c.id, opts);
  state.counters["best_score"] = res.best_score;
  state.counters["evaluations"] = static_cast<double>(res.evaluations);
  state.counters["atoms"] = c.lig.atom_count();
  state.counters["torsions"] = c.lig.torsion_count();
  state.counters["nb_pairs"] =
      static_cast<double>(c.lig.nonbonded_pairs().size());
}
BENCHMARK(BM_DockSeeded)->ArgsProduct({ligand_args()});

static void BM_DockLigand(benchmark::State& state) {
  const auto pool = make_pool(state.range(0));
  const ic::ComputePoolScope scope(pool.get());
  const auto receptor = dock::Receptor::synthesize("bench", 1);
  dock::GridOptions gopts;
  gopts.nodes = 25;
  const auto grid = dock::compute_grid(receptor, gopts);
  const auto mol = chem::parse_smiles("CC(C)Cc1ccc(cc1)C(C)C(=O)O");
  dock::DockOptions opts;
  opts.runs = 8;
  opts.lga.population = 30;
  opts.lga.generations = 10;
  for (auto _ : state)
    benchmark::DoNotOptimize(dock::dock(*grid, mol, "bench-ligand", opts));
  count_items(state, opts.runs);
}
BENCHMARK(BM_DockLigand)->Arg(1)->Arg(2)->Arg(4)->Arg(8)->UseRealTime();

// ---------------------------------------------------------------- md

static void BM_MdStep(benchmark::State& state) {
  md::ProteinOptions popts;
  popts.residues = static_cast<int>(state.range(0));
  const auto protein = md::build_protein(3, popts);
  const auto mol = chem::parse_smiles("CCOc1ccc(N)cc1");
  const dock::Ligand lig(mol);
  const auto lpc = md::build_lpc(protein, mol, lig.reference_coords());
  const md::ForceField ff(lpc.topology);
  md::LangevinIntegrator integ(ff, {}, 1);
  auto pos = lpc.positions;
  std::vector<impeccable::common::Vec3> vel;
  integ.thermalize(vel);
  for (auto _ : state) integ.run(pos, vel, 1);
  count_items(state);
  report_gflops(state, static_cast<double>(md::flops_per_md_step(
                           lpc.topology.bead_count(), ff.last_pair_count())));
}
BENCHMARK(BM_MdStep)->Arg(60)->Arg(120)->Arg(240);

static void BM_CellListBuild(benchmark::State& state) {
  Rng rng(5);
  std::vector<impeccable::common::Vec3> pos;
  for (int i = 0; i < state.range(0); ++i)
    pos.push_back({rng.uniform(-20, 20), rng.uniform(-20, 20), rng.uniform(-20, 20)});
  md::CellList cl;
  for (auto _ : state) {
    cl.build(pos, 10.0);
    benchmark::ClobberMemory();
  }
  count_items(state, state.range(0));
}
BENCHMARK(BM_CellListBuild)->Arg(256)->Arg(1024);

// ---------------------------------------------------------------- chem, stats

namespace {
const char* const kIbuprofen = "CC(C)Cc1ccc(cc1)C(C)C(=O)O";
}  // namespace

static void BM_SmilesParse(benchmark::State& state) {
  const std::string s = kIbuprofen;
  for (auto _ : state) benchmark::DoNotOptimize(chem::parse_smiles(s));
  count_items(state);
}
BENCHMARK(BM_SmilesParse);

static void BM_MorganFingerprint(benchmark::State& state) {
  const auto mol = chem::parse_smiles(kIbuprofen);
  for (auto _ : state) benchmark::DoNotOptimize(chem::morgan_fingerprint(mol));
  count_items(state);
}
BENCHMARK(BM_MorganFingerprint);

static void BM_Layout2d(benchmark::State& state) {
  // The first generated compound with the requested atom count: a
  // drug-like graph, not a chain, at a fixed size.
  const int atoms = static_cast<int>(state.range(0));
  chem::Molecule mol;
  for (std::uint64_t i = 0; mol.atom_count() != atoms; ++i)
    mol = chem::generate_compound(5, i);
  for (auto _ : state) benchmark::DoNotOptimize(chem::layout_2d(mol));
  count_items(state);
  // Repulsion pairs swept at the default 250 iterations.
  state.counters["pairs_per_second"] = benchmark::Counter(
      static_cast<double>(state.iterations()) * 250.0 * atoms * (atoms - 1) /
          2.0,
      benchmark::Counter::kIsRate);
}
BENCHMARK(BM_Layout2d)->Arg(12)->Arg(20)->Arg(30);

static void BM_Depiction(benchmark::State& state) {
  const auto mol = chem::parse_smiles(kIbuprofen);
  for (auto _ : state) benchmark::DoNotOptimize(chem::depict(mol));
  count_items(state);
}
BENCHMARK(BM_Depiction);

static void BM_ChamferLoss(benchmark::State& state) {
  Rng rng(6);
  ml::Tensor a({4, 60, 3}), b({4, 60, 3});
  for (std::size_t i = 0; i < a.size(); ++i) {
    a[i] = static_cast<float>(rng.uniform(-3, 3));
    b[i] = static_cast<float>(rng.uniform(-3, 3));
  }
  for (auto _ : state) benchmark::DoNotOptimize(ml::chamfer_loss(a, b));
  count_items(state);
}
BENCHMARK(BM_ChamferLoss);

static void BM_Lof(benchmark::State& state) {
  Rng rng(7);
  std::vector<std::vector<double>> pts;
  for (int i = 0; i < state.range(0); ++i)
    pts.push_back({rng.gauss(), rng.gauss(), rng.gauss(), rng.gauss()});
  for (auto _ : state)
    benchmark::DoNotOptimize(ml::local_outlier_factor(pts, 10));
  count_items(state, state.range(0));
}
BENCHMARK(BM_Lof)->Arg(200);

static void BM_LibraryGenerate(benchmark::State& state) {
  std::uint64_t i = 0;
  for (auto _ : state)
    benchmark::DoNotOptimize(chem::generate_compound(99, i++));
  count_items(state);
}
BENCHMARK(BM_LibraryGenerate);

static void BM_MurckoScaffold(benchmark::State& state) {
  const auto mol = chem::parse_smiles("CC(C)Cc1ccc(cc1)C(C)C(=O)Oc1ccncc1");
  for (auto _ : state) benchmark::DoNotOptimize(chem::murcko_scaffold(mol));
  count_items(state);
}
BENCHMARK(BM_MurckoScaffold);

static void BM_SubstructureMatch(benchmark::State& state) {
  const auto mol = chem::parse_smiles(kIbuprofen);
  const auto query = chem::parse_smiles("C(=O)O");
  for (auto _ : state)
    benchmark::DoNotOptimize(chem::has_substructure(mol, query));
  count_items(state);
}
BENCHMARK(BM_SubstructureMatch);

static void BM_BlockAverageError(benchmark::State& state) {
  Rng rng(11);
  std::vector<double> series;
  for (int i = 0; i < 1024; ++i) series.push_back(rng.gauss());
  for (auto _ : state)
    benchmark::DoNotOptimize(impeccable::common::block_average_error(series));
  count_items(state);
}
BENCHMARK(BM_BlockAverageError);
