// Execution engine v2 tests: work-stealing pool semantics (nesting, stealing,
// exceptions, lifecycle), the one compute-pool channel (MultiCampaign::run
// installs the backend's pool, restores the previous one on every exit and
// lets no pool job outlive its recorder)
// and the end-to-end determinism contract — dock(), TIES, DeepDriveMD and NN
// training must produce identical results whatever compute pool is installed.

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <cstring>
#include <map>
#include <stdexcept>
#include <thread>
#include <vector>

#include "impeccable/chem/smiles.hpp"
#include "impeccable/common/rng.hpp"
#include "impeccable/common/thread_pool.hpp"
#include "impeccable/core/campaign.hpp"
#include "impeccable/core/deepdrivemd.hpp"
#include "impeccable/core/multi_campaign.hpp"
#include "impeccable/dock/engine.hpp"
#include "impeccable/dock/receptor.hpp"
#include "impeccable/fe/esmacs.hpp"
#include "impeccable/fe/ties.hpp"
#include "impeccable/ml/layers.hpp"
#include "impeccable/ml/optim.hpp"
#include "impeccable/rct/backend.hpp"

#include "test_support.hpp"

namespace ic = impeccable::common;
namespace ml = impeccable::ml;
namespace dock = impeccable::dock;
namespace chem = impeccable::chem;
namespace core = impeccable::core;
namespace fe = impeccable::fe;
namespace md = impeccable::md;
namespace rct = impeccable::rct;

// ---------------------------------------------------------------- pool

TEST(ExecEngine, NestedParallelForCompletes) {
  ic::ThreadPool pool(4);
  const std::size_t outer = 8, inner = 64;
  std::vector<std::atomic<int>> hits(outer * inner);
  pool.parallel_for(0, outer, [&](std::size_t i) {
    // Nested parallel_for from inside a pool task: the calling task drains
    // the inner dispenser itself, so this cannot deadlock even with every
    // worker blocked in an outer iteration.
    pool.parallel_for(0, inner, [&](std::size_t j) {
      hits[i * inner + j].fetch_add(1);
    }, 4);
  }, 1);
  for (auto& h : hits) EXPECT_EQ(h.load(), 1);
}

TEST(ExecEngine, ParallelForPropagatesLowestIndexException) {
  ic::ThreadPool pool(8);
  // Several iterations throw; the contract is that the exception from the
  // lowest failing index wins, every time, whatever the stealing order.
  for (int rep = 0; rep < 20; ++rep) {
    std::atomic<int> executed{0};
    try {
      pool.parallel_for(0, 200, [&](std::size_t i) {
        executed.fetch_add(1);
        if (i >= 57 && i % 13 == 5) // fails at 57, 70, 83, ...
          throw std::runtime_error("fail@" + std::to_string(i));
      }, 4);
      FAIL() << "expected an exception";
    } catch (const std::runtime_error& e) {
      EXPECT_STREQ(e.what(), "fail@57");
    }
    // No cross-chunk cancellation: every chunk runs up to (and including) its
    // first failing iteration, deterministically. With grain 4 the failing
    // indices 57, 70, ..., 187 abandon 15 trailing in-chunk iterations.
    EXPECT_EQ(executed.load(), 185);
  }
}

TEST(ExecEngine, SubmitAfterShutdownThrows) {
  ic::ThreadPool pool(2);
  auto fut = pool.submit([] { return 41 + 1; });
  EXPECT_EQ(fut.get(), 42);
  pool.shutdown();
  pool.shutdown();  // idempotent
  EXPECT_THROW(pool.submit([] {}), std::runtime_error);
}

TEST(ExecEngine, SubmittedTaskExceptionsReachTheFuture) {
  ic::ThreadPool pool(4);
  // Flood the pool so some of these tasks get stolen off other workers'
  // deques; the exception must still travel through the matching future.
  std::vector<std::future<int>> futs;
  for (int i = 0; i < 64; ++i) {
    futs.push_back(pool.submit([i]() -> int {
      if (i % 7 == 3) throw std::invalid_argument("bad " + std::to_string(i));
      return i;
    }));
  }
  for (int i = 0; i < 64; ++i) {
    if (i % 7 == 3) {
      EXPECT_THROW(futs[static_cast<std::size_t>(i)].get(), std::invalid_argument);
    } else {
      EXPECT_EQ(futs[static_cast<std::size_t>(i)].get(), i);
    }
  }
}

TEST(ExecEngine, WaitIdleUnderConcurrentSubmitters) {
  ic::ThreadPool pool(4);
  std::atomic<int> done{0};
  const int submitters = 4, jobs_each = 200;
  std::vector<std::thread> threads;
  for (int t = 0; t < submitters; ++t) {
    threads.emplace_back([&] {
      for (int j = 0; j < jobs_each; ++j)
        pool.submit([&] { done.fetch_add(1); });
    });
  }
  for (auto& t : threads) t.join();
  pool.wait_idle();
  EXPECT_EQ(done.load(), submitters * jobs_each);
}

TEST(ExecEngine, ParallelForHonoursGrainChunks) {
  ic::ThreadPool pool(4);
  const std::size_t n = 103, grain = 8;
  std::vector<std::thread::id> owner(n);
  pool.parallel_for(0, n, [&](std::size_t i) {
    owner[i] = std::this_thread::get_id();
  }, grain);
  // A grain-sized chunk is handed out as one unit: every index inside a
  // chunk must have run on the same thread.
  for (std::size_t c = 0; c < n; c += grain) {
    const std::size_t hi = std::min(n, c + grain);
    for (std::size_t i = c + 1; i < hi; ++i) EXPECT_EQ(owner[i], owner[c]);
  }
}

TEST(ExecEngine, ParallelForCoversRangeForManyGrains) {
  ic::ThreadPool pool(3);
  for (std::size_t grain : {std::size_t{0}, std::size_t{1}, std::size_t{7},
                            std::size_t{64}, std::size_t{1000}}) {
    std::vector<std::atomic<int>> hits(257);
    pool.parallel_for(0, hits.size(), [&](std::size_t i) {
      hits[i].fetch_add(1);
    }, grain);
    for (auto& h : hits) ASSERT_EQ(h.load(), 1);
  }
}

// ---------------------------------------------------------------- dock

TEST(ExecEngine, DockIsIdenticalAtPoolSizes1And8) {
  const auto grid = receptor_grid("T1", 20, 25);
  const auto mol = chem::parse_smiles("CCOc1ccccc1");

  dock::DockOptions opts;
  opts.runs = 6;
  opts.lga.population = 20;
  opts.lga.generations = 8;

  const auto serial = dock::dock(*grid, mol, "L1", opts);

  ic::ThreadPool pool(8);
  const ic::ComputePoolScope scope(&pool);
  const auto parallel = dock::dock(*grid, mol, "L1", opts);

  EXPECT_EQ(serial.best_score, parallel.best_score);
  EXPECT_EQ(serial.evaluations, parallel.evaluations);
  EXPECT_EQ(serial.best_pose.translation.x, parallel.best_pose.translation.x);
  EXPECT_EQ(serial.best_pose.translation.y, parallel.best_pose.translation.y);
  EXPECT_EQ(serial.best_pose.translation.z, parallel.best_pose.translation.z);
  ASSERT_EQ(serial.clusters.size(), parallel.clusters.size());
  for (std::size_t c = 0; c < serial.clusters.size(); ++c) {
    EXPECT_EQ(serial.clusters[c].best_energy, parallel.clusters[c].best_energy);
    EXPECT_EQ(serial.clusters[c].members, parallel.clusters[c].members);
  }
  ASSERT_EQ(serial.best_coords.size(), parallel.best_coords.size());
  for (std::size_t a = 0; a < serial.best_coords.size(); ++a) {
    EXPECT_EQ(serial.best_coords[a].x, parallel.best_coords[a].x);
    EXPECT_EQ(serial.best_coords[a].y, parallel.best_coords[a].y);
    EXPECT_EQ(serial.best_coords[a].z, parallel.best_coords[a].z);
  }
}

// ---------------------------------------------------------------- training

namespace {

/// Train a small conv+dense net for a few SGD steps and return every
/// parameter value, using whatever compute pool is installed.
std::vector<float> train_small_net() {
  ic::Rng rng(77);
  ml::Sequential net;
  net.add(std::make_unique<ml::Conv3x3>(2, 4, rng));
  net.add(std::make_unique<ml::ReLU>());
  net.add(std::make_unique<ml::Flatten>());
  net.add(std::make_unique<ml::Dense>(4 * 6 * 6, 8, rng));
  net.add(std::make_unique<ml::ReLU>());
  net.add(std::make_unique<ml::Dense>(8, 1, rng));

  const ml::Tensor x = ml::Tensor::randn({4, 2, 6, 6}, rng, 1.0f);
  ml::Tensor target({4, 1});
  for (int i = 0; i < 4; ++i) target.at(i, 0) = static_cast<float>(i % 2);

  ml::Sgd sgd(net.params(), 0.05f);
  for (int step = 0; step < 5; ++step) {
    const ml::Tensor y = net.forward(x);
    ml::Tensor g(y.shape());
    for (std::size_t i = 0; i < y.size(); ++i)
      g[i] = 2.0f * (y[i] - target[i]) / static_cast<float>(y.size());
    net.backward(g);
    sgd.step();
  }

  std::vector<float> flat;
  for (const auto& p : net.params())
    flat.insert(flat.end(), p.value->data(), p.value->data() + p.value->size());
  return flat;
}

}  // namespace

TEST(ExecEngine, TrainingIsBitwiseIdenticalAcrossComputePoolSizes) {
  std::vector<float> serial, parallel;
  {
    const ic::ComputePoolScope scope(nullptr);
    serial = train_small_net();
  }
  ic::ThreadPool pool(8);
  {
    const ic::ComputePoolScope scope(&pool);
    parallel = train_small_net();
  }

  ASSERT_EQ(serial.size(), parallel.size());
  for (std::size_t i = 0; i < serial.size(); ++i) {
    // Bitwise, not approximate: the GEMM accumulation order is fixed.
    EXPECT_EQ(std::memcmp(&serial[i], &parallel[i], sizeof(float)), 0)
        << "param " << i << ": " << serial[i] << " vs " << parallel[i];
  }
}

// ------------------------------------------------- free energy, DeepDriveMD

namespace {

/// `run()` with no compute pool installed, then under 1-, 2- and 8-thread
/// scopes: every result must equal the serial one.
template <typename Run, typename Same>
void expect_pool_invariant(Run run, Same same) {
  const auto serial = [&] {
    const ic::ComputePoolScope scope(nullptr);
    return run();
  }();
  for (std::size_t threads : {1, 2, 8}) {
    ic::ThreadPool pool(threads);
    const ic::ComputePoolScope scope(&pool);
    same(serial, run(), threads);
  }
}

}  // namespace

TEST(ExecEngine, TiesIsIdenticalAcrossComputePoolSizes) {
  const auto fx = make_lpc("CCO", 41);
  fe::TiesConfig cfg;
  cfg.lambdas = {0.0, 0.5, 1.0};
  cfg.replicas_per_window = 3;
  cfg.simulation.production_steps = 40;
  cfg.simulation.equilibration_steps = 20;
  cfg.simulation.report_interval = 20;
  expect_pool_invariant(
      [&] { return fe::run_ties(fx.system, cfg, 4); },
      [](const fe::TiesResult& a, const fe::TiesResult& b,
         std::size_t threads) {
        EXPECT_EQ(std::memcmp(&a.delta_g, &b.delta_g, sizeof(double)), 0)
            << threads << " threads";
        EXPECT_EQ(a.md_steps, b.md_steps);
        ASSERT_EQ(a.windows.size(), b.windows.size());
        for (std::size_t w = 0; w < a.windows.size(); ++w) {
          const auto& ra = a.windows[w].replica_means;
          const auto& rb = b.windows[w].replica_means;
          ASSERT_EQ(ra.size(), rb.size());
          EXPECT_EQ(std::memcmp(ra.data(), rb.data(), ra.size() * sizeof(double)),
                    0)
              << "window " << w << ", " << threads << " threads";
        }
      });
}

TEST(ExecEngine, DeepDriveMdIsIdenticalAcrossComputePoolSizes) {
  // The MD ensemble fans out per simulation and the AAE's GEMMs fan out
  // inside each round: both must leave every conformation's bits alone.
  md::ProteinOptions popts;
  popts.residues = 30;
  const md::System sys = md::build_protein(21, popts);
  core::DeepDriveMdOptions opts;
  opts.rounds = 2;
  opts.simulations_per_round = 3;
  opts.simulation.equilibration_steps = 20;
  opts.simulation.production_steps = 60;
  opts.simulation.report_interval = 30;
  opts.aae.epochs = 2;
  opts.aae.batch_size = 4;
  expect_pool_invariant(
      [&] { return core::run_deepdrivemd(sys, opts); },
      [](const core::DeepDriveMdResult& a, const core::DeepDriveMdResult& b,
         std::size_t threads) {
        EXPECT_EQ(a.md_steps, b.md_steps);
        EXPECT_EQ(a.conformation_round, b.conformation_round);
        ASSERT_EQ(a.conformations.size(), b.conformations.size());
        for (std::size_t c = 0; c < a.conformations.size(); ++c)
          ASSERT_EQ(std::memcmp(a.conformations[c].data(),
                                b.conformations[c].data(),
                                a.conformations[c].size() * sizeof(ic::Vec3)),
                    0)
              << "conformation " << c << ", " << threads << " threads";
        ASSERT_EQ(a.rounds.size(), b.rounds.size());
        for (std::size_t r = 0; r < a.rounds.size(); ++r)
          EXPECT_EQ(std::memcmp(&a.rounds[r].coverage, &b.rounds[r].coverage,
                                sizeof(double)),
                    0)
              << "round " << r << ", " << threads << " threads";
      });
}

// ------------------------------------------------------------ one channel

namespace {

/// A one-iteration campaign small enough for the TSan lane.
core::ScienceConfig one_pass_science() {
  core::ScienceConfig sci;
  sci.library_size = 24;
  sci.iterations = 1;
  sci.bootstrap_docks = 8;
  sci.dock_top_fraction = 0.25;
  sci.cg_compounds = 2;
  sci.top_binders = 1;
  sci.outliers_per_binder = 1;
  sci.dock.runs = 2;
  sci.dock.lga.population = 12;
  sci.dock.lga.generations = 4;
  sci.esmacs_cg = fe::cg_config(0.2);
  sci.esmacs_cg.replicas = 2;
  sci.esmacs_fg = fe::fg_config(0.1);
  sci.esmacs_fg.replicas = 2;
  sci.surrogate.epochs = 1;
  sci.aae.epochs = 1;
  return sci;
}

/// A LocalBackend whose clock takes 20 ms whenever a pool worker reads it.
/// MultiCampaign::run wires its recorder's clock to the backend's, so a pool
/// job that starts inside run() spends 20 ms in its pool:job span's clock
/// read — long enough that a run() which does not wait for the job returns
/// (and destroys its recorder) first.
class SlowWorkerClockBackend : public rct::LocalBackend {
 public:
  explicit SlowWorkerClockBackend(std::size_t threads)
      : LocalBackend(threads), caller_(std::this_thread::get_id()) {}

  double now() override {
    if (std::this_thread::get_id() == caller_) return LocalBackend::now();
    entered.fetch_add(1);
    std::this_thread::sleep_for(std::chrono::milliseconds(20));
    const double t = LocalBackend::now();
    left.fetch_add(1);
    return t;
  }

  std::atomic<int> entered{0}, left{0};

 private:
  std::thread::id caller_;
};

}  // namespace

TEST(ExecEngine, MultiCampaignClosesPoolJobsBeforeItsRecorderDies) {
  // A failing run: CampaignState::init featurizes the library over the
  // backend's pool, which leaves parallel_for helper tickets behind, then
  // throws on the missing checkpoint and unwinds run()'s private recorder.
  // A ticket a worker took meanwhile is inside its span's clock read; run()
  // must wait for it (under ASan a late one is a stack-use-after-scope in
  // Recorder::now). A run whose tickets all started after it returned
  // proves nothing, so repeat until one started inside it.
  SlowWorkerClockBackend backend(2);
  core::ExecConfig resume;
  resume.resume_checkpoint = tmp_path("imp_late_ticket_missing.csv").string();
  std::filesystem::remove(resume.resume_checkpoint);
  for (int attempt = 0; attempt < 20 && backend.entered.load() == 0;
       ++attempt) {
    core::MultiCampaign failing(resume);
    failing.add_target(core::Target::make("LATE", 3, 30, 15),
                       one_pass_science());
    EXPECT_THROW(failing.run(backend), std::runtime_error);
    EXPECT_EQ(backend.left.load(), backend.entered.load())
        << "a pool job was still reading run()'s recorder after it returned";
  }
  EXPECT_GT(backend.entered.load(), 0);
}

TEST(ExecEngine, MultiCampaignRestoresInstalledPoolOnReturnAndThrow) {
  ic::ThreadPool outer(1);
  const ic::ComputePoolScope scope(&outer);
  rct::LocalBackend backend(2);

  core::MultiCampaign ok(core::ExecConfig{});
  ok.add_target(core::Target::make("POOL", 3, 30, 15), one_pass_science());
  const auto report = ok.run(backend);
  ASSERT_EQ(report.reports.size(), 1u);
  EXPECT_EQ(ic::compute_pool(), &outer);

  // A missing checkpoint fails in CampaignState::init, after run() has
  // installed the backend's pool.
  core::ExecConfig resume;
  resume.resume_checkpoint = tmp_path("imp_pool_scope_missing.csv").string();
  std::filesystem::remove(resume.resume_checkpoint);
  core::MultiCampaign failing(resume);
  failing.add_target(core::Target::make("POOL", 3, 30, 15), one_pass_science());
  EXPECT_THROW(failing.run(backend), std::runtime_error);
  EXPECT_EQ(ic::compute_pool(), &outer);
}
