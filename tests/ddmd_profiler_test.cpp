// Tests for the DeepDriveMD adaptive-sampling driver and the RP-style
// execution profiler.

#include <gtest/gtest.h>

#include "impeccable/core/deepdrivemd.hpp"
#include "impeccable/md/system.hpp"
#include "impeccable/obs/recorder.hpp"
#include "impeccable/rct/backend.hpp"
#include "impeccable/rct/entk.hpp"
#include "impeccable/rct/profiler.hpp"

namespace core = impeccable::core;
namespace md = impeccable::md;
namespace obs = impeccable::obs;
namespace rct = impeccable::rct;
namespace hpc = impeccable::hpc;

namespace {

md::System ddmd_system() {
  md::ProteinOptions popts;
  popts.residues = 30;
  return md::build_protein(21, popts);
}

core::DeepDriveMdOptions fast_opts() {
  core::DeepDriveMdOptions o;
  o.rounds = 3;
  o.simulations_per_round = 3;
  o.simulation.equilibration_steps = 20;
  o.simulation.production_steps = 120;
  o.simulation.report_interval = 30;
  o.aae.epochs = 3;
  o.aae.batch_size = 8;
  return o;
}

}  // namespace

// ---------------------------------------------------------------- DeepDriveMD

TEST(DeepDriveMd, RunsAllRoundsAndCollectsFrames) {
  const auto sys = ddmd_system();
  const auto res = core::run_deepdrivemd(sys, fast_opts());
  ASSERT_EQ(res.rounds.size(), 3u);
  for (const auto& r : res.rounds) {
    EXPECT_EQ(r.frames_collected, 3u * 4u);  // 3 sims x 4 frames
    EXPECT_GT(r.aae_reconstruction, 0.0f);
  }
  EXPECT_EQ(res.conformations.size(), 3u * 3u * 4u);
  EXPECT_EQ(res.conformation_round.size(), res.conformations.size());
  EXPECT_GT(res.md_steps, 0u);
}

TEST(DeepDriveMd, CoverageGrowsAcrossRounds) {
  const auto sys = ddmd_system();
  const auto res = core::run_deepdrivemd(sys, fast_opts());
  // Coverage (mean pairwise RMSD over everything seen) must not shrink.
  EXPECT_GE(res.rounds.back().coverage, res.rounds.front().coverage * 0.9);
  EXPECT_GT(res.rounds.back().coverage, 0.0);
}

TEST(DeepDriveMd, AdaptiveCoversAtLeastAsMuchAsPlain) {
  const auto sys = ddmd_system();
  auto opts = fast_opts();
  opts.rounds = 3;
  const auto adaptive = core::run_deepdrivemd(sys, opts, /*adaptive=*/true);
  const auto plain = core::run_deepdrivemd(sys, opts, /*adaptive=*/false);
  // Restarting from latent outliers must not reduce the explored volume
  // (the paper claims large acceleration; at test scale we assert the
  // weaker, stable property).
  EXPECT_GE(adaptive.rounds.back().coverage,
            plain.rounds.back().coverage * 0.8);
}

TEST(DeepDriveMd, DeterministicPerSeed) {
  const auto sys = ddmd_system();
  const auto a = core::run_deepdrivemd(sys, fast_opts());
  const auto b = core::run_deepdrivemd(sys, fast_opts());
  ASSERT_EQ(a.conformations.size(), b.conformations.size());
  EXPECT_DOUBLE_EQ(a.rounds.back().coverage, b.rounds.back().coverage);
}

TEST(DeepDriveMd, CoverageHelperDegenerateInputs) {
  const auto sys = ddmd_system();
  EXPECT_EQ(core::conformational_coverage(sys, {}, 1), 0.0);
  EXPECT_EQ(core::conformational_coverage(sys, {sys.positions}, 1), 0.0);
}

// ---------------------------------------------------------------- profiler

TEST(Profiler, RecordsSubmitStartEnd) {
  obs::Recorder rec;
  rct::SimBackend backend(hpc::test_machine(1));
  backend.set_recorder(&rec);

  for (int i = 0; i < 8; ++i) {  // 8 tasks on 6 GPUs -> 2 must queue
    rct::TaskDescription t;
    t.name = "t";
    t.name += std::to_string(i);
    t.gpus = 1;
    t.duration = 5.0;
    backend.submit(t, [](const rct::TaskResult&) {});
  }
  backend.drain();

  const auto prof = rct::SessionProfile::from_trace(rec.snapshot());
  ASSERT_EQ(prof.tasks.size(), 8u);
  for (const auto& r : prof.tasks) {
    EXPECT_GE(r.start_time, r.submit_time);
    EXPECT_GT(r.end_time, r.start_time);
    EXPECT_TRUE(r.ok);
  }
  // Two tasks waited for a slot.
  int waited = 0;
  for (const auto& r : prof.tasks)
    if (r.queue_wait() > 1.0) ++waited;
  EXPECT_EQ(waited, 2);
  EXPECT_EQ(prof.peak_concurrency(), 6);
  EXPECT_NEAR(prof.makespan(), 10.1, 0.2);
}

TEST(Profiler, ConcurrencyTimelineAndIdleFraction) {
  obs::Recorder rec;
  rct::SimBackend backend(hpc::test_machine(2));
  backend.set_recorder(&rec);
  rct::AppManager mgr(backend, {.stage_transition_overhead = 10.0});

  rct::TaskDescription a;
  a.name = "a";
  a.gpus = 1;
  a.duration = 10.0;
  rct::TaskDescription b = a;
  b.name = "b";
  rct::StageGraph g;
  const auto s1 = g.add({.name = "s1", .pipeline = "two-stage", .tasks = {a}});
  g.add({.name = "s2", .pipeline = "two-stage", .tasks = {b}}, {s1});
  mgr.run_graph(std::move(g));

  const auto prof = rct::SessionProfile::from_trace(rec.snapshot());
  ASSERT_EQ(prof.tasks.size(), 2u);
  // The 10 s stage gap shows up as idle time.
  EXPECT_GT(prof.idle_fraction(), 0.2);
  const auto timeline = prof.concurrency_timeline(30);
  EXPECT_EQ(timeline.size(), 30u);
  const int peak = *std::max_element(timeline.begin(), timeline.end());
  EXPECT_EQ(peak, 1);
  // Some middle bucket must be empty (the transition).
  EXPECT_TRUE(std::find(timeline.begin() + 5, timeline.end() - 5, 0) !=
              timeline.end() - 5);
}

TEST(Profiler, WorksOnLocalBackend) {
  obs::Recorder rec;
  rct::LocalBackend backend(2);
  backend.set_recorder(&rec);
  rct::TaskDescription t;
  t.name = "work";
  t.payload = [] {
    volatile double acc = 0;
    for (int i = 0; i < 100000; ++i) acc = acc + i;
  };
  backend.submit(t, [](const rct::TaskResult&) {});
  backend.drain();
  const auto prof = rct::SessionProfile::from_trace(rec.snapshot());
  ASSERT_EQ(prof.tasks.size(), 1u);
  EXPECT_GE(prof.tasks[0].runtime(), 0.0);
  EXPECT_GE(prof.mean_queue_wait(), 0.0);
}

TEST(Profiler, EmptyProfileIsSafe) {
  obs::Recorder rec;
  rct::SimBackend backend(hpc::test_machine(1));
  backend.set_recorder(&rec);
  const auto prof = rct::SessionProfile::from_trace(rec.snapshot());
  EXPECT_EQ(prof.makespan(), 0.0);
  EXPECT_EQ(prof.peak_concurrency(), 0);
  EXPECT_EQ(prof.idle_fraction(), 0.0);
  EXPECT_TRUE(prof.concurrency_timeline(5) ==
              std::vector<int>({0, 0, 0, 0, 0}));
}
