// Campaign-on-stage-graph tests: science determinism across thread counts,
// backends, and scheduling modes (sequential vs cross-iteration pipelined);
// virtual-time makespan reduction from pipelining; kill-and-resume via the
// periodic checkpoint.

#include <gtest/gtest.h>

#include <cstdio>
#include <string>

#include "impeccable/core/campaign.hpp"
#include "impeccable/core/checkpoint.hpp"
#include "impeccable/hpc/machine.hpp"
#include "impeccable/rct/backend.hpp"

namespace core = impeccable::core;
namespace fe = impeccable::fe;
namespace hpc = impeccable::hpc;
namespace rct = impeccable::rct;

namespace {

core::ScienceConfig graph_science() {
  core::ScienceConfig sci;
  sci.library_size = 40;
  sci.iterations = 2;
  sci.bootstrap_docks = 12;
  sci.dock_top_fraction = 0.3;
  sci.cg_compounds = 3;
  sci.top_binders = 2;
  sci.outliers_per_binder = 2;
  // Slim down every engine for test speed.
  sci.dock.runs = 1;
  sci.dock.lga.population = 12;
  sci.dock.lga.generations = 5;
  sci.esmacs_cg = fe::cg_config(0.25);
  sci.esmacs_cg.replicas = 3;
  sci.esmacs_fg = fe::fg_config(0.1);
  sci.esmacs_fg.replicas = 3;
  sci.surrogate.epochs = 2;
  sci.aae.epochs = 2;
  return sci;
}

core::ExecConfig graph_exec() {
  core::ExecConfig exec;
  exec.seed = 17;
  exec.threads = 2;
  return exec;
}

core::Target graph_target() {
  return core::Target::make("MPro-like", 99, 36, 19);
}

std::string run_fingerprint(const core::ScienceConfig& sci,
                            const core::ExecConfig& exec) {
  core::Campaign campaign(graph_target(), sci, exec);
  return campaign.run().science_fingerprint();
}

}  // namespace

TEST(CampaignGraph, ProducesSameScienceAsAlways) {
  // Sanity on the refactored loop: both iterations ran, feedback reached
  // ML1, and downstream stages saw work.
  core::Campaign campaign(graph_target(), graph_science(), graph_exec());
  const auto report = campaign.run();
  ASSERT_EQ(report.iterations.size(), 2u);
  EXPECT_EQ(report.iterations[0].docked, 12u);
  EXPECT_EQ(report.iterations[1].library_screened, 40u);
  EXPECT_GT(report.iterations[1].docked, 0u);
  for (const auto& it : report.iterations) {
    EXPECT_GT(it.cg_runs, 0u);
    EXPECT_GT(it.fg_runs, 0u);
  }
  EXPECT_GT(report.flops->total("ML1"), 0u);
  EXPECT_GT(report.flops->total("S3-FG"), 0u);
  EXPECT_FALSE(report.science_fingerprint().empty());
}

TEST(CampaignGraph, FingerprintInvariantToThreadCount) {
  core::ExecConfig one = graph_exec();
  one.threads = 1;
  core::ExecConfig many = graph_exec();
  many.threads = 4;
  EXPECT_EQ(run_fingerprint(graph_science(), one),
            run_fingerprint(graph_science(), many));
}

TEST(CampaignGraph, PipelinedModeIsBitwiseIdenticalToSequential) {
  core::ScienceConfig sci = graph_science();
  sci.iterations = 3;
  const core::ExecConfig seq = graph_exec();
  core::ExecConfig pip = seq;
  pip.pipeline_iterations = true;
  pip.threads = 4;  // maximize overlap; science must not notice
  EXPECT_EQ(run_fingerprint(sci, seq), run_fingerprint(sci, pip));
}

TEST(CampaignGraph, SimBackendMatchesLocalBackend) {
  // The same stage modules drive both backends; virtual time vs wall time
  // must not leak into the science.
  core::Campaign local_campaign(graph_target(), graph_science(), graph_exec());
  const std::string local_fp = local_campaign.run().science_fingerprint();

  rct::SimBackend sim(hpc::test_machine(4));
  core::Campaign sim_campaign(graph_target(), graph_science(), graph_exec());
  const std::string sim_fp = sim_campaign.run(sim).science_fingerprint();
  EXPECT_EQ(local_fp, sim_fp);
}

TEST(CampaignGraph, PipeliningReducesVirtualMakespan) {
  core::ScienceConfig sci = graph_science();
  sci.iterations = 3;

  auto makespan = [&](bool pipelined) {
    core::ExecConfig exec = graph_exec();
    exec.pipeline_iterations = pipelined;
    rct::SimBackend sim(hpc::test_machine(8));
    core::Campaign campaign(graph_target(), sci, exec);
    const auto report = campaign.run(sim);
    return report.profile.makespan();
  };

  const double sequential = makespan(false);
  const double pipelined = makespan(true);
  EXPECT_GT(sequential, 0.0);
  // Iteration i+1's ML1+S1 overlap iteration i's CG/S2/FG tail.
  EXPECT_LT(pipelined, sequential);
}

TEST(CampaignGraph, CheckpointEveryIterationSurvivesKillAndResume) {
  const std::string ckpt1 = "campaign_graph_ckpt1.csv";
  const std::string ckpt2 = "campaign_graph_ckpt2.csv";

  // Leg 1: a campaign killed after its first iteration — modeled by running
  // one iteration with periodic checkpointing on.
  core::ScienceConfig sci1 = graph_science();
  sci1.iterations = 1;
  core::ExecConfig leg1 = graph_exec();
  leg1.checkpoint_path = ckpt1;
  core::Campaign first(graph_target(), sci1, leg1);
  const auto report1 = first.run();
  const auto saved = core::read_checkpoint(ckpt1);
  std::size_t saved_docked = 0;
  for (const auto& [id, rec] : saved) saved_docked += rec.docked ? 1 : 0;
  EXPECT_EQ(saved_docked, report1.iterations[0].docked);
  ASSERT_EQ(saved_docked, 12u);

  // Leg 2: resume mid-campaign. Same seed => the bootstrap permutation is
  // identical, so the first 12 picks are exactly the already-docked set and
  // only the 12 fresh ones dock again.
  core::ScienceConfig sci2 = graph_science();
  sci2.iterations = 1;
  sci2.bootstrap_docks = 24;
  core::ExecConfig leg2 = graph_exec();
  leg2.resume_checkpoint = ckpt1;
  leg2.checkpoint_path = ckpt2;
  core::Campaign second(graph_target(), sci2, leg2);
  const auto report2 = second.run();

  EXPECT_EQ(report2.iterations[0].docked, 12u);  // no redone work
  std::size_t total_docked = 0;
  for (const auto& [id, rec] : report2.compounds)
    total_docked += rec.docked ? 1 : 0;
  EXPECT_EQ(total_docked, 24u);  // restored + fresh
  // Every leg-1 compound survived the roundtrip with its score intact.
  for (const auto& [id, rec] : saved) {
    if (!rec.docked) continue;
    const auto& after = report2.compounds.at(id);
    EXPECT_TRUE(after.docked);
    EXPECT_DOUBLE_EQ(after.dock_score, rec.dock_score);
  }
  // The leg-2 checkpoint accumulated both legs.
  const auto saved2 = core::read_checkpoint(ckpt2);
  std::size_t saved2_docked = 0;
  for (const auto& [id, rec] : saved2) saved2_docked += rec.docked ? 1 : 0;
  EXPECT_EQ(saved2_docked, 24u);

  std::remove(ckpt1.c_str());
  std::remove(ckpt2.c_str());
}

TEST(CampaignGraph, RetryConfigFlowsThroughToTheEngine) {
  // max_retries/stage_transition_overhead now come from the config; a
  // campaign on a walltime-limited pilot retries the killed tasks and
  // still completes all science.
  core::ScienceConfig sci = graph_science();
  sci.iterations = 1;
  core::ExecConfig exec = graph_exec();
  exec.max_retries = 4;
  exec.stage_transition_overhead = 0.1;
  // Every task fits inside one pilot window, so a task killed mid-window
  // always succeeds when retried at the boundary.
  exec.sim_durations = {.ml1 = 5.0, .dock = 1.0, .cg = 8.0, .s2 = 5.0, .fg = 8.0};

  rct::SimBackendOptions sopts;
  sopts.pilot_walltime = 10.0;  // several pilots per campaign
  rct::SimBackend sim(hpc::test_machine(4), sopts);
  core::Campaign campaign(graph_target(), sci, exec);
  const auto report = campaign.run(sim);
  EXPECT_GT(sim.pilot_generation(), 1);
  EXPECT_EQ(report.iterations[0].docked, 12u);
  EXPECT_GT(report.iterations[0].fg_runs, 0u);
}
