// Integration tests for the IMPECCABLE campaign: the full five-stage
// iterative loop on a small target and library, the multi-structure
// path, and the DeepDriveMD adaptive-sampling driver.

#include <gtest/gtest.h>

#include <cmath>

#include "impeccable/core/campaign.hpp"
#include "impeccable/core/deepdrivemd.hpp"
#include "impeccable/md/system.hpp"

namespace core = impeccable::core;
namespace fe = impeccable::fe;
namespace md = impeccable::md;

namespace {

core::ScienceConfig tiny_science() {
  core::ScienceConfig sci;
  sci.library_size = 60;
  sci.iterations = 2;
  sci.bootstrap_docks = 16;
  sci.dock_top_fraction = 0.25;
  sci.cg_compounds = 4;
  sci.top_binders = 2;
  sci.outliers_per_binder = 2;
  // Slim down every engine for test speed.
  sci.dock.runs = 1;
  sci.dock.lga.population = 16;
  sci.dock.lga.generations = 6;
  sci.esmacs_cg = fe::cg_config(0.3);
  sci.esmacs_cg.replicas = 3;
  sci.esmacs_fg = fe::fg_config(0.1);
  sci.esmacs_fg.replicas = 4;
  sci.surrogate.epochs = 3;
  sci.aae.epochs = 3;
  return sci;
}

core::ExecConfig tiny_exec() {
  core::ExecConfig exec;
  exec.seed = 11;
  return exec;
}

const core::CampaignReport& tiny_report() {
  static const core::CampaignReport report = [] {
    core::Target target = core::Target::make("PLPro-like", 42, 40, 21);
    core::Campaign campaign(std::move(target), tiny_science(), tiny_exec());
    return campaign.run();
  }();
  return report;
}

}  // namespace

TEST(Campaign, RunsAllIterations) {
  const auto& report = tiny_report();
  ASSERT_EQ(report.iterations.size(), 2u);
  for (const auto& it : report.iterations) {
    EXPECT_GT(it.docked, 0u);
    EXPECT_GT(it.cg_runs, 0u);
    EXPECT_GT(it.fg_runs, 0u);
    EXPECT_GT(it.wall_seconds, 0.0);
  }
}

TEST(Campaign, EveryIterationScreensWholeLibrary) {
  const auto& report = tiny_report();
  // The enrichment denominator is the full library on every iteration —
  // including the warm-up one, whose untrained surrogate still covers the
  // whole library before bootstrap sampling picks the dock set. (A former
  // fallback silently substituted `docked` when ML1 had not stamped it,
  // which inflated effective_ligands_per_second's meaning on iteration 0.)
  EXPECT_EQ(report.iterations[0].library_screened, 60u);
  EXPECT_GT(report.iterations[0].docked, 0u);
  EXPECT_EQ(report.iterations[1].library_screened, 60u);
  EXPECT_LT(report.iterations[1].docked, 60u);
}

TEST(Campaign, EffectiveThroughputExceedsRawAfterMl1) {
  const auto& report = tiny_report();
  const auto& it1 = report.iterations[1];
  // Scientific performance: the library coverage per unit time exceeds the
  // docked-compound count per unit time by the ML1 leverage factor.
  EXPECT_GT(it1.effective_ligands_per_second * it1.wall_seconds,
            static_cast<double>(it1.docked));
}

TEST(Campaign, RecordsArePopulatedConsistently) {
  const auto& report = tiny_report();
  std::size_t docked = 0, cg = 0, fg_energies = 0;
  for (const auto& [id, rec] : report.compounds) {
    EXPECT_FALSE(rec.smiles.empty());
    if (rec.docked) {
      ++docked;
      EXPECT_TRUE(std::isfinite(rec.dock_score));
    }
    if (rec.cg_done) {
      ++cg;
      EXPECT_TRUE(rec.docked);  // CG only runs on docked compounds
      EXPECT_TRUE(std::isfinite(rec.cg_energy));
    }
    fg_energies += rec.fg_energies.size();
  }
  EXPECT_GT(docked, 0u);
  EXPECT_GT(cg, 0u);
  // 2 iterations x top_binders x outliers_per_binder (bounded above).
  EXPECT_GT(fg_energies, 0u);
  EXPECT_LE(fg_energies, 2u * 2u * 2u);
}

TEST(Campaign, CgRankingIsSorted) {
  const auto& report = tiny_report();
  const auto ranking = report.cg_ranking();
  ASSERT_GT(ranking.size(), 1u);
  for (std::size_t i = 1; i < ranking.size(); ++i)
    EXPECT_LE(ranking[i - 1]->cg_energy, ranking[i]->cg_energy);
}

TEST(Campaign, FlopsAccumulatePerComponent) {
  const auto& report = tiny_report();
  EXPECT_GT(report.flops->total("S1"), 0u);
  EXPECT_GT(report.flops->total("S3-CG"), 0u);
  EXPECT_GT(report.flops->total("S3-FG"), 0u);
  EXPECT_GT(report.flops->total("S2"), 0u);
  EXPECT_GT(report.flops->total("ML1"), 0u);  // iteration 1 trained
}

TEST(Campaign, FgEnergiesAttachToTopBinders) {
  const auto& report = tiny_report();
  // Every compound with FG energies must be among the better CG binders.
  const auto ranking = report.cg_ranking();
  std::size_t with_fg = 0;
  for (std::size_t i = 0; i < ranking.size(); ++i)
    if (!ranking[i]->fg_energies.empty()) ++with_fg;
  EXPECT_GT(with_fg, 0u);
}

TEST(Target, MakeIsDeterministic) {
  const auto a = core::Target::make("T", 7, 30, 15);
  const auto b = core::Target::make("T", 7, 30, 15);
  EXPECT_EQ(a.receptor.atoms().size(), b.receptor.atoms().size());
  EXPECT_EQ(a.protein.positions.size(), b.protein.positions.size());
  for (std::size_t i = 0; i < a.protein.positions.size(); ++i)
    EXPECT_EQ(a.protein.positions[i], b.protein.positions[i]);
}

TEST(Campaign, AutoBudgetSizesDockingFromRes) {
  core::ScienceConfig sci = tiny_science();
  sci.auto_dock_budget = true;
  sci.auto_budget_top = 0.05;
  sci.auto_budget_coverage = 0.5;
  sci.bootstrap_docks = 24;  // >= 20 docked validation points for the RES
  core::Target target = core::Target::make("auto", 43, 40, 21);
  core::Campaign campaign(std::move(target), sci, tiny_exec());
  const auto report = campaign.run();
  ASSERT_EQ(report.iterations.size(), 2u);
  // The second iteration's budget came from the RES: bounded by the clamp
  // [4, library/2] and by construction different from the bootstrap.
  EXPECT_GE(report.iterations[1].docked, 1u);
  EXPECT_LE(report.iterations[1].docked, sci.library_size / 2);
}

TEST(CampaignMultiStructure, RunsWithCrystalEnsembleAndConformers) {
  core::ScienceConfig sci;
  sci.library_size = 30;
  sci.iterations = 1;
  sci.bootstrap_docks = 8;
  sci.cg_compounds = 2;
  sci.top_binders = 1;
  sci.outliers_per_binder = 1;
  sci.conformers_per_ligand = 2;  // exercised when grids.size() == 1
  sci.dock.runs = 1;
  sci.dock.lga.population = 12;
  sci.dock.lga.generations = 4;
  sci.esmacs_cg = impeccable::fe::cg_config(0.2);
  sci.esmacs_cg.replicas = 2;
  sci.esmacs_fg = impeccable::fe::fg_config(0.05);
  sci.esmacs_fg.replicas = 2;
  sci.aae.epochs = 2;

  core::Target target = core::Target::make("multi", 9, 30, 15,
                                           /*crystal_structures=*/2);
  core::Campaign campaign(std::move(target), sci, core::ExecConfig{});
  const auto report = campaign.run();
  ASSERT_EQ(report.iterations.size(), 1u);
  EXPECT_EQ(report.iterations[0].docked, 8u);
  EXPECT_GT(report.iterations[0].fg_runs, 0u);
}

// --------------------------------------------------------------- DeepDriveMD

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
