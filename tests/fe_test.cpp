// Free-energy protocol tests: MMPBSA-lite estimator, ESMACS ensemble
// statistics (including the CG/FG contrast, the adaptive variant and the
// within-replica error), and the TIES thermodynamic-integration protocol.

#include <gtest/gtest.h>

#include <cmath>

#include "impeccable/chem/descriptors.hpp"
#include "impeccable/chem/smiles.hpp"
#include "impeccable/common/thread_pool.hpp"
#include "impeccable/dock/engine.hpp"
#include "impeccable/dock/receptor.hpp"
#include "impeccable/fe/esmacs.hpp"
#include "impeccable/fe/ties.hpp"
#include "impeccable/md/analysis.hpp"
#include "impeccable/md/forcefield.hpp"

#include "test_support.hpp"

namespace fe = impeccable::fe;
namespace md = impeccable::md;
namespace chem = impeccable::chem;
namespace dock = impeccable::dock;
using impeccable::common::Vec3;

namespace {

fe::EsmacsConfig fast_config(int replicas) {
  fe::EsmacsConfig c = fe::cg_config(0.5);
  c.replicas = replicas;
  c.simulation.minimize_iterations = 60;
  return c;
}

}  // namespace

// ---------------------------------------------------------------- MMPBSA

TEST(Mmpbsa, BoundPoseBeatsPulledApartPose) {
  auto fx = make_lpc("CCOc1ccccc1", 31);
  md::Frame bound;
  bound.positions = fx.system.positions;

  // Pull the ligand 40 Å out of the pocket.
  md::Frame apart = bound;
  const auto lig = fx.system.topology.selection(md::BeadKind::Ligand);
  for (int i : lig) apart.positions[static_cast<std::size_t>(i)].z += 40.0;

  const md::ForceField ff(fx.system.topology);
  const double g_bound = fe::frame_binding_energy(ff, bound, fx.rotatable);
  const double g_apart = fe::frame_binding_energy(ff, apart, fx.rotatable);
  EXPECT_LT(g_bound, g_apart);
  // Fully separated: only the entropy penalty remains.
  EXPECT_NEAR(g_apart, 0.4 * fx.rotatable, 0.5);
}

TEST(Mmpbsa, EntropyPenaltyScalesWithTorsions) {
  auto fx = make_lpc("c1ccccc1", 32);  // rigid ligand
  md::Frame f;
  f.positions = fx.system.positions;
  const md::ForceField ff(fx.system.topology);
  const double g0 = fe::frame_binding_energy(ff, f, 0);
  const double g5 = fe::frame_binding_energy(ff, f, 5);
  EXPECT_NEAR(g5 - g0, 5 * 0.4, 1e-9);
}

TEST(Mmpbsa, ReplicaAverageIsMeanOfFrames) {
  auto fx = make_lpc("CCO", 33);
  md::SimulationOptions so;
  so.production_steps = 60;
  so.report_interval = 20;
  const auto sim = md::run_replica(fx.system, so, 4);
  const md::ForceField ff(fx.system.topology);
  double acc = 0.0;
  for (const auto& f : sim.trajectory.frames)
    acc += fe::frame_binding_energy(ff, f, fx.rotatable);
  acc /= static_cast<double>(sim.trajectory.size());
  EXPECT_NEAR(fe::replica_binding_energy(fx.system, sim.trajectory, fx.rotatable),
              acc, 1e-9);
}

// ---------------------------------------------------------------- ESMACS

TEST(Esmacs, PresetsMatchPaperRatios) {
  const auto cg = fe::cg_config();
  const auto fg = fe::fg_config();
  EXPECT_EQ(cg.replicas, 6);
  EXPECT_EQ(fg.replicas, 24);
  EXPECT_EQ(fg.simulation.equilibration_steps, 2 * cg.simulation.equilibration_steps);
  EXPECT_EQ(fg.simulation.production_steps * 2, 5 * cg.simulation.production_steps);
  // Cost ratio ~ order of magnitude (Sec. 3.2).
  const double cg_cost = static_cast<double>(cg.replicas) *
                         (cg.simulation.equilibration_steps + cg.simulation.production_steps);
  const double fg_cost = static_cast<double>(fg.replicas) *
                         (fg.simulation.equilibration_steps + fg.simulation.production_steps);
  EXPECT_NEAR(fg_cost / cg_cost, 10.0, 3.0);
}

TEST(Esmacs, ProducesReplicaStatistics) {
  auto fx = make_lpc("CCOc1ccccc1", 34);
  const auto res = fe::run_esmacs(fx.system, fx.rotatable, fast_config(4), 77);
  EXPECT_EQ(res.replica_means.size(), 4u);
  EXPECT_GT(res.std_error, 0.0);
  EXPECT_LE(res.ci95.lo, res.binding_free_energy);
  EXPECT_GE(res.ci95.hi, res.binding_free_energy);
  EXPECT_GT(res.md_steps, 0u);
  EXPECT_TRUE(res.trajectories.empty());
}

TEST(Esmacs, DeterministicPerSeed) {
  auto fx = make_lpc("CCN", 35);
  const auto a = fe::run_esmacs(fx.system, fx.rotatable, fast_config(3), 9);
  const auto b = fe::run_esmacs(fx.system, fx.rotatable, fast_config(3), 9);
  EXPECT_DOUBLE_EQ(a.binding_free_energy, b.binding_free_energy);
  const auto c = fe::run_esmacs(fx.system, fx.rotatable, fast_config(3), 10);
  EXPECT_NE(a.binding_free_energy, c.binding_free_energy);
}

TEST(Esmacs, ThreadPoolGivesSameReplicaSet) {
  auto fx = make_lpc("CCCO", 36);
  const auto serial = fe::run_esmacs(fx.system, fx.rotatable, fast_config(3), 5);
  impeccable::common::ThreadPool pool(2);
  const impeccable::common::ComputePoolScope scope(&pool);
  const auto parallel = fe::run_esmacs(fx.system, fx.rotatable, fast_config(3), 5);
  ASSERT_EQ(serial.replica_means.size(), parallel.replica_means.size());
  for (std::size_t i = 0; i < serial.replica_means.size(); ++i)
    EXPECT_DOUBLE_EQ(serial.replica_means[i], parallel.replica_means[i]);
}

TEST(Esmacs, KeepTrajectoriesRetainsEnsemble) {
  auto fx = make_lpc("CCO", 37);
  auto cfg = fast_config(3);
  cfg.keep_trajectories = true;
  const auto res = fe::run_esmacs(fx.system, fx.rotatable, cfg, 6);
  ASSERT_EQ(res.trajectories.size(), 3u);
  for (const auto& t : res.trajectories) EXPECT_GT(t.size(), 0u);
}

TEST(Esmacs, MoreReplicasTightenTheErrorBar) {
  auto fx = make_lpc("CCOc1ccccc1", 38);
  const auto few = fe::run_esmacs(fx.system, fx.rotatable, fast_config(3), 3);
  const auto many = fe::run_esmacs(fx.system, fx.rotatable, fast_config(12), 3);
  // SEM ~ sigma/sqrt(n): 12 replicas should not be worse than 3 (allowing
  // stochastic slack).
  EXPECT_LT(many.std_error, few.std_error * 1.5 + 0.2);
}

TEST(Esmacs, AdaptiveStopsWithinBounds) {
  auto fx = make_lpc("CCOC", 39);
  fe::AdaptiveOptions adapt;
  adapt.min_replicas = 3;
  adapt.max_replicas = 8;
  adapt.batch = 2;
  adapt.target_sem = 0.8;
  const auto res = fe::run_esmacs_adaptive(fx.system, fx.rotatable,
                                           fast_config(0), adapt, 12);
  EXPECT_GE(static_cast<int>(res.replica_means.size()), adapt.min_replicas);
  EXPECT_LE(static_cast<int>(res.replica_means.size()), adapt.max_replicas);
  // Either converged or exhausted the budget.
  if (static_cast<int>(res.replica_means.size()) < adapt.max_replicas) {
    EXPECT_LE(res.std_error, adapt.target_sem);
  }
}

TEST(Esmacs, AdaptiveTightTargetUsesMoreReplicasThanLooseTarget) {
  auto fx = make_lpc("CCOc1ccccc1C", 40);
  fe::AdaptiveOptions loose;
  loose.min_replicas = 3;
  loose.max_replicas = 12;
  loose.target_sem = 100.0;  // trivially satisfied
  fe::AdaptiveOptions tight = loose;
  tight.target_sem = 1e-6;   // unreachable -> run to max
  const auto a = fe::run_esmacs_adaptive(fx.system, fx.rotatable, fast_config(0), loose, 2);
  const auto b = fe::run_esmacs_adaptive(fx.system, fx.rotatable, fast_config(0), tight, 2);
  EXPECT_EQ(a.replica_means.size(), 3u);
  EXPECT_EQ(b.replica_means.size(), 12u);
}

// ---------------------------------------------------------------- TIES

TEST(Ties, WindowsCoverLambdaSchedule) {
  auto fx = make_lpc("CCO", 41);
  fe::TiesConfig cfg;
  cfg.lambdas = {0.0, 0.5, 1.0};
  cfg.replicas_per_window = 2;
  cfg.simulation.production_steps = 60;
  cfg.simulation.equilibration_steps = 30;
  cfg.simulation.report_interval = 20;
  const auto res = fe::run_ties(fx.system, cfg, 4);
  ASSERT_EQ(res.windows.size(), 3u);
  EXPECT_DOUBLE_EQ(res.windows[0].lambda, 0.0);
  EXPECT_DOUBLE_EQ(res.windows[2].lambda, 1.0);
  EXPECT_GT(res.md_steps, 0u);
}

TEST(Ties, CouplingIsFavourableForDockedPose) {
  auto fx = make_lpc("CCOc1ccccc1", 42);
  fe::TiesConfig cfg;
  cfg.lambdas = {0.0, 0.25, 0.5, 0.75, 1.0};
  cfg.replicas_per_window = 3;
  cfg.simulation.production_steps = 100;
  cfg.simulation.equilibration_steps = 40;
  cfg.simulation.report_interval = 20;
  const auto res = fe::run_ties(fx.system, cfg, 5);
  // Switching interactions on for a docked pose must be favourable.
  EXPECT_LT(res.delta_g, 0.0);
  // At λ=1 the mean dH/dλ is the physical interaction energy: negative.
  EXPECT_LT(res.windows.back().mean_dhdl, 0.0);
}

TEST(Ties, RejectsDegenerateSchedule) {
  auto fx = make_lpc("CCO", 43);
  fe::TiesConfig cfg;
  cfg.lambdas = {1.0};
  EXPECT_THROW(fe::run_ties(fx.system, cfg, 1), std::invalid_argument);
}

TEST(Ties, ErrorPropagationIsFinitePositive) {
  auto fx = make_lpc("CCC", 44);
  fe::TiesConfig cfg;
  cfg.lambdas = {0.0, 1.0};
  cfg.replicas_per_window = 3;
  cfg.simulation.production_steps = 60;
  cfg.simulation.equilibration_steps = 20;
  cfg.simulation.report_interval = 20;
  const auto res = fe::run_ties(fx.system, cfg, 6);
  EXPECT_TRUE(std::isfinite(res.delta_g));
  EXPECT_GT(res.std_error, 0.0);
}

// ------------------------------------------------------------- ESMACS errors

TEST(EsmacsErrors, WithinReplicaErrorIsReported) {
  const auto receptor = dock::Receptor::synthesize("E", 71);
  dock::GridOptions gopts;
  gopts.nodes = 21;
  const auto grid = dock::compute_grid(receptor, gopts);
  const auto mol = chem::parse_smiles("CCOc1ccccc1");
  dock::DockOptions dopts;
  dopts.runs = 1;
  dopts.lga.population = 16;
  dopts.lga.generations = 6;
  const auto pose = dock::dock(*grid, mol, "L", dopts);
  md::ProteinOptions popts;
  popts.residues = 40;
  const auto protein = md::build_protein(71, popts);
  const auto lpc = md::build_lpc(protein, mol, pose.best_coords);

  fe::EsmacsConfig cfg = fe::cg_config(0.5);
  cfg.replicas = 3;
  const auto res = fe::run_esmacs(
      lpc, chem::compute_descriptors(mol).rotatable_bonds, cfg, 5);
  EXPECT_GT(res.within_replica_error, 0.0);
  EXPECT_TRUE(std::isfinite(res.within_replica_error));
  // Between-replica and within-replica errors are the same scale here
  // (well-equilibrated small system): both should be O(0.1-10) kcal/mol.
  EXPECT_LT(res.within_replica_error, 50.0);
}
