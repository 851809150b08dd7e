// MD substrate tests: force-field correctness (forces vs finite differences,
// cell list vs brute force), integrator statistics, minimizers, system
// builders, position restraints, PDB/XYZ I/O, equilibration detection
// and trajectory analysis.

#include <gtest/gtest.h>

#include <bit>
#include <cmath>
#include <cstdint>
#include <filesystem>
#include <fstream>
#include <limits>

#include "impeccable/chem/smiles.hpp"
#include "impeccable/common/kabsch.hpp"
#include "impeccable/common/stats.hpp"
#include "impeccable/dock/engine.hpp"
#include "impeccable/dock/receptor.hpp"
#include "impeccable/md/analysis.hpp"
#include "impeccable/md/forcefield.hpp"
#include "impeccable/md/integrator.hpp"
#include "impeccable/md/io.hpp"
#include "impeccable/md/simulation.hpp"
#include "impeccable/md/system.hpp"

#include "test_support.hpp"

namespace md = impeccable::md;
namespace chem = impeccable::chem;
using impeccable::common::Rng;
using impeccable::common::Vec3;

namespace {

/// A small hand-built system: 4 beads, chain bonds, one angle.
md::System tiny_system() {
  md::System sys;
  for (int i = 0; i < 4; ++i) {
    md::Bead b;
    b.kind = i < 3 ? md::BeadKind::Protein : md::BeadKind::Ligand;
    b.charge = (i % 2 == 0) ? 0.3 : -0.3;
    b.hydrophobic = i == 1;
    sys.topology.beads.push_back(b);
    sys.positions.push_back({3.8 * i, 0.4 * i * i, 0.1 * i});
  }
  sys.protein_beads = 3;
  sys.ligand_beads = 1;
  for (int i = 0; i + 1 < 3; ++i)
    sys.topology.bonds.push_back({i, i + 1, 3.8, 40.0});
  sys.topology.angles.push_back({0, 1, 2, 2.0, 8.0});
  return sys;
}

md::System small_lpc(std::uint64_t seed = 3) {
  md::ProteinOptions popts;
  popts.residues = 40;
  const auto protein = md::build_protein(seed, popts);
  const auto mol = chem::parse_smiles("CCOc1ccccc1");
  // Place the ligand at the pocket center via its embedded coords.
  const impeccable::dock::Ligand lig(mol);
  return md::build_lpc(protein, mol, lig.reference_coords());
}

}  // namespace

// ---------------------------------------------------------------- topology

TEST(Topology, SelectionsAndExclusions) {
  const auto sys = tiny_system();
  EXPECT_EQ(sys.topology.selection(md::BeadKind::Protein).size(), 3u);
  EXPECT_EQ(sys.topology.selection(md::BeadKind::Ligand).size(), 1u);
  EXPECT_TRUE(sys.topology.bonded(0, 1));
  EXPECT_TRUE(sys.topology.bonded(1, 0));
  EXPECT_FALSE(sys.topology.bonded(0, 3));
  EXPECT_EQ(sys.topology.exclusions().size(), 2u);
}

// ---------------------------------------------------------------- force field

TEST(ForceField, ForcesMatchFiniteDifferences) {
  const auto sys = tiny_system();
  const md::ForceField ff(sys.topology);
  std::vector<Vec3> forces;
  ff.evaluate(sys.positions, &forces);

  const double h = 1e-6;
  for (std::size_t i = 0; i < sys.positions.size(); ++i) {
    for (int axis = 0; axis < 3; ++axis) {
      auto p1 = sys.positions, p2 = sys.positions;
      (&p1[i].x)[axis] -= h;
      (&p2[i].x)[axis] += h;
      const double fd = -(ff.evaluate(p2, nullptr).total() -
                          ff.evaluate(p1, nullptr).total()) / (2 * h);
      EXPECT_NEAR((&forces[i].x)[axis], fd, 1e-4)
          << "bead " << i << " axis " << axis;
    }
  }
}

TEST(ForceField, ForcesMatchFiniteDifferencesOnLpc) {
  const auto sys = small_lpc();
  const md::ForceField ff(sys.topology);
  // First relax slightly so we are not in the capped-force regime where the
  // analytic force is intentionally clamped.
  auto pos = sys.positions;
  md::minimize_steepest(ff, pos, 50);
  std::vector<Vec3> forces;
  ff.evaluate(pos, &forces);

  const double h = 1e-6;
  Rng rng(5);
  for (int probe = 0; probe < 12; ++probe) {
    const std::size_t i = rng.index(pos.size());
    const int axis = static_cast<int>(rng.index(3));
    auto p1 = pos, p2 = pos;
    (&p1[i].x)[axis] -= h;
    (&p2[i].x)[axis] += h;
    const double fd = -(ff.evaluate(p2, nullptr).total() -
                        ff.evaluate(p1, nullptr).total()) / (2 * h);
    const double an = (&forces[i].x)[axis];
    if (std::abs(an) < ff.options().max_force * 0.95) {
      EXPECT_NEAR(an, fd, std::max(2e-3, std::abs(fd) * 2e-4))
          << "bead " << i << " axis " << axis;
    }
  }
}

TEST(ForceField, CellListMatchesBruteForcePairs) {
  // Random beads; compare pair sets from the cell list vs O(N^2).
  Rng rng(17);
  std::vector<Vec3> pos;
  for (int i = 0; i < 120; ++i)
    pos.push_back({rng.uniform(-15, 15), rng.uniform(-12, 18), rng.uniform(-9, 9)});
  const double cutoff = 6.0;

  md::CellList cl;
  cl.build(pos, cutoff);
  std::set<std::pair<int, int>> from_cells;
  cl.for_each_pair(pos, cutoff, [&](int i, int j) {
    EXPECT_LT(i, j);
    EXPECT_TRUE(from_cells.emplace(i, j).second) << "duplicate pair";
  });
  cl.for_each_pair(pos, cutoff, [&](int i, int j) { from_cells.emplace(i, j); });

  std::set<std::pair<int, int>> brute;
  for (int i = 0; i < 120; ++i)
    for (int j = i + 1; j < 120; ++j)
      if (impeccable::common::distance2(pos[static_cast<std::size_t>(i)],
                                        pos[static_cast<std::size_t>(j)]) <=
          cutoff * cutoff)
        brute.emplace(i, j);
  EXPECT_EQ(from_cells, brute);
}

TEST(ForceField, InteractionEnergyOnlyCountsCrossPairs) {
  const auto sys = tiny_system();
  const md::ForceField ff(sys.topology);
  const auto e = ff.evaluate(sys.positions, nullptr);
  const double direct = ff.interaction_energy(sys.positions);
  EXPECT_NEAR(e.interaction, direct, 1e-9);
  // A protein-only system has zero interaction energy.
  auto prot_only = tiny_system();
  prot_only.topology.beads[3].kind = md::BeadKind::Protein;
  const md::ForceField ff2(prot_only.topology);
  EXPECT_EQ(ff2.evaluate(prot_only.positions, nullptr).interaction, 0.0);
}

TEST(ForceField, BondEnergyZeroAtRestLength) {
  md::System sys;
  sys.topology.beads.resize(2);
  sys.topology.bonds.push_back({0, 1, 2.5, 40.0});
  sys.positions = {{0, 0, 0}, {2.5, 0, 0}};
  const md::ForceField ff(sys.topology);
  EXPECT_NEAR(ff.evaluate(sys.positions, nullptr).bond, 0.0, 1e-12);
  sys.positions[1].x = 3.0;
  EXPECT_NEAR(ff.evaluate(sys.positions, nullptr).bond, 40.0 * 0.25, 1e-9);
}

// Golden bit patterns of the nonbonded kernel on a fixed LPC. Any change to
// ForceField must run the same IEEE operations in the same order, so every
// energy term, the force digest and the pair count stay bit-identical.
namespace {

std::uint64_t bits(double v) { return std::bit_cast<std::uint64_t>(v); }

/// FNV-1a over the bit patterns of every vector component, in order.
std::uint64_t vec3_digest(const std::vector<Vec3>& vs) {
  std::uint64_t h = 0xcbf29ce484222325ULL;
  for (const Vec3& v : vs)
    for (const double c : {v.x, v.y, v.z}) {
      h ^= bits(c);
      h *= 0x100000001b3ULL;
    }
  return h;
}

struct GoldenEval {
  std::uint64_t bond, angle, lj, coulomb, restraint, interaction, dh_dlambda;
  std::uint64_t forces;
  std::uint64_t pairs;
};

GoldenEval golden_eval(const md::ForceField& ff,
                       const std::vector<Vec3>& pos) {
  std::vector<Vec3> forces;
  const auto e = ff.evaluate(pos, &forces);
  // The energy-only path must agree with the force path bit for bit.
  const auto e_only = ff.evaluate(pos, nullptr);
  EXPECT_EQ(bits(e.total()), bits(e_only.total()));
  return {bits(e.bond),        bits(e.angle),
          bits(e.lj),          bits(e.coulomb),
          bits(e.restraint),   bits(e.interaction),
          bits(e.dh_dlambda),  vec3_digest(forces),
          ff.last_pair_count()};
}

void expect_golden(const GoldenEval& got, const GoldenEval& want) {
  EXPECT_EQ(got.bond, want.bond) << std::hex << got.bond;
  EXPECT_EQ(got.angle, want.angle) << std::hex << got.angle;
  EXPECT_EQ(got.lj, want.lj) << std::hex << got.lj;
  EXPECT_EQ(got.coulomb, want.coulomb) << std::hex << got.coulomb;
  EXPECT_EQ(got.restraint, want.restraint) << std::hex << got.restraint;
  EXPECT_EQ(got.interaction, want.interaction) << std::hex << got.interaction;
  EXPECT_EQ(got.dh_dlambda, want.dh_dlambda) << std::hex << got.dh_dlambda;
  EXPECT_EQ(got.forces, want.forces) << std::hex << got.forces;
  EXPECT_EQ(got.pairs, want.pairs);
}

/// The pinned LPC, jittered deterministically off its built coordinates so
/// bonds, angles and restraints all sit away from their rest values.
std::vector<Vec3> golden_positions(const md::System& sys) {
  auto pos = sys.positions;
  Rng rng(29);
  for (auto& p : pos)
    p += Vec3{rng.uniform(-0.3, 0.3), rng.uniform(-0.3, 0.3),
              rng.uniform(-0.3, 0.3)};
  return pos;
}

}  // namespace

TEST(ForceFieldGolden, PhysicalCouplingIsBitExact) {
  const auto sys = small_lpc();
  const auto pos = golden_positions(sys);
  const md::ForceField ff(sys.topology);
  expect_golden(golden_eval(ff, pos),
                {0x4063b11bc9fd0aa9, 0x403530aaab08f1e6, 0x402bc760c57c3dcd,
                 0x3fcc8ad47d0e640e, 0x0, 0xc0204e4645fa414e,
                 0xc020ff92872c1aa0, 0x8fec53ae430d1576, 451});
}

TEST(ForceFieldGolden, HalfCouplingIsBitExact) {
  const auto sys = small_lpc();
  const auto pos = golden_positions(sys);
  md::ForceFieldOptions opts;
  opts.interaction_scale = 0.5;
  const md::ForceField ff(sys.topology, opts);
  expect_golden(golden_eval(ff, pos),
                {0x4063b11bc9fd0aa9, 0x403530aaab08f1e6, 0x4032145e6898a9dc,
                 0x3fc89e06c15db52c, 0x0, 0xc00ff275c4cfb880,
                 0xc0204c58ca153898, 0x759b4316eb7fbb37, 451});
}

TEST(ForceFieldGolden, RestrainedIsBitExact) {
  const auto sys = small_lpc();
  const auto pos = golden_positions(sys);
  md::ForceFieldOptions opts;
  opts.restraint_k = 2.0;
  opts.restraint_ref = sys.positions;
  opts.restrained = sys.topology.selection(md::BeadKind::Protein);
  const md::ForceField ff(sys.topology, opts);
  expect_golden(golden_eval(ff, pos),
                {0x4063b11bc9fd0aa9, 0x403530aaab08f1e6, 0x402bc760c57c3dcd,
                 0x3fcc8ad47d0e640e, 0x401641ad66a4fdac, 0xc0204e4645fa414e,
                 0xc020ff92872c1aa0, 0x4839cc74aa9ddab5, 451});
}

TEST(ForceFieldGolden, CappedForcesAreBitExact) {
  const auto sys = small_lpc();
  const auto pos = golden_positions(sys);
  md::ForceFieldOptions opts;
  opts.max_force = 2.0;
  const md::ForceField capped(sys.topology, opts);
  opts.max_force = std::numeric_limits<double>::infinity();
  const md::ForceField uncapped(sys.topology, opts);
  // The cap must actually fire here, and must not fire at the default cap
  // in the other golden cases.
  std::vector<Vec3> f_capped, f_uncapped, f_default;
  capped.evaluate(pos, &f_capped);
  uncapped.evaluate(pos, &f_uncapped);
  md::ForceField(sys.topology).evaluate(pos, &f_default);
  EXPECT_NE(vec3_digest(f_capped), vec3_digest(f_uncapped));
  EXPECT_EQ(vec3_digest(f_default), vec3_digest(f_uncapped));
  expect_golden(golden_eval(capped, pos),
                {0x4063b11bc9fd0aa9, 0x403530aaab08f1e6, 0x402bc760c57c3dcd,
                 0x3fcc8ad47d0e640e, 0x0, 0xc0204e4645fa414e,
                 0xc020ff92872c1aa0, 0x84e3cadf2e8a7eba, 451});
}

TEST(ForceFieldGolden, InteractionEnergyIsBitExact) {
  const auto sys = small_lpc();
  const auto pos = golden_positions(sys);
  const md::ForceField ff(sys.topology);
  const double e = ff.interaction_energy(pos);
  EXPECT_EQ(bits(e), 0xc0204e4645fa414dULL);
  // interaction_energy is the physical (λ = 1) MMPBSA input: the coupling
  // option must not enter it.
  md::ForceFieldOptions opts;
  opts.interaction_scale = 0.5;
  const double e_half = md::ForceField(sys.topology, opts).interaction_energy(pos);
  EXPECT_EQ(bits(e_half), bits(e));
}

TEST(ForceFieldGolden, ReplicaTrajectoryIsBitExact) {
  // Minimization, restrained equilibration and production: the cell list is
  // rebuilt every step as beads move, so reuse across steps is covered.
  const auto sys = small_lpc();
  md::SimulationOptions so;
  so.minimize_iterations = 20;
  so.equilibration_steps = 30;
  so.equilibration_restraint_k = 1.0;
  so.production_steps = 60;
  so.report_interval = 20;
  const auto res = md::run_replica(sys, so, 7);
  ASSERT_EQ(res.trajectory.size(), 3u);
  const md::Frame& last = res.trajectory.frames.back();
  EXPECT_EQ(vec3_digest(last.positions), 0x4918444e765c84ebULL);
  EXPECT_EQ(bits(last.energy.total()), 0x400ff0e257fe9829ULL);
}

// ---------------------------------------------------------------- minimizers

TEST(Minimize, SteepestDescentLowersEnergy) {
  auto sys = small_lpc(7);
  const md::ForceField ff(sys.topology);
  auto pos = sys.positions;
  const auto res = md::minimize_steepest(ff, pos, 100);
  EXPECT_LE(res.final_energy, res.initial_energy);
  EXPECT_GT(res.iterations, 0);
}

TEST(Minimize, FireLowersEnergyAtLeastAsMuch) {
  auto sys = small_lpc(8);
  const md::ForceField ff(sys.topology);
  auto p1 = sys.positions, p2 = sys.positions;
  const auto sd = md::minimize_steepest(ff, p1, 150);
  const auto fire = md::minimize_fire(ff, p2, 300);
  EXPECT_LE(fire.final_energy, sd.initial_energy);
  EXPECT_LE(fire.final_energy, sd.final_energy + 5.0);
}

// ---------------------------------------------------------------- integrator

TEST(Langevin, TemperatureEquilibratesNearTarget) {
  auto sys = small_lpc(9);
  const md::ForceField ff(sys.topology);
  auto pos = sys.positions;
  md::minimize_steepest(ff, pos, 100);

  md::LangevinOptions lo;
  lo.temperature = 300.0;
  lo.dt = 0.01;
  md::LangevinIntegrator integ(ff, lo, 42);
  std::vector<Vec3> vel;
  integ.thermalize(vel);
  integ.run(pos, vel, 300);

  impeccable::common::RunningStats temp;
  for (int i = 0; i < 30; ++i) {
    integ.run(pos, vel, 10);
    temp.add(integ.kinetic_temperature(vel));
  }
  EXPECT_NEAR(temp.mean(), 300.0, 60.0);
}

TEST(Langevin, DeterministicPerSeed) {
  auto sys = small_lpc(10);
  const md::ForceField ff(sys.topology);
  auto run = [&](std::uint64_t seed) {
    auto pos = sys.positions;
    md::LangevinIntegrator integ(ff, {}, seed);
    std::vector<Vec3> vel;
    integ.thermalize(vel);
    integ.run(pos, vel, 50);
    return pos;
  };
  const auto a = run(5), b = run(5), c = run(6);
  double same = 0, diff = 0;
  for (std::size_t i = 0; i < a.size(); ++i) {
    same += impeccable::common::distance(a[i], b[i]);
    diff += impeccable::common::distance(a[i], c[i]);
  }
  EXPECT_EQ(same, 0.0);
  EXPECT_GT(diff, 1e-3);
}

TEST(Langevin, ThermalizeMatchesMaxwellBoltzmann) {
  auto sys = small_lpc(11);
  const md::ForceField ff(sys.topology);
  md::LangevinOptions lo;
  lo.temperature = 250.0;
  md::LangevinIntegrator integ(ff, lo, 77);
  impeccable::common::RunningStats temps;
  std::vector<Vec3> vel;
  for (int i = 0; i < 40; ++i) {
    integ.thermalize(vel);
    temps.add(integ.kinetic_temperature(vel));
  }
  EXPECT_NEAR(temps.mean(), 250.0, 25.0);
}

// ---------------------------------------------------------------- builders

TEST(Builders, ProteinChainIsConnectedAndPocketIsEmpty) {
  md::ProteinOptions opts;
  opts.residues = 80;
  const auto sys = md::build_protein(4, opts);
  EXPECT_EQ(sys.topology.bead_count(), 80);
  EXPECT_EQ(sys.protein_beads, 80);
  // Chain bonds exist between consecutive residues.
  for (int i = 0; i + 1 < 80; ++i) EXPECT_TRUE(sys.topology.bonded(i, i + 1));
  // No bead intrudes into the pocket core.
  for (const auto& p : sys.positions) EXPECT_GT(p.norm(), opts.pocket_radius - 1.0);
}

TEST(Builders, ProteinIsStableUnderDynamics) {
  md::ProteinOptions opts;
  opts.residues = 60;
  const auto sys = md::build_protein(5, opts);
  md::SimulationOptions so;
  so.production_steps = 300;
  so.equilibration_steps = 100;
  so.report_interval = 30;
  const auto res = md::run_replica(sys, so, 11);
  const auto rmsd = md::rmsd_series(res.trajectory,
                                    sys.topology.selection(md::BeadKind::Protein));
  // The elastic network must keep the fold together: bounded RMSD.
  for (double r : rmsd) EXPECT_LT(r, 6.0);
}

TEST(Builders, LpcCombinesProteinAndLigand) {
  const auto sys = small_lpc(12);
  EXPECT_EQ(sys.protein_beads, 40);
  EXPECT_GT(sys.ligand_beads, 5);
  EXPECT_EQ(sys.topology.bead_count(), sys.protein_beads + sys.ligand_beads);
  EXPECT_EQ(sys.positions.size(),
            static_cast<std::size_t>(sys.topology.bead_count()));
  // Ligand beads are typed Ligand.
  const auto lig = sys.topology.selection(md::BeadKind::Ligand);
  EXPECT_EQ(static_cast<int>(lig.size()), sys.ligand_beads);
}

TEST(Builders, LpcRejectsSizeMismatch) {
  const auto protein = md::build_protein(2, {.residues = 20});
  const auto mol = chem::parse_smiles("CCO");
  std::vector<Vec3> coords(2);  // wrong size
  EXPECT_THROW(md::build_lpc(protein, mol, coords), std::invalid_argument);
}

// ---------------------------------------------------------------- simulation

TEST(Simulation, ProducesRequestedFrames) {
  const auto sys = small_lpc(13);
  md::SimulationOptions so;
  so.production_steps = 200;
  so.report_interval = 25;
  const auto res = md::run_replica(sys, so, 3);
  EXPECT_EQ(res.trajectory.size(), 8u);
  EXPECT_EQ(res.md_steps, static_cast<std::uint64_t>(so.equilibration_steps +
                                                     so.production_steps));
  EXPECT_LE(res.minimization.final_energy, res.minimization.initial_energy);
}

TEST(Simulation, DeterministicPerSeed) {
  const auto sys = small_lpc(14);
  md::SimulationOptions so;
  so.production_steps = 100;
  so.report_interval = 20;
  const auto a = md::run_replica(sys, so, 21);
  const auto b = md::run_replica(sys, so, 21);
  ASSERT_EQ(a.trajectory.size(), b.trajectory.size());
  EXPECT_DOUBLE_EQ(a.trajectory.frames.back().energy.total(),
                   b.trajectory.frames.back().energy.total());
}

// ---------------------------------------------------------------- analysis

TEST(Analysis, RmsdSeriesStartsAtZero) {
  const auto sys = small_lpc(15);
  md::SimulationOptions so;
  so.production_steps = 100;
  so.report_interval = 20;
  const auto res = md::run_replica(sys, so, 5);
  const auto rmsd = md::rmsd_series(res.trajectory,
                                    sys.topology.selection(md::BeadKind::Protein));
  ASSERT_FALSE(rmsd.empty());
  // First stored frame is its own reference.
  EXPECT_NEAR(rmsd.front(), 0.0, 1e-9);
  for (double r : rmsd) EXPECT_GE(r, 0.0);
}

TEST(Analysis, ContactsDetectBoundLigand) {
  const auto sys = small_lpc(16);
  md::SimulationOptions so;
  so.production_steps = 60;
  so.report_interval = 20;
  const auto res = md::run_replica(sys, so, 6);
  const auto contacts = md::contact_series(res.trajectory, sys, 8.0);
  ASSERT_FALSE(contacts.empty());
  for (double c : contacts) EXPECT_GT(c, 0.0);
}

TEST(Analysis, PointCloudIsCenteredProteinOnly) {
  const auto sys = small_lpc(17);
  md::SimulationOptions so;
  so.production_steps = 40;
  so.report_interval = 40;
  const auto res = md::run_replica(sys, so, 7);
  const auto cloud = md::protein_point_cloud(res.trajectory.frames.front(), sys);
  EXPECT_EQ(static_cast<int>(cloud.size()), sys.protein_beads);
  Vec3 c;
  for (const auto& p : cloud) c += p;
  EXPECT_NEAR(c.norm() / static_cast<double>(cloud.size()), 0.0, 1e-9);
}

TEST(Analysis, FlopModelPositive) {
  EXPECT_GT(md::flops_per_md_step(100, 2000), md::flops_per_md_step(10, 50));
}

// ---------------------------------------------------------------- restraints

TEST(Restraints, EnergyAndForcesMatchFiniteDifference) {
  md::System sys;
  sys.topology.beads.resize(3);
  sys.positions = {{0, 0, 0}, {4, 0, 0}, {0, 4, 0}};

  md::ForceFieldOptions opts;
  opts.restraint_k = 3.0;
  opts.restraint_ref = {{0.5, 0, 0}, {4, 0.5, 0}, {0, 4, 0.5}};
  const md::ForceField ff(sys.topology, opts);

  std::vector<Vec3> forces;
  const auto e = ff.evaluate(sys.positions, &forces);
  EXPECT_NEAR(e.restraint, 3.0 * (0.25 + 0.25 + 0.25), 1e-9);

  const double h = 1e-6;
  for (int i = 0; i < 3; ++i) {
    for (int axis = 0; axis < 3; ++axis) {
      auto p1 = sys.positions, p2 = sys.positions;
      (&p1[static_cast<std::size_t>(i)].x)[axis] -= h;
      (&p2[static_cast<std::size_t>(i)].x)[axis] += h;
      const double fd =
          -(ff.evaluate(p2, nullptr).total() - ff.evaluate(p1, nullptr).total()) /
          (2 * h);
      EXPECT_NEAR((&forces[static_cast<std::size_t>(i)].x)[axis], fd, 1e-4);
    }
  }
}

TEST(Restraints, SelectionRestrainsOnlyListedBeads) {
  md::System sys;
  sys.topology.beads.resize(2);
  sys.positions = {{1, 0, 0}, {5, 0, 0}};
  md::ForceFieldOptions opts;
  opts.restraint_k = 2.0;
  opts.restraint_ref = {{0, 0, 0}, {0, 0, 0}};
  opts.restrained = {0};
  const md::ForceField ff(sys.topology, opts);
  EXPECT_NEAR(ff.evaluate(sys.positions, nullptr).restraint, 2.0 * 1.0, 1e-9);
}

TEST(Restraints, MismatchedReferenceThrows) {
  md::System sys;
  sys.topology.beads.resize(2);
  sys.positions = {{0, 0, 0}, {1, 0, 0}};
  md::ForceFieldOptions opts;
  opts.restraint_k = 1.0;
  opts.restraint_ref = {{0, 0, 0}};  // wrong size
  const md::ForceField ff(sys.topology, opts);
  EXPECT_THROW(ff.evaluate(sys.positions, nullptr), std::invalid_argument);
}

TEST(Restraints, RestrainedEquilibrationKeepsProteinCloser) {
  md::ProteinOptions popts;
  popts.residues = 40;
  const auto sys = md::build_protein(9, popts);

  auto run = [&](double k) {
    md::SimulationOptions so;
    so.equilibration_steps = 400;
    so.production_steps = 40;
    so.report_interval = 40;
    so.langevin.temperature = 380.0;
    so.equilibration_restraint_k = k;
    const auto res = md::run_replica(sys, so, 11);
    // Drift of the first production frame from the start.
    const auto sel = sys.topology.selection(md::BeadKind::Protein);
    std::vector<Vec3> ref, cur;
    for (int i : sel) {
      ref.push_back(sys.positions[static_cast<std::size_t>(i)]);
      cur.push_back(res.trajectory.frames.front()
                        .positions[static_cast<std::size_t>(i)]);
    }
    return impeccable::common::rmsd_superposed(ref, cur);
  };

  const double free_drift = run(0.0);
  const double restrained_drift = run(10.0);
  EXPECT_LT(restrained_drift, free_drift);
}

// ------------------------------------------------------------------------ io

TEST(Io, PdbHasOneRecordPerBead) {
  md::ProteinOptions popts;
  popts.residues = 12;
  const auto sys = md::build_protein(3, popts);
  const auto path = tmp_path("imp_test.pdb");
  md::write_pdb(sys, sys.positions, path.string());

  std::ifstream f(path);
  std::string line;
  int atoms = 0;
  bool end_seen = false;
  while (std::getline(f, line)) {
    if (line.rfind("ATOM", 0) == 0 || line.rfind("HETATM", 0) == 0) ++atoms;
    if (line.rfind("END", 0) == 0) end_seen = true;
  }
  EXPECT_EQ(atoms, 12);
  EXPECT_TRUE(end_seen);
  std::filesystem::remove(path);
}

TEST(Io, PdbRejectsMismatchedPositions) {
  md::ProteinOptions popts;
  popts.residues = 5;
  const auto sys = md::build_protein(3, popts);
  std::vector<impeccable::common::Vec3> wrong(3);
  EXPECT_THROW(md::write_pdb(sys, wrong, tmp_path("x.pdb").string()),
               std::invalid_argument);
}

TEST(Io, XyzRoundTripsTrajectory) {
  md::ProteinOptions popts;
  popts.residues = 10;
  const auto sys = md::build_protein(5, popts);
  md::SimulationOptions so;
  so.equilibration_steps = 10;
  so.production_steps = 60;
  so.report_interval = 20;
  const auto res = md::run_replica(sys, so, 2);

  const auto path = tmp_path("imp_test.xyz");
  md::write_xyz(res.trajectory, path.string());
  const auto back = md::read_xyz(path.string());
  ASSERT_EQ(back.size(), res.trajectory.size());
  for (std::size_t fidx = 0; fidx < back.size(); ++fidx) {
    ASSERT_EQ(back.frames[fidx].positions.size(),
              res.trajectory.frames[fidx].positions.size());
    for (std::size_t i = 0; i < back.frames[fidx].positions.size(); ++i)
      EXPECT_NEAR(impeccable::common::distance(
                      back.frames[fidx].positions[i],
                      res.trajectory.frames[fidx].positions[i]),
                  0.0, 1e-5);
  }
  std::filesystem::remove(path);
}

TEST(Io, XyzRejectsGarbage) {
  const auto path = tmp_path("imp_bad.xyz");
  {
    std::ofstream f(path);
    f << "not a count\ncomment\n";
  }
  EXPECT_THROW(md::read_xyz(path.string()), std::runtime_error);
  {
    std::ofstream f(path);
    f << "3\ncomment\nC 1 2 3\n";  // truncated frame
  }
  EXPECT_THROW(md::read_xyz(path.string()), std::runtime_error);
  std::filesystem::remove(path);
  EXPECT_THROW(md::read_xyz("/nonexistent/file.xyz"), std::runtime_error);
}

// ------------------------------------------------------------- equilibration

TEST(Equilibration, SkipsInitialTransient) {
  // Exponential relaxation to a plateau plus noise: the detected production
  // start must skip a solid part of the transient.
  Rng rng(2);
  std::vector<double> series;
  for (int t = 0; t < 512; ++t)
    series.push_back(10.0 * std::exp(-t / 40.0) + rng.gauss(0, 0.3));
  const std::size_t t0 = md::detect_equilibration(series);
  EXPECT_GE(t0, 32u);   // most of the decay (3 time constants ~ 120) skipped
  EXPECT_LT(t0, 256u);  // but not the whole series
}

TEST(Equilibration, StationarySeriesKeepsMostData) {
  Rng rng(3);
  std::vector<double> series;
  for (int t = 0; t < 512; ++t) series.push_back(rng.gauss(0, 1));
  const std::size_t t0 = md::detect_equilibration(series);
  EXPECT_LT(t0, 128u);  // little reason to discard i.i.d. data
}

TEST(Equilibration, ShortSeriesAreSafe) {
  EXPECT_EQ(md::detect_equilibration({}), 0u);
  EXPECT_EQ(md::detect_equilibration({1, 2, 3}), 0u);
}

TEST(AnalysisEdge, RmsdSeriesRejectsEmptySelection) {
  impeccable::md::Trajectory traj;
  traj.frames.emplace_back();
  traj.frames.back().positions = {{0, 0, 0}};
  EXPECT_THROW(impeccable::md::rmsd_series(traj, {}), std::invalid_argument);
}

TEST(AnalysisEdge, SuperposeSinglePoint) {
  const std::vector<Vec3> a{{1, 2, 3}};
  const std::vector<Vec3> b{{-4, 0, 9}};
  // One point: translation alone aligns exactly.
  EXPECT_NEAR(impeccable::common::rmsd_superposed(a, b), 0.0, 1e-12);
}
