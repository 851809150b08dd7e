// Edge-case sweeps across modules: SMILES corner syntax, docking box walls,
// grid/cluster boundaries, DES counters, and small-input robustness.

#include <gtest/gtest.h>

#include <cmath>

#include "impeccable/chem/smiles.hpp"
#include "impeccable/common/kabsch.hpp"
#include "impeccable/dock/receptor.hpp"
#include "impeccable/dock/score.hpp"
#include "impeccable/dock/search.hpp"
#include "impeccable/hpc/des.hpp"
#include "impeccable/md/analysis.hpp"
#include "impeccable/md/simulation.hpp"

namespace chem = impeccable::chem;
namespace dock = impeccable::dock;
namespace hpc = impeccable::hpc;
using impeccable::common::Rng;
using impeccable::common::Vec3;

// ---------------------------------------------------------------- SMILES

TEST(SmilesEdge, MultiCharges) {
  const auto dication = chem::parse_smiles("[NH2+]CC[NH2+]");
  int total = 0;
  for (int i = 0; i < dication.atom_count(); ++i)
    total += dication.atom(i).formal_charge;
  EXPECT_EQ(total, 2);

  const auto two = chem::parse_smiles("[N+2]");
  EXPECT_EQ(two.atom(0).formal_charge, 2);
  const auto double_plus = chem::parse_smiles("[N++]");
  EXPECT_EQ(double_plus.atom(0).formal_charge, 2);
  const auto minus2 = chem::parse_smiles("[O-2]");
  EXPECT_EQ(minus2.atom(0).formal_charge, -2);
}

TEST(SmilesEdge, ExplicitAromaticBondSymbol) {
  const auto a = chem::parse_smiles("c1ccccc1");
  const auto b = chem::parse_smiles("c:1:c:c:c:c:c:1");
  EXPECT_EQ(chem::write_smiles(a), chem::write_smiles(b));
}

TEST(SmilesEdge, IsotopesAreAcceptedAndIgnored) {
  const auto a = chem::parse_smiles("[13CH4]");
  EXPECT_EQ(a.formula(), "CH4");
  const auto b = chem::parse_smiles("[2H]");  // deuterium -> plain H atom
  EXPECT_EQ(b.atom(0).element, chem::Element::H);
}

TEST(SmilesEdge, RingBondOrderAtEitherEnd) {
  // Cyclohexene written with '=' on the opening or closing digit.
  const auto open = chem::parse_smiles("C=1CCCCC1");
  const auto close = chem::parse_smiles("C1CCCCC=1");
  EXPECT_EQ(chem::write_smiles(open), chem::write_smiles(close));
  int doubles = 0;
  for (int b = 0; b < open.bond_count(); ++b)
    if (open.bond(b).order == 2) ++doubles;
  EXPECT_EQ(doubles, 1);
}

TEST(SmilesEdge, FusedAromaticWithPyrroleNitrogen) {
  // Indole: the [nH] must survive the round trip inside a fused system.
  const auto mol = chem::parse_smiles("c1ccc2[nH]ccc2c1");
  const auto re = chem::parse_smiles(chem::write_smiles(mol));
  EXPECT_EQ(mol.formula(), re.formula());
  int nh = 0;
  for (int i = 0; i < re.atom_count(); ++i)
    if (re.atom(i).element == chem::Element::N && re.hydrogen_count(i) == 1)
      ++nh;
  EXPECT_EQ(nh, 1);
}

// ---------------------------------------------------------------- docking box

TEST(DockingBox, SearchPullsEscapedPosesBackInside) {
  const auto receptor = dock::Receptor::synthesize("wall", 3);
  dock::GridOptions gopts;
  gopts.nodes = 21;
  const auto grid = dock::compute_grid(receptor, gopts);
  const auto mol = chem::parse_smiles("CCO");
  const dock::Ligand lig(mol);
  const dock::ScoringFunction score(*grid, lig);

  // Start far outside the box: the quadratic wall dominates and ADADELTA
  // must pull the pose back towards the box.
  dock::Pose outside = lig.identity_pose(grid->pocket_center +
                                         Vec3{30.0, 0.0, 0.0});
  const double e_out = score.evaluate(outside);
  EXPECT_GT(e_out, 1e4);  // deep in the wall

  dock::AdadeltaOptions aopts;
  aopts.max_iterations = 300;
  const auto relaxed = dock::adadelta(score, outside, aopts);
  EXPECT_LT(relaxed.energy, e_out * 0.1);
  const double dist = impeccable::common::distance(relaxed.pose.translation,
                                                   grid->pocket_center);
  EXPECT_LT(dist, 30.0);  // moved inward
}

TEST(DockingBox, WallEnergyGrowsQuadratically) {
  const auto receptor = dock::Receptor::synthesize("wall2", 4);
  dock::GridOptions gopts;
  gopts.nodes = 21;
  const auto grid = dock::compute_grid(receptor, gopts);
  const auto& field = grid->map(dock::ProbeType::Carbon);
  const Vec3 center = grid->pocket_center;
  const double half = 5.0;  // box half-width: (21-1) nodes x 0.5 A / 2
  const double e1 = field.sample(center + Vec3{half + 2.0, 0, 0}).value;
  const double e2 = field.sample(center + Vec3{half + 4.0, 0, 0}).value;
  // Doubling the overshoot roughly quadruples the wall term.
  EXPECT_GT(e2, 2.5 * e1);
}

// ---------------------------------------------------------------- DES

TEST(DesEdge, ProcessedCounterAndRunUntilResume) {
  hpc::Simulator sim;
  int hits = 0;
  for (int i = 1; i <= 5; ++i)
    sim.schedule_at(i, [&] { ++hits; });
  sim.run_until(2.5);
  EXPECT_EQ(hits, 2);
  EXPECT_EQ(sim.processed(), 2u);
  sim.run();
  EXPECT_EQ(hits, 5);
  EXPECT_EQ(sim.processed(), 5u);
}

// ---------------------------------------------------------------- analysis

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
