// Docking substrate tests: grid interpolation and gradients (vs finite
// differences), ligand kinematics, pose-space gradients, local searches and
// the full LGA engine, the docking-box wall, conformer ensembles and
// multi-structure docking.

#include <gtest/gtest.h>

#include <cmath>

#include "impeccable/chem/smiles.hpp"
#include "impeccable/common/kabsch.hpp"
#include "impeccable/common/rng.hpp"
#include "impeccable/core/campaign.hpp"
#include "impeccable/dock/engine.hpp"
#include "impeccable/dock/receptor.hpp"
#include "impeccable/dock/score.hpp"
#include "impeccable/dock/search.hpp"

#include "test_support.hpp"

namespace dock = impeccable::dock;
namespace chem = impeccable::chem;
namespace core = impeccable::core;
using impeccable::common::Rng;
using impeccable::common::Vec3;

// ---------------------------------------------------------------- GridField

TEST(GridField, ExactAtNodes) {
  dock::GridField f({0, 0, 0}, 1.0, 4, 4, 4);
  f.at(1, 2, 3) = 5.5;
  // The z coordinate sits on the box boundary, where the interpolation
  // domain is clamped by 1e-9 — hence the loose tolerance.
  const auto s = f.sample({1.0, 2.0, 3.0});
  EXPECT_NEAR(s.value, 5.5, 1e-6);
  f.at(2, 1, 1) = -3.25;
  EXPECT_NEAR(f.sample({2.0, 1.0, 1.0}).value, -3.25, 1e-12);
}

TEST(GridField, LinearFieldInterpolatesExactly) {
  // f(x,y,z) = 2x + 3y - z is reproduced exactly by trilinear interpolation,
  // including its gradient.
  dock::GridField f({-1, -1, -1}, 0.5, 9, 9, 9);
  for (int z = 0; z < 9; ++z)
    for (int y = 0; y < 9; ++y)
      for (int x = 0; x < 9; ++x) {
        const Vec3 p = f.node(x, y, z);
        f.at(x, y, z) = 2 * p.x + 3 * p.y - p.z;
      }
  const auto s = f.sample({0.3, -0.7, 0.9});
  EXPECT_NEAR(s.value, 2 * 0.3 + 3 * -0.7 - 0.9, 1e-10);
  EXPECT_NEAR(s.gradient.x, 2.0, 1e-10);
  EXPECT_NEAR(s.gradient.y, 3.0, 1e-10);
  EXPECT_NEAR(s.gradient.z, -1.0, 1e-10);
}

TEST(GridField, GradientMatchesFiniteDifference) {
  dock::GridField f({0, 0, 0}, 0.5, 8, 8, 8);
  Rng rng(3);
  for (int z = 0; z < 8; ++z)
    for (int y = 0; y < 8; ++y)
      for (int x = 0; x < 8; ++x) f.at(x, y, z) = rng.uniform(-2, 2);
  const Vec3 p{1.3, 2.1, 0.8};
  const auto s = f.sample(p);
  const double h = 1e-6;
  const double gx = (f.sample(p + Vec3{h, 0, 0}).value - f.sample(p - Vec3{h, 0, 0}).value) / (2 * h);
  const double gy = (f.sample(p + Vec3{0, h, 0}).value - f.sample(p - Vec3{0, h, 0}).value) / (2 * h);
  const double gz = (f.sample(p + Vec3{0, 0, h}).value - f.sample(p - Vec3{0, 0, h}).value) / (2 * h);
  EXPECT_NEAR(s.gradient.x, gx, 1e-5);
  EXPECT_NEAR(s.gradient.y, gy, 1e-5);
  EXPECT_NEAR(s.gradient.z, gz, 1e-5);
}

TEST(GridField, OutOfBoxPenaltyGrowsAndPushesInward) {
  dock::GridField f({0, 0, 0}, 1.0, 4, 4, 4);
  const auto near = f.sample({-0.5, 1.5, 1.5});
  const auto far = f.sample({-2.0, 1.5, 1.5});
  EXPECT_GT(near.value, 0.0);
  EXPECT_GT(far.value, near.value);
  // Gradient must point outward in energy (negative x direction increases E),
  // i.e. dE/dx < 0 so descending moves +x (inward).
  EXPECT_LT(far.gradient.x, 0.0);
}

TEST(GridField, RejectsDegenerate) {
  EXPECT_THROW(dock::GridField({0, 0, 0}, 1.0, 1, 4, 4), std::invalid_argument);
  EXPECT_THROW(dock::GridField({0, 0, 0}, 0.0, 4, 4, 4), std::invalid_argument);
}

// ---------------------------------------------------------------- Receptor

TEST(Receptor, DeterministicSynthesis) {
  const auto a = dock::Receptor::synthesize("X", 5);
  const auto b = dock::Receptor::synthesize("X", 5);
  ASSERT_EQ(a.atoms().size(), b.atoms().size());
  for (std::size_t i = 0; i < a.atoms().size(); ++i)
    EXPECT_EQ(a.atoms()[i].position, b.atoms()[i].position);
}

TEST(Receptor, DifferentSeedsDiffer) {
  const auto a = dock::Receptor::synthesize("X", 5);
  const auto b = dock::Receptor::synthesize("X", 6);
  double diff = 0;
  const std::size_t n = std::min(a.atoms().size(), b.atoms().size());
  for (std::size_t i = 0; i < n; ++i)
    diff += impeccable::common::distance(a.atoms()[i].position, b.atoms()[i].position);
  EXPECT_GT(diff, 1.0);
}

TEST(Receptor, PocketCavityIsFavorable) {
  // The pocket center must be a low-energy region for a carbon probe
  // relative to a point inside the receptor wall.
  const auto grid = receptor_grid("T1", 11, 25);
  const auto center = grid->map(dock::ProbeType::Carbon).sample(grid->pocket_center);
  EXPECT_LT(center.value, 10.0);  // not clashing
}

// ---------------------------------------------------------------- Ligand

TEST(Ligand, TorsionCountMatchesRotatableBonds) {
  const auto mol = chem::parse_smiles("CCCCO");  // propyl chain: 2 rotatable
  const dock::Ligand lig(mol);
  EXPECT_EQ(lig.torsion_count(), 2);
  const auto rigid = chem::parse_smiles("c1ccccc1");
  EXPECT_EQ(dock::Ligand(rigid).torsion_count(), 0);
}

TEST(Ligand, IdentityPoseReproducesReference) {
  const auto mol = chem::parse_smiles("CC(=O)Oc1ccccc1C(=O)O");
  const dock::Ligand lig(mol);
  std::vector<Vec3> coords;
  lig.build_coords(lig.identity_pose({0, 0, 0}), coords);
  for (std::size_t i = 0; i < coords.size(); ++i)
    EXPECT_NEAR(impeccable::common::distance(coords[i], lig.reference_coords()[i]),
                0.0, 1e-12);
}

TEST(Ligand, TranslationMovesAllAtoms) {
  const auto mol = chem::parse_smiles("CCO");
  const dock::Ligand lig(mol);
  std::vector<Vec3> a, b;
  lig.build_coords(lig.identity_pose({0, 0, 0}), a);
  lig.build_coords(lig.identity_pose({3, -2, 1}), b);
  for (std::size_t i = 0; i < a.size(); ++i) {
    EXPECT_NEAR(b[i].x - a[i].x, 3.0, 1e-12);
    EXPECT_NEAR(b[i].y - a[i].y, -2.0, 1e-12);
    EXPECT_NEAR(b[i].z - a[i].z, 1.0, 1e-12);
  }
}

TEST(Ligand, TorsionPreservesBondLengths) {
  const auto mol = chem::parse_smiles("CCCCCC");
  const dock::Ligand lig(mol);
  auto pose = lig.identity_pose({0, 0, 0});
  for (auto& t : pose.torsions) t = 1.0;
  std::vector<Vec3> coords;
  lig.build_coords(pose, coords);
  std::vector<Vec3> ref;
  lig.build_coords(lig.identity_pose({0, 0, 0}), ref);
  for (int bi = 0; bi < mol.bond_count(); ++bi) {
    const auto& b = mol.bond(bi);
    EXPECT_NEAR(impeccable::common::distance(coords[static_cast<std::size_t>(b.a)],
                                             coords[static_cast<std::size_t>(b.b)]),
                impeccable::common::distance(ref[static_cast<std::size_t>(b.a)],
                                             ref[static_cast<std::size_t>(b.b)]),
                1e-9);
  }
}

TEST(Ligand, RotationIsRigid) {
  const auto mol = chem::parse_smiles("CC(C)CC");
  const dock::Ligand lig(mol);
  auto pose = lig.identity_pose({1, 2, 3});
  pose.rotate_by({0.4, -0.2, 0.7});
  std::vector<Vec3> coords, ref;
  lig.build_coords(pose, coords);
  lig.build_coords(lig.identity_pose({0, 0, 0}), ref);
  EXPECT_NEAR(impeccable::common::rmsd_superposed(ref, coords), 0.0, 1e-9);
}

TEST(Ligand, PartialChargesSumToFormalCharge) {
  for (const char* s : {"CCO", "CC(=O)[O-]", "C[NH3+]", "c1ccncc1"}) {
    const auto mol = chem::parse_smiles(s);
    const auto q = dock::partial_charges(mol);
    double total = 0, expected = 0;
    for (double x : q) total += x;
    for (int i = 0; i < mol.atom_count(); ++i) expected += mol.atom(i).formal_charge;
    EXPECT_NEAR(total, expected, 1e-9) << s;
  }
}

TEST(Ligand, OxygenMoreNegativeThanCarbon) {
  const auto mol = chem::parse_smiles("CCO");
  const auto q = dock::partial_charges(mol);
  EXPECT_LT(q[2], q[0]);  // O more negative than terminal C
}

TEST(Ligand, RandomPoseWithinRadius) {
  const auto mol = chem::parse_smiles("CCO");
  const dock::Ligand lig(mol);
  Rng rng(4);
  for (int i = 0; i < 50; ++i) {
    const auto p = lig.random_pose({1, 1, 1}, 3.0, rng);
    EXPECT_LE(impeccable::common::distance(p.translation, {1, 1, 1}), 3.0 + 1e-9);
    const double qn = std::sqrt(p.qw * p.qw + p.qx * p.qx + p.qy * p.qy + p.qz * p.qz);
    EXPECT_NEAR(qn, 1.0, 1e-9);
  }
}

// ---------------------------------------------------------------- gradients

TEST(Score, PoseGradientMatchesFiniteDifference) {
  const auto grid = receptor_grid("T1", 2, 25);
  const auto mol = chem::parse_smiles("CC(=O)Oc1ccccc1C(=O)O");
  const dock::Ligand lig(mol, 3);
  const dock::ScoringFunction score(*grid, lig);

  Rng rng(77);
  dock::Pose pose = lig.random_pose(grid->pocket_center, 2.0, rng);

  dock::PoseGradient g;
  score.evaluate_with_gradient(pose, g);

  const double h = 1e-5;
  // Translation genes.
  for (int axis = 0; axis < 3; ++axis) {
    dock::Pose p1 = pose, p2 = pose;
    Vec3 dv;
    (&dv.x)[axis] = h;
    p1.translation -= dv;
    p2.translation += dv;
    const double fd = (score.evaluate(p2) - score.evaluate(p1)) / (2 * h);
    const double an = (&g.translation.x)[axis];
    EXPECT_NEAR(an, fd, std::max(1e-3, std::abs(fd) * 1e-3)) << "axis " << axis;
  }
  // Rotation genes (torque).
  for (int axis = 0; axis < 3; ++axis) {
    Vec3 omega;
    (&omega.x)[axis] = h;
    dock::Pose p1 = pose, p2 = pose;
    p2.rotate_by(omega);
    p1.rotate_by(-omega);
    const double fd = (score.evaluate(p2) - score.evaluate(p1)) / (2 * h);
    const double an = (&g.torque.x)[axis];
    EXPECT_NEAR(an, fd, std::max(1e-3, std::abs(fd) * 1e-3)) << "rot axis " << axis;
  }
  // Torsion genes.
  for (std::size_t t = 0; t < pose.torsions.size(); ++t) {
    dock::Pose p1 = pose, p2 = pose;
    p1.torsions[t] -= h;
    p2.torsions[t] += h;
    const double fd = (score.evaluate(p2) - score.evaluate(p1)) / (2 * h);
    EXPECT_NEAR(g.torsions[t], fd, std::max(1e-3, std::abs(fd) * 1e-3)) << "torsion " << t;
  }
}

TEST(Score, CountsEvaluations) {
  const auto grid = receptor_grid("T1", 2, 25);
  const auto mol = chem::parse_smiles("CCO");
  const dock::Ligand lig(mol);
  const dock::ScoringFunction score(*grid, lig);
  const auto pose = lig.identity_pose(grid->pocket_center);
  score.evaluate(pose);
  score.evaluate(pose);
  dock::PoseGradient g;
  score.evaluate_with_gradient(pose, g);
  EXPECT_EQ(score.evaluations(), 3u);
}

// ---------------------------------------------------------------- searches

TEST(Search, SolisWetsNeverWorsens) {
  const auto grid = receptor_grid("T1", 5, 25);
  const auto mol = chem::parse_smiles("CCOc1ccccc1");
  const dock::Ligand lig(mol);
  const dock::ScoringFunction score(*grid, lig);
  Rng rng(9);
  const auto start = lig.random_pose(grid->pocket_center, 3.0, rng);
  const double e0 = score.evaluate(start);
  const auto res = dock::solis_wets(score, start, rng);
  EXPECT_LE(res.energy, e0);
}

TEST(Search, AdadeltaNeverWorsens) {
  const auto grid = receptor_grid("T1", 5, 25);
  const auto mol = chem::parse_smiles("CCOc1ccccc1");
  const dock::Ligand lig(mol);
  const dock::ScoringFunction score(*grid, lig);
  Rng rng(10);
  const auto start = lig.random_pose(grid->pocket_center, 3.0, rng);
  const double e0 = score.evaluate(start);
  const auto res = dock::adadelta(score, start);
  EXPECT_LE(res.energy, e0);
}

TEST(Search, LocalSearchImprovesTypicalStarts) {
  const auto grid = receptor_grid("T1", 6, 25);
  const auto mol = chem::parse_smiles("CC(C)c1ccc(O)cc1");
  const dock::Ligand lig(mol);
  const dock::ScoringFunction score(*grid, lig);
  Rng rng(11);
  int improved = 0;
  for (int i = 0; i < 10; ++i) {
    const auto start = lig.random_pose(grid->pocket_center, 3.0, rng);
    const double e0 = score.evaluate(start);
    if (dock::adadelta(score, start).energy < e0 - 1e-6) ++improved;
  }
  EXPECT_GE(improved, 7);
}

TEST(Search, LgaFindsNegativeEnergyPose) {
  const auto grid = receptor_grid("T1", 7, 25);
  const auto mol = chem::parse_smiles("CCOc1ccc(N)cc1");
  const dock::Ligand lig(mol);
  const dock::ScoringFunction score(*grid, lig);
  Rng rng(13);
  dock::LgaOptions opts;
  opts.population = 30;
  opts.generations = 15;
  const auto res = dock::run_lga(score, rng, opts);
  EXPECT_LT(res.best_energy, 0.0);
  EXPECT_GT(res.evaluations, 100u);
  EXPECT_EQ(res.best_coords.size(), static_cast<std::size_t>(lig.atom_count()));
}

TEST(Search, LgaBeatsRandomSampling) {
  const auto grid = receptor_grid("T1", 8, 25);
  const auto mol = chem::parse_smiles("CCOc1ccccc1C(=O)N");
  const dock::Ligand lig(mol);
  const dock::ScoringFunction score(*grid, lig);

  Rng rng(17);
  dock::LgaOptions opts;
  opts.population = 30;
  opts.generations = 15;
  const auto lga = dock::run_lga(score, rng, opts);

  // Random sampling with a similar evaluation budget.
  Rng rng2(18);
  double best_random = 1e18;
  for (std::uint64_t i = 0; i < lga.evaluations; ++i) {
    const auto p = lig.random_pose(grid->pocket_center, 4.0, rng2);
    best_random = std::min(best_random, score.evaluate(p));
  }
  EXPECT_LT(lga.best_energy, best_random);
}

// ---------------------------------------------------------------- engine

TEST(Engine, DockIsDeterministic) {
  const auto grid = receptor_grid("T1", 20, 25);
  const auto mol = chem::parse_smiles("CCOc1ccccc1");
  dock::DockOptions opts;
  opts.runs = 2;
  opts.lga.population = 20;
  opts.lga.generations = 8;
  const auto a = dock::dock(*grid, mol, "L1", opts);
  const auto b = dock::dock(*grid, mol, "L1", opts);
  EXPECT_DOUBLE_EQ(a.best_score, b.best_score);
  EXPECT_EQ(a.evaluations, b.evaluations);
}

TEST(Engine, ClustersAreSortedAndCountRuns) {
  const auto grid = receptor_grid("T1", 21, 25);
  const auto mol = chem::parse_smiles("CC(C)CO");
  dock::DockOptions opts;
  opts.runs = 4;
  opts.lga.population = 20;
  opts.lga.generations = 8;
  const auto res = dock::dock(*grid, mol, "L2", opts);
  int members = 0;
  for (std::size_t i = 0; i < res.clusters.size(); ++i) {
    members += res.clusters[i].members;
    if (i > 0) {
      EXPECT_GE(res.clusters[i].best_energy, res.clusters[i - 1].best_energy);
    }
  }
  EXPECT_EQ(members, 4);
  EXPECT_EQ(res.best_score, res.clusters.front().best_energy);
}

TEST(Engine, DifferentLigandsDifferentScores) {
  const auto grid = receptor_grid("T1", 22, 25);
  dock::DockOptions opts;
  opts.runs = 2;
  opts.lga.population = 20;
  opts.lga.generations = 8;
  const auto a = dock::dock(*grid, chem::parse_smiles("CCO"), "small", opts);
  const auto b = dock::dock(*grid, chem::parse_smiles("CC(C)Cc1ccc(cc1)C(C)C(=O)O"),
                            "large", opts);
  EXPECT_NE(a.best_score, b.best_score);
  // Larger ligands bury more surface: typically better (lower) score.
  EXPECT_LT(b.best_score, a.best_score);
}

TEST(Engine, FlopModelScalesWithSize) {
  EXPECT_GT(dock::flops_per_evaluation(40, 300), dock::flops_per_evaluation(10, 20));
  EXPECT_GT(dock::flops_per_evaluation(10, 20), 0u);
}

// --------------------------------------------------------------- docking box

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

// ------------------------------------------------------- conformer ensembles

namespace {

dock::DockOptions fast_dock() {
  dock::DockOptions d;
  d.runs = 1;
  d.lga.population = 16;
  d.lga.generations = 6;
  return d;
}

}  // namespace

TEST(ConformerEnsemble, BestOfConformersIsAtLeastSingle) {
  const auto grid = receptor_grid("G", 3, 21);
  const auto mol = chem::parse_smiles("CCOc1ccccc1CC(=O)N");
  std::vector<double> per_conformer;
  const auto multi = dock::dock_conformer_ensemble(*grid, mol, "L", 4,
                                                   fast_dock(), &per_conformer);
  ASSERT_EQ(per_conformer.size(), 4u);
  const auto single = dock::dock(*grid, mol, "L", fast_dock());
  EXPECT_LE(multi.best_score, single.best_score + 1e-9);
  // The returned best equals the per-conformer minimum.
  EXPECT_DOUBLE_EQ(multi.best_score,
                   *std::min_element(per_conformer.begin(), per_conformer.end()));
}

TEST(ConformerEnsemble, EvaluationsAccumulate) {
  const auto grid = receptor_grid("G", 4, 21);
  const auto mol = chem::parse_smiles("CCCCO");
  const auto one = dock::dock_conformer_ensemble(*grid, mol, "L", 1, fast_dock());
  const auto three = dock::dock_conformer_ensemble(*grid, mol, "L", 3, fast_dock());
  EXPECT_GT(three.evaluations, 2 * one.evaluations);
}

TEST(MultiStructure, PicksBestAcrossGrids) {
  std::vector<std::shared_ptr<const dock::AffinityGrid>> grids{
      receptor_grid("G", 10, 21), receptor_grid("G", 11, 21),
      receptor_grid("G", 12, 21)};
  const auto mol = chem::parse_smiles("CC(C)c1ccc(O)cc1");
  int best_structure = -1;
  const auto res = dock::dock_multi_structure(grids, mol, "L", fast_dock(),
                                              &best_structure);
  ASSERT_GE(best_structure, 0);
  ASSERT_LT(best_structure, 3);
  // Re-dock against the winning grid alone reproduces the same score.
  dock::DockOptions sopts = fast_dock();
  sopts.seed = fast_dock().seed ^ (0x9e37 * (static_cast<std::size_t>(best_structure) + 1));
  const auto direct = dock::dock(*grids[static_cast<std::size_t>(best_structure)],
                                 mol, "L", sopts);
  EXPECT_DOUBLE_EQ(res.best_score, direct.best_score);
}

TEST(MultiStructure, RejectsEmptyGridList) {
  const auto mol = chem::parse_smiles("CCO");
  EXPECT_THROW(dock::dock_multi_structure({}, mol, "L"), std::invalid_argument);
}

TEST(MultiStructure, TargetEnsembleBuildsVariants) {
  const auto t = core::Target::make("T", 5, 30, 15, /*crystal_structures=*/3);
  EXPECT_EQ(t.grids.size(), 3u);
  EXPECT_EQ(t.grid.get(), t.grids.front().get());
  // The variants differ (different pocket maps).
  const auto a = t.grids[0]->map(dock::ProbeType::Carbon).sample(t.grids[0]->pocket_center);
  const auto b = t.grids[1]->map(dock::ProbeType::Carbon).sample(t.grids[1]->pocket_center);
  EXPECT_NE(a.value, b.value);
}
