// Property-based sweeps (TEST_P) over the core invariants:
//  * docking pose gradients match finite differences for arbitrary ligands,
//  * pose transforms are exact inverses,
//  * the MD integrator conserves energy in the NVE limit (friction -> 0),
//  * soft-core coupling keeps dH/dlambda finite even on clashing geometries,
//  * canonical SMILES is invariant under graph relabeling,
//  * Tanimoto is a similarity (symmetric, bounded, reflexive),
//  * RES coverage is monotone in the screening budget at any noise level,
//  * cell-list pair enumeration equals brute force at any density.

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <numeric>
#include <set>

#include "impeccable/chem/fingerprint.hpp"
#include "impeccable/chem/library.hpp"
#include "impeccable/chem/smiles.hpp"
#include "impeccable/common/rng.hpp"
#include "impeccable/dock/receptor.hpp"
#include "impeccable/dock/score.hpp"
#include "impeccable/dock/search.hpp"
#include "impeccable/md/forcefield.hpp"
#include "impeccable/md/integrator.hpp"
#include "impeccable/md/system.hpp"
#include "impeccable/ml/res.hpp"

#include "test_support.hpp"

namespace chem = impeccable::chem;
namespace dock = impeccable::dock;
namespace md = impeccable::md;
namespace ml = impeccable::ml;
using impeccable::common::Rng;
using impeccable::common::Vec3;

// ------------------------------------------------ dock gradients, per ligand

class DockGradientProperty : public ::testing::TestWithParam<const char*> {};

TEST_P(DockGradientProperty, AnalyticMatchesFiniteDifference) {
  static const auto grid = receptor_grid("P", 8, 21);
  const auto mol = chem::parse_smiles(GetParam());
  const dock::Ligand lig(mol, 5);
  const dock::ScoringFunction score(*grid, lig);
  Rng rng(std::hash<std::string>{}(GetParam()));

  for (int trial = 0; trial < 3; ++trial) {
    // Relax into a low-energy region first: the trilinear grid is only C0
    // across cell faces, so finite differences are meaningful only where the
    // field is smooth (clash regions have ~1e3 kcal/mol node-to-node jumps).
    const auto start = lig.random_pose(grid->pocket_center, 2.5, rng);
    const auto relaxed = dock::adadelta(score, start);
    if (relaxed.energy > 0.0) continue;
    const auto& pose = relaxed.pose;
    dock::PoseGradient g;
    score.evaluate_with_gradient(pose, g);
    const double h = 1e-5;

    for (int axis = 0; axis < 3; ++axis) {
      auto p1 = pose, p2 = pose;
      (&p1.translation.x)[axis] -= h;
      (&p2.translation.x)[axis] += h;
      const double fd = (score.evaluate(p2) - score.evaluate(p1)) / (2 * h);
      EXPECT_NEAR((&g.translation.x)[axis], fd,
                  std::max(2e-3, std::abs(fd) * 2e-3));
    }
    for (std::size_t t = 0; t < pose.torsions.size(); ++t) {
      auto p1 = pose, p2 = pose;
      p1.torsions[t] -= h;
      p2.torsions[t] += h;
      const double fd = (score.evaluate(p2) - score.evaluate(p1)) / (2 * h);
      EXPECT_NEAR(g.torsions[t], fd, std::max(2e-3, std::abs(fd) * 2e-3));
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Ligands, DockGradientProperty,
                         ::testing::Values("CCO", "CC(C)CC(=O)O",
                                           "c1ccc(cc1)CCN",
                                           "CC(C)Cc1ccc(cc1)C(C)C(=O)O",
                                           "O=S(=O)(N)c1ccc(Cl)cc1",
                                           "CCOC(=O)c1cncc(Br)c1"));

// ------------------------------------------------ pose transform inverses

class PoseInverseProperty : public ::testing::TestWithParam<double> {};

TEST_P(PoseInverseProperty, RotateThenUnrotateIsIdentity) {
  const auto mol = chem::parse_smiles("CC(C)Cc1ccc(cc1)C(C)C(=O)O");
  const dock::Ligand lig(mol);
  Rng rng(31);
  const double mag = GetParam();
  for (int trial = 0; trial < 5; ++trial) {
    auto pose = lig.random_pose({1, 2, 3}, 2.0, rng);
    std::vector<Vec3> before;
    lig.build_coords(pose, before);
    const Vec3 omega = Vec3{rng.gauss(), rng.gauss(), rng.gauss()}.normalized() * mag;
    pose.rotate_by(omega);
    pose.rotate_by(-omega);
    std::vector<Vec3> after;
    lig.build_coords(pose, after);
    for (std::size_t i = 0; i < before.size(); ++i)
      EXPECT_NEAR(impeccable::common::distance(before[i], after[i]), 0.0, 1e-9);
  }
}

INSTANTIATE_TEST_SUITE_P(Magnitudes, PoseInverseProperty,
                         ::testing::Values(0.01, 0.5, 1.5, 3.0));

// ------------------------------------------------ NVE energy conservation

class NveProperty : public ::testing::TestWithParam<double> {};

TEST_P(NveProperty, EnergyDriftIsBounded) {
  // friction -> 0 turns BAOAB into velocity Verlet; total energy (kinetic +
  // potential) must be conserved to integrator accuracy.
  md::ProteinOptions popts;
  popts.residues = 30;
  auto sys = md::build_protein(3, popts);
  const md::ForceField ff(sys.topology);
  auto pos = sys.positions;
  md::minimize_steepest(ff, pos, 200);

  md::LangevinOptions lo;
  lo.dt = GetParam();
  lo.friction = 0.0;  // NVE limit: the O-step becomes the identity
  lo.temperature = 200.0;
  md::LangevinIntegrator integ(ff, lo, 5);
  std::vector<Vec3> vel;
  integ.thermalize(vel);

  auto total_energy = [&] {
    double ke = 0;
    for (std::size_t i = 0; i < vel.size(); ++i)
      ke += 0.5 * sys.topology.beads[i].mass * vel[i].norm2();
    return ke + ff.evaluate(pos, nullptr).total();
  };

  integ.run(pos, vel, 10);  // settle
  const double e0 = total_energy();
  integ.run(pos, vel, 500);
  const double e1 = total_energy();
  // Drift tolerance scales with dt^2 (Verlet is second order).
  const double tol = std::max(0.5, 4000.0 * lo.dt * lo.dt);
  EXPECT_NEAR(e1, e0, tol) << "dt = " << lo.dt;
}

INSTANTIATE_TEST_SUITE_P(TimeSteps, NveProperty,
                         ::testing::Values(0.002, 0.005, 0.01));

// ------------------------------------------------ soft-core finiteness

class SoftCoreProperty : public ::testing::TestWithParam<double> {};

TEST_P(SoftCoreProperty, DhDlambdaFiniteOnClashes) {
  // A ligand bead placed directly on top of a protein bead: with linear
  // coupling dH/dlambda would blow up at small lambda; soft-core keeps it
  // bounded at every lambda.
  md::System sys;
  md::Bead p;
  p.kind = md::BeadKind::Protein;
  sys.topology.beads.push_back(p);
  md::Bead l;
  l.kind = md::BeadKind::Ligand;
  sys.topology.beads.push_back(l);
  sys.positions = {{0, 0, 0}, {0.05, 0, 0}};  // deep clash

  md::ForceFieldOptions opts;
  opts.interaction_scale = GetParam();
  const md::ForceField ff(sys.topology, opts);
  const auto e = ff.evaluate(sys.positions, nullptr);
  EXPECT_TRUE(std::isfinite(e.dh_dlambda));
  // Below the physical endpoint, the soft core bounds the derivative; at
  // lambda = 1 it reduces to the plain LJ (clashes are huge there, but the
  // Hamiltonian also never samples them at lambda = 1).
  if (GetParam() < 0.95) {
    EXPECT_LT(std::abs(e.dh_dlambda), 1e4) << "lambda = " << GetParam();
  }
}

INSTANTIATE_TEST_SUITE_P(Lambdas, SoftCoreProperty,
                         ::testing::Values(0.0, 0.1, 0.5, 0.9, 1.0));

// ------------------------------------------------ SMILES relabel invariance

class SmilesRelabelProperty : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(SmilesRelabelProperty, CanonicalFormIgnoresAtomOrder) {
  const std::uint64_t seed = GetParam();
  Rng rng(seed);
  for (std::uint64_t i = 0; i < 10; ++i) {
    const auto mol = chem::generate_compound(seed, i);

    // Rebuild the molecule with a random atom permutation.
    std::vector<int> perm(static_cast<std::size_t>(mol.atom_count()));
    std::iota(perm.begin(), perm.end(), 0);
    rng.shuffle(perm);
    chem::Molecule shuffled;
    std::vector<int> where(perm.size());
    for (std::size_t k = 0; k < perm.size(); ++k) {
      where[static_cast<std::size_t>(perm[k])] = static_cast<int>(k);
      shuffled.add_atom(mol.atom(perm[k]));
    }
    for (int b = 0; b < mol.bond_count(); ++b) {
      const auto& bond = mol.bond(b);
      shuffled.add_bond(where[static_cast<std::size_t>(bond.a)],
                        where[static_cast<std::size_t>(bond.b)], bond.order,
                        bond.aromatic);
    }
    shuffled.finalize();
    EXPECT_EQ(chem::write_smiles(mol), chem::write_smiles(shuffled))
        << "seed " << seed << " index " << i;
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, SmilesRelabelProperty,
                         ::testing::Values(3ull, 77ull, 2024ull, 555555ull));

// ------------------------------------------------ Tanimoto similarity axioms

class TanimotoProperty : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(TanimotoProperty, SimilarityAxioms) {
  const std::uint64_t seed = GetParam();
  std::vector<chem::BitSet> fps;
  for (std::uint64_t i = 0; i < 8; ++i)
    fps.push_back(chem::morgan_fingerprint(chem::generate_compound(seed, i)));
  for (std::size_t a = 0; a < fps.size(); ++a) {
    EXPECT_DOUBLE_EQ(chem::tanimoto(fps[a], fps[a]), 1.0);
    for (std::size_t b = a + 1; b < fps.size(); ++b) {
      const double s = chem::tanimoto(fps[a], fps[b]);
      EXPECT_DOUBLE_EQ(s, chem::tanimoto(fps[b], fps[a]));
      EXPECT_GE(s, 0.0);
      EXPECT_LE(s, 1.0);
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, TanimotoProperty,
                         ::testing::Values(1ull, 9ull, 123ull));

// ------------------------------------------------ RES monotonicity

class ResMonotonicityProperty : public ::testing::TestWithParam<double> {};

TEST_P(ResMonotonicityProperty, CoverageMonotoneInBudget) {
  const double noise = GetParam();
  Rng rng(42);
  std::vector<double> truth, pred;
  for (int i = 0; i < 3000; ++i) {
    const double t = rng.uniform();
    truth.push_back(t);
    pred.push_back(t + rng.gauss(0, noise));
  }
  const ml::EnrichmentSurface res(pred, truth);
  for (double top : {0.01, 0.05, 0.2}) {
    double prev = -1.0;
    for (double screen : {0.01, 0.03, 0.1, 0.3, 1.0}) {
      const double c = res.coverage(screen, top);
      EXPECT_GE(c, prev - 1e-12) << "noise " << noise << " top " << top;
      EXPECT_GE(c, 0.0);
      EXPECT_LE(c, 1.0);
      prev = c;
    }
    // Full screening always covers everything.
    EXPECT_DOUBLE_EQ(res.coverage(1.0, top), 1.0);
  }
}

INSTANTIATE_TEST_SUITE_P(NoiseLevels, ResMonotonicityProperty,
                         ::testing::Values(0.0, 0.1, 0.5, 5.0));

// ------------------------------------------------ cell list completeness

struct CellListCase {
  int points;
  double box;
  double cutoff;
};

// gtest names a case by the raw bytes of its parameter, padding included.
// Temporaries leave leftover stack bytes (some of them address-randomised) in
// the padding after `points`; a static array's padding is zero, so the cases
// live here and are passed by ValuesIn to keep the test names stable.
constexpr CellListCase kCellListCases[] = {
    {50, 5.0, 3.0}, {200, 20.0, 6.0}, {300, 8.0, 10.0}, {40, 50.0, 4.0}};

class CellListProperty : public ::testing::TestWithParam<CellListCase> {};

TEST_P(CellListProperty, MatchesBruteForce) {
  const auto [n, box, cutoff] = GetParam();
  Rng rng(static_cast<std::uint64_t>(n) * 31 + 7);
  std::vector<Vec3> pos;
  for (int i = 0; i < n; ++i)
    pos.push_back({rng.uniform(-box, box), rng.uniform(-box, box),
                   rng.uniform(-box, box)});
  md::CellList cl;
  cl.build(pos, cutoff);
  std::set<std::pair<int, int>> got;
  cl.for_each_pair(pos, cutoff, [&](int i, int j) {
    EXPECT_TRUE(got.emplace(i, j).second);
  });
  std::set<std::pair<int, int>> want;
  for (int i = 0; i < n; ++i)
    for (int j = i + 1; j < n; ++j)
      if (impeccable::common::distance2(pos[static_cast<std::size_t>(i)],
                                        pos[static_cast<std::size_t>(j)]) <=
          cutoff * cutoff)
        want.emplace(i, j);
  EXPECT_EQ(got, want);
}

INSTANTIATE_TEST_SUITE_P(Densities, CellListProperty,
                         ::testing::ValuesIn(kCellListCases));
