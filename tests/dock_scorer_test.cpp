// Scorer kernel tests for the allocation-free docking hot path:
//  - a counting global allocator proves steady-state evaluate() /
//    evaluate_with_gradient() never touch the heap;
//  - a golden regression suite checks the fused sample_pair / pair-table
//    kernel against a reference implementation of the pre-fusion scorer
//    (two independent trilinear stencils, per-pose sqrt LJ parameters),
//    including poses far outside the grid box (wall penalty paths);
//  - finite-difference checks at the LJ clamp boundaries (r = 0.8 floor and
//    u = 100 cap) verify force and energy agree exactly where the energy is
//    clamped.

#include <gtest/gtest.h>

#include <atomic>
#include <cmath>
#include <cstdlib>
#include <new>

#include "impeccable/chem/smiles.hpp"
#include "impeccable/common/rng.hpp"
#include "impeccable/dock/receptor.hpp"
#include "impeccable/dock/score.hpp"

#include "test_support.hpp"

namespace dock = impeccable::dock;
namespace chem = impeccable::chem;
using impeccable::common::Rng;
using impeccable::common::Vec3;

// ----------------------------------------------------- counting allocator

namespace {
std::atomic<std::uint64_t> g_allocations{0};

// Opaque to the inliner: GCC's -Wmismatched-new-delete otherwise pairs the
// std::free inside our replaced operator delete with a caller's `new` and
// reports a (spurious) mismatch at every inlined delete site.
[[gnu::noinline]] void counted_free(void* p) noexcept { std::free(p); }
}

void* operator new(std::size_t size) {
  g_allocations.fetch_add(1, std::memory_order_relaxed);
  if (void* p = std::malloc(size ? size : 1)) return p;
  throw std::bad_alloc();
}
void* operator new[](std::size_t size) { return ::operator new(size); }
void* operator new(std::size_t size, const std::nothrow_t&) noexcept {
  g_allocations.fetch_add(1, std::memory_order_relaxed);
  return std::malloc(size ? size : 1);
}
void* operator new[](std::size_t size, const std::nothrow_t& t) noexcept {
  return ::operator new(size, t);
}
void operator delete(void* p) noexcept { counted_free(p); }
void operator delete[](void* p) noexcept { counted_free(p); }
void operator delete(void* p, std::size_t) noexcept { counted_free(p); }
void operator delete[](void* p, std::size_t) noexcept { counted_free(p); }
void operator delete(void* p, const std::nothrow_t&) noexcept { counted_free(p); }
void operator delete[](void* p, const std::nothrow_t&) noexcept { counted_free(p); }

namespace {

// ------------------------------------------- reference (pre-fusion) scorer
//
// Kept verbatim from the original ScoringFunction: two independent
// GridField::sample calls per atom and per-pose sqrt-based LJ parameters.
// The production fused kernel must reproduce it to ≤ 1e-12 relative.

double reference_energy_and_forces(const dock::AffinityGrid& grid,
                                   const dock::Ligand& lig,
                                   const std::vector<Vec3>& coords,
                                   std::vector<Vec3>* grads) {
  double energy = 0.0;
  if (grads) grads->assign(coords.size(), Vec3{});

  const auto& atoms = lig.atoms();
  for (std::size_t i = 0; i < coords.size(); ++i) {
    const dock::FieldSample aff = grid.map(atoms[i].probe).sample(coords[i]);
    const dock::FieldSample ele = grid.electrostatic.sample(coords[i]);
    energy += aff.value + atoms[i].charge * ele.value;
    if (grads) (*grads)[i] += aff.gradient + ele.gradient * atoms[i].charge;
  }

  for (const auto& [i, j] : lig.nonbonded_pairs()) {
    const Vec3 d = coords[static_cast<std::size_t>(j)] -
                   coords[static_cast<std::size_t>(i)];
    const double r = std::max(0.8, d.norm());
    const double rij = 0.9 * (atoms[static_cast<std::size_t>(i)].vdw_radius +
                              atoms[static_cast<std::size_t>(j)].vdw_radius);
    const double eps = std::sqrt(atoms[static_cast<std::size_t>(i)].well_depth *
                                 atoms[static_cast<std::size_t>(j)].well_depth);
    const double rr = rij / r;
    const double rr6 = rr * rr * rr * rr * rr * rr;
    const double u = eps * (rr6 * rr6 - 2.0 * rr6);
    energy += std::min(u, 100.0);
    if (grads && u < 100.0 && d.norm() > 0.8) {
      const double du_dr = eps * 12.0 * (rr6 - rr6 * rr6) / r;
      const Vec3 dir = d / r;
      (*grads)[static_cast<std::size_t>(j)] += dir * du_dr;
      (*grads)[static_cast<std::size_t>(i)] -= dir * du_dr;
    }
  }
  return energy;
}

double reference_evaluate(const dock::AffinityGrid& grid, const dock::Ligand& lig,
                          const dock::Pose& pose, dock::PoseGradient* grad) {
  std::vector<Vec3> coords;
  lig.build_coords(pose, coords);
  if (!grad) return reference_energy_and_forces(grid, lig, coords, nullptr);

  std::vector<Vec3> g;
  const double energy = reference_energy_and_forces(grid, lig, coords, &g);
  grad->translation = Vec3{};
  grad->torque = Vec3{};
  grad->torsions.assign(static_cast<std::size_t>(lig.torsion_count()), 0.0);
  for (std::size_t i = 0; i < coords.size(); ++i) {
    grad->translation += g[i];
    grad->torque += (coords[i] - pose.translation).cross(g[i]);
  }
  const auto& torsions = lig.torsions();
  for (std::size_t t = 0; t < torsions.size(); ++t) {
    const Vec3 pa = coords[static_cast<std::size_t>(torsions[t].axis_a)];
    const Vec3 pb = coords[static_cast<std::size_t>(torsions[t].axis_b)];
    const Vec3 axis = (pb - pa).normalized();
    Vec3 acc;
    for (int idx : torsions[t].moving)
      acc += (coords[static_cast<std::size_t>(idx)] - pb)
                 .cross(g[static_cast<std::size_t>(idx)]);
    grad->torsions[t] = axis.dot(acc);
  }
  return energy;
}

void expect_close(double a, double b, const char* what) {
  const double tol = 1e-12 * std::max(1.0, std::max(std::abs(a), std::abs(b)));
  EXPECT_NEAR(a, b, tol) << what;
}

}  // namespace

// ------------------------------------------------------------- allocation

TEST(ScorerAllocation, SteadyStateEvaluateIsAllocationFree) {
  const auto grid = receptor_grid("SCORER", 3, 25);
  const auto mol = chem::parse_smiles("CC(=O)Oc1ccccc1C(=O)O");
  const dock::Ligand lig(mol, 3);
  const dock::ScoringFunction score(*grid, lig);

  Rng rng(41);
  dock::Pose pose = lig.random_pose(grid->pocket_center, 2.0, rng);
  dock::Pose outside = pose;
  outside.translation += Vec3{40.0, -35.0, 25.0};  // wall-penalty path

  dock::ScorerScratch scratch;
  dock::PoseGradient grad;
  // Warm-up sizes the arena and the gradient torsion vector.
  score.evaluate(pose, scratch);
  score.evaluate(outside, scratch);
  score.evaluate_with_gradient(pose, scratch, grad);
  score.evaluate_with_gradient(outside, scratch, grad);

  const std::uint64_t before = g_allocations.load();
  double sink = 0.0;
  for (int it = 0; it < 200; ++it) {
    sink += score.evaluate(pose, scratch);
    sink += score.evaluate(outside, scratch);
    sink += score.evaluate_with_gradient(pose, scratch, grad);
    sink += score.evaluate_with_gradient(outside, scratch, grad);
  }
  EXPECT_EQ(g_allocations.load(), before) << "sink=" << sink;
}

TEST(ScorerAllocation, ScratchScoreCoordsIsAllocationFree) {
  // The pointer overload resizes the caller's forces vector (may allocate on
  // first use); the ScorerScratch overload must not allocate once warmed.
  const auto grid = receptor_grid("SCORER", 5, 25);
  const auto mol = chem::parse_smiles("CC(=O)Oc1ccccc1C(=O)O");
  const dock::Ligand lig(mol, 3);
  const dock::ScoringFunction score(*grid, lig);

  Rng rng(47);
  std::vector<Vec3> coords;
  lig.build_coords(lig.random_pose(grid->pocket_center, 2.0, rng), coords);

  dock::ScorerScratch scratch;
  std::vector<Vec3> forces;
  const double via_ptr = score.score_coords(coords, &forces);
  const double via_scratch = score.score_coords(coords, scratch);  // warm-up
  EXPECT_EQ(via_scratch, via_ptr);
  ASSERT_EQ(scratch.forces.size(), forces.size());
  for (std::size_t i = 0; i < forces.size(); ++i) {
    EXPECT_EQ(scratch.forces[i].x, forces[i].x);
    EXPECT_EQ(scratch.forces[i].y, forces[i].y);
    EXPECT_EQ(scratch.forces[i].z, forces[i].z);
  }

  const std::uint64_t before = g_allocations.load();
  double sink = 0.0;
  for (int it = 0; it < 200; ++it) sink += score.score_coords(coords, scratch);
  EXPECT_EQ(g_allocations.load(), before) << "sink=" << sink;
}

TEST(ScorerAllocation, FallbackArenaSignaturesAreAllocationFreeToo) {
  const auto grid = receptor_grid("SCORER", 3, 25);
  const auto mol = chem::parse_smiles("CCOc1ccc(N)cc1");
  const dock::Ligand lig(mol);
  const dock::ScoringFunction score(*grid, lig);

  Rng rng(43);
  const dock::Pose pose = lig.random_pose(grid->pocket_center, 2.0, rng);
  dock::PoseGradient grad;
  score.evaluate(pose);
  score.evaluate_with_gradient(pose, grad);

  const std::uint64_t before = g_allocations.load();
  double sink = 0.0;
  for (int it = 0; it < 200; ++it) {
    sink += score.evaluate(pose);
    sink += score.evaluate_with_gradient(pose, grad);
  }
  EXPECT_EQ(g_allocations.load(), before) << "sink=" << sink;
}

// ------------------------------------------------------- golden regression

TEST(ScorerGolden, FusedKernelMatchesReferenceScorer) {
  const auto grid = receptor_grid("SCORER", 7, 25);
  const char* smiles[] = {
      "CCO",
      "CC(=O)Oc1ccccc1C(=O)O",
      "CC(C)Cc1ccc(cc1)C(C)C(=O)O",
      "CCOc1ccc(N)cc1",
      "c1ccc2c(c1)cccc2O",
  };

  Rng rng(101);
  for (const char* smi : smiles) {
    const auto mol = chem::parse_smiles(smi);
    const dock::Ligand lig(mol, 5);
    const dock::ScoringFunction score(*grid, lig);
    dock::ScorerScratch scratch;

    for (int m = 0; m < 24; ++m) {
      dock::Pose pose = lig.random_pose(grid->pocket_center, 3.0, rng);
      // Every fourth pose is pushed far outside the box so the wall-penalty
      // value *and* gradient paths are exercised.
      if (m % 4 == 3)
        pose.translation += Vec3{rng.uniform(20, 60), rng.uniform(-60, -20),
                                 rng.uniform(20, 60)};

      const double ref_e = reference_evaluate(*grid, lig, pose, nullptr);
      expect_close(score.evaluate(pose, scratch), ref_e, smi);

      dock::PoseGradient ref_g, new_g;
      const double ref_ge = reference_evaluate(*grid, lig, pose, &ref_g);
      const double new_ge = score.evaluate_with_gradient(pose, scratch, new_g);
      expect_close(new_ge, ref_ge, smi);
      expect_close(new_g.translation.x, ref_g.translation.x, smi);
      expect_close(new_g.translation.y, ref_g.translation.y, smi);
      expect_close(new_g.translation.z, ref_g.translation.z, smi);
      expect_close(new_g.torque.x, ref_g.torque.x, smi);
      expect_close(new_g.torque.y, ref_g.torque.y, smi);
      expect_close(new_g.torque.z, ref_g.torque.z, smi);
      ASSERT_EQ(new_g.torsions.size(), ref_g.torsions.size());
      for (std::size_t t = 0; t < new_g.torsions.size(); ++t)
        expect_close(new_g.torsions[t], ref_g.torsions[t], smi);
    }
  }
}

TEST(ScorerGolden, SamplePairMatchesTwoIndependentSamples) {
  const auto grid = receptor_grid("SCORER", 9, 25);
  const dock::GridField& aff = grid->map(dock::ProbeType::Donor);
  const dock::GridField& ele = grid->electrostatic;

  Rng rng(55);
  for (int i = 0; i < 200; ++i) {
    // Mix of inside, boundary-straddling, and far-outside points.
    const double span = (i % 3 == 0) ? 80.0 : 12.0;
    const Vec3 p = grid->pocket_center + Vec3{rng.uniform(-span, span),
                                              rng.uniform(-span, span),
                                              rng.uniform(-span, span)};
    const dock::FieldSample sa = aff.sample(p);
    const dock::FieldSample se = ele.sample(p);
    dock::FieldSample fa, fe;
    aff.sample_pair(p, ele, fa, fe);
    EXPECT_EQ(fa.value, sa.value);
    EXPECT_EQ(fa.gradient, sa.gradient);
    EXPECT_EQ(fe.value, se.value);
    EXPECT_EQ(fe.gradient, se.gradient);

    double va, ve;
    aff.sample_pair_values(p, ele, va, ve);
    EXPECT_EQ(va, sa.value);
    EXPECT_EQ(ve, se.value);
  }
}

// --------------------------------------------------- LJ clamp boundaries

namespace {

/// Central-difference force on atom `a` from score_coords energies.
Vec3 fd_force(const dock::ScoringFunction& score, std::vector<Vec3> coords,
              std::size_t a, double h = 1e-6) {
  Vec3 out;
  for (int axis = 0; axis < 3; ++axis) {
    Vec3& p = coords[a];
    double* comp = axis == 0 ? &p.x : axis == 1 ? &p.y : &p.z;
    const double saved = *comp;
    *comp = saved + h;
    const double ep = score.score_coords(coords);
    *comp = saved - h;
    const double em = score.score_coords(coords);
    *comp = saved;
    (axis == 0 ? out.x : axis == 1 ? out.y : out.z) = (ep - em) / (2 * h);
  }
  return out;
}

}  // namespace

TEST(ScorerClamp, GradientConsistentAcrossDistanceFloor) {
  // n-pentane has exactly one nonbonded pair: the two terminal carbons.
  const auto grid = receptor_grid("SCORER", 11, 25);
  const auto mol = chem::parse_smiles("CCCCC");
  const dock::Ligand lig(mol);
  ASSERT_EQ(lig.nonbonded_pairs().size(), 1u);
  const auto [pi, pj] = lig.nonbonded_pairs()[0];
  const dock::ScoringFunction score(*grid, lig);

  // Place the pair straddling the r = 0.8 floor, well inside the grid box so
  // the grid term is smooth. Energy is clamped for r < 0.8, so analytic and
  // finite-difference forces must agree on BOTH sides of the kink.
  std::vector<Vec3> base;
  lig.build_coords(lig.identity_pose(grid->pocket_center), base);
  for (double r : {0.8 - 1e-2, 0.8 + 1e-2}) {
    std::vector<Vec3> coords = base;
    coords[static_cast<std::size_t>(pj)] =
        coords[static_cast<std::size_t>(pi)] + Vec3{r, 0.0, 0.0};
    std::vector<Vec3> forces;
    score.score_coords(coords, &forces);
    const Vec3 fd = fd_force(score, coords, static_cast<std::size_t>(pj));
    EXPECT_NEAR(forces[static_cast<std::size_t>(pj)].x, fd.x, 1e-4) << "r=" << r;
    EXPECT_NEAR(forces[static_cast<std::size_t>(pj)].y, fd.y, 1e-4) << "r=" << r;
    EXPECT_NEAR(forces[static_cast<std::size_t>(pj)].z, fd.z, 1e-4) << "r=" << r;
  }

  // Inside the clamped region the pair contributes no force at all: the LJ
  // part of the force must be identically zero (grid term still acts).
  std::vector<Vec3> coords = base;
  coords[static_cast<std::size_t>(pj)] =
      coords[static_cast<std::size_t>(pi)] + Vec3{0.5, 0.0, 0.0};
  std::vector<Vec3> forces;
  const double e_clamped = score.score_coords(coords, &forces);
  // Shrinking the pair distance further must not change the LJ energy.
  coords[static_cast<std::size_t>(pj)] =
      coords[static_cast<std::size_t>(pi)] + Vec3{0.4, 0.0, 0.0};
  std::vector<Vec3> forces2;
  const double e_clamped2 = score.score_coords(coords, &forces2);
  // Both configurations clamp to r = 0.8: LJ contributions identical, any
  // difference comes from the (smooth, small) grid term displacement.
  EXPECT_NEAR(e_clamped, e_clamped2, 1.0);
}

TEST(ScorerClamp, GradientConsistentAcrossEnergyCap) {
  const auto grid = receptor_grid("SCORER", 11, 25);
  const auto mol = chem::parse_smiles("CCCCC");
  const dock::Ligand lig(mol);
  const auto [pi, pj] = lig.nonbonded_pairs()[0];
  const auto& par = lig.pair_table()[0];
  const dock::ScoringFunction score(*grid, lig);

  // Bisect the pair distance where the LJ energy u(r) crosses the 100 cap
  // (u is monotone decreasing in r on (0.8, rij)).
  auto u_of = [&](double r) {
    const double rr = par.rij / r;
    const double rr6 = rr * rr * rr * rr * rr * rr;
    return par.eps * (rr6 * rr6 - 2.0 * rr6);
  };
  double lo = 0.8, hi = par.rij;
  ASSERT_GT(u_of(lo), 100.0);
  ASSERT_LT(u_of(hi), 100.0);
  for (int it = 0; it < 200; ++it) {
    const double mid = 0.5 * (lo + hi);
    (u_of(mid) > 100.0 ? lo : hi) = mid;
  }
  const double r_cap = 0.5 * (lo + hi);
  ASSERT_GT(r_cap, 0.8);

  std::vector<Vec3> base;
  lig.build_coords(lig.identity_pose(grid->pocket_center), base);
  for (double r : {r_cap - 1e-2, r_cap + 1e-2}) {
    std::vector<Vec3> coords = base;
    coords[static_cast<std::size_t>(pj)] =
        coords[static_cast<std::size_t>(pi)] + Vec3{r, 0.0, 0.0};
    std::vector<Vec3> forces;
    score.score_coords(coords, &forces);
    const Vec3 fd = fd_force(score, coords, static_cast<std::size_t>(pj));
    // u ~ 100 kcal/mol here and du/dr is steep; scale the tolerance.
    const double tol = std::max(1e-3, 1e-5 * std::abs(fd.x));
    EXPECT_NEAR(forces[static_cast<std::size_t>(pj)].x, fd.x, tol) << "r=" << r;
    EXPECT_NEAR(forces[static_cast<std::size_t>(pj)].y, fd.y, 1e-4) << "r=" << r;
    EXPECT_NEAR(forces[static_cast<std::size_t>(pj)].z, fd.z, 1e-4) << "r=" << r;
  }
}
