// Batched scorer tests (score_batch.hpp):
//  - lane equivalence: evaluate_batch / evaluate_with_gradient_batch must
//    reproduce the scalar evaluate / evaluate_with_gradient bit for bit at
//    every batch size 1..kMaxBatchPoses, including partial batches and poses
//    far outside the grid box (wall-penalty lanes next to in-box lanes), and
//    with clamped intramolecular pairs (distance floor and energy cap) in
//    lanes next to clash-free ones;
//  - evaluation accounting: the work-unit counter advances once per pose,
//    never once per batch;
//  - a counting global allocator proves steady-state batched evaluation
//    performs no heap allocation, including when batch sizes alternate;
//  - LGA trajectory identity: run_lga with batching disabled and enabled
//    returns bitwise-identical best poses, energies, and evaluation counts
//    from the same seed (batching is a pure throughput knob);
//  - batch observability: dock.batch.poses / dock.batch.fill are recorded
//    when a recorder is installed.

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <cmath>
#include <cstdlib>
#include <new>
#include <vector>

#include "impeccable/chem/smiles.hpp"
#include "impeccable/common/rng.hpp"
#include "impeccable/dock/receptor.hpp"
#include "impeccable/dock/score.hpp"
#include "impeccable/dock/score_batch.hpp"
#include "impeccable/dock/search.hpp"
#include "impeccable/obs/recorder.hpp"

#include "test_support.hpp"

namespace dock = impeccable::dock;
namespace chem = impeccable::chem;
namespace obs = impeccable::obs;
using impeccable::common::Rng;
using impeccable::common::Vec3;

// ----------------------------------------------------- counting allocator

namespace {
std::atomic<std::uint64_t> g_allocations{0};

// Opaque to the inliner (see dock_scorer_test.cpp for why).
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

/// Poses for one equivalence round: mostly near the pocket, every third far
/// outside the box so wall-penalty lanes sit next to in-box lanes.
std::vector<dock::Pose> make_poses(const dock::Ligand& lig,
                                   const dock::AffinityGrid& grid, int count,
                                   Rng& rng) {
  std::vector<dock::Pose> poses;
  poses.reserve(static_cast<std::size_t>(count));
  for (int i = 0; i < count; ++i) {
    dock::Pose p = lig.random_pose(grid.pocket_center, 3.0, rng);
    if (i % 3 == 2)
      p.translation += Vec3{rng.uniform(25, 70), rng.uniform(-70, -25),
                            rng.uniform(25, 70)};
    poses.push_back(std::move(p));
  }
  return poses;
}

void expect_pose_eq(const dock::Pose& a, const dock::Pose& b) {
  EXPECT_EQ(a.translation.x, b.translation.x);
  EXPECT_EQ(a.translation.y, b.translation.y);
  EXPECT_EQ(a.translation.z, b.translation.z);
  EXPECT_EQ(a.qw, b.qw);
  EXPECT_EQ(a.qx, b.qx);
  EXPECT_EQ(a.qy, b.qy);
  EXPECT_EQ(a.qz, b.qz);
  ASSERT_EQ(a.torsions.size(), b.torsions.size());
  for (std::size_t t = 0; t < a.torsions.size(); ++t)
    EXPECT_EQ(a.torsions[t], b.torsions[t]);
}

}  // namespace

// ---------------------------------------------------------- lane equivalence

TEST(BatchEquivalence, EnergiesMatchScalarAtEveryBatchSize) {
  const auto grid = receptor_grid("BATCH", 17, 25);
  const char* smiles[] = {
      "CCO",                          // rigid, tiny
      "CC(=O)Oc1ccccc1C(=O)O",        // aspirin, torsions
      "CC(C)Cc1ccc(cc1)C(C)C(=O)O",   // ibuprofen, more torsions
  };

  Rng rng(211);
  for (const char* smi : smiles) {
    const auto mol = chem::parse_smiles(smi);
    const dock::Ligand lig(mol, 5);
    const dock::ScoringFunction score(*grid, lig);
    dock::ScorerScratch scratch;
    dock::BatchScratch bscratch;

    for (int count = 1; count <= dock::kMaxBatchPoses; ++count) {
      const auto poses = make_poses(lig, *grid, count, rng);
      dock::PoseBatch batch;
      for (const auto& p : poses) batch.push(p);

      double energies[dock::kMaxBatchPoses];
      score.evaluate_batch(batch, bscratch, energies);
      for (int l = 0; l < count; ++l) {
        const double scalar =
            score.evaluate(poses[static_cast<std::size_t>(l)], scratch);
        EXPECT_EQ(energies[l], scalar)
            << smi << " batch=" << count << " lane=" << l;
      }
    }
  }
}

TEST(BatchEquivalence, GradientsMatchScalarAtEveryBatchSize) {
  const auto grid = receptor_grid("BATCH", 19, 25);
  const auto mol = chem::parse_smiles("CC(=O)Oc1ccccc1C(=O)O");
  const dock::Ligand lig(mol, 5);
  const dock::ScoringFunction score(*grid, lig);
  dock::ScorerScratch scratch;
  dock::BatchScratch bscratch;

  Rng rng(223);
  for (int count = 1; count <= dock::kMaxBatchPoses; ++count) {
    const auto poses = make_poses(lig, *grid, count, rng);
    dock::PoseBatch batch;
    for (const auto& p : poses) batch.push(p);

    double energies[dock::kMaxBatchPoses];
    std::vector<dock::PoseGradient> grads(static_cast<std::size_t>(count));
    score.evaluate_with_gradient_batch(batch, bscratch, energies,
                                       grads.data());
    for (int l = 0; l < count; ++l) {
      const std::size_t sl = static_cast<std::size_t>(l);
      dock::PoseGradient ref;
      const double scalar =
          score.evaluate_with_gradient(poses[sl], scratch, ref);
      EXPECT_EQ(energies[l], scalar) << "batch=" << count << " lane=" << l;
      EXPECT_EQ(grads[sl].translation.x, ref.translation.x);
      EXPECT_EQ(grads[sl].translation.y, ref.translation.y);
      EXPECT_EQ(grads[sl].translation.z, ref.translation.z);
      EXPECT_EQ(grads[sl].torque.x, ref.torque.x);
      EXPECT_EQ(grads[sl].torque.y, ref.torque.y);
      EXPECT_EQ(grads[sl].torque.z, ref.torque.z);
      ASSERT_EQ(grads[sl].torsions.size(), ref.torsions.size());
      for (std::size_t t = 0; t < ref.torsions.size(); ++t)
        EXPECT_EQ(grads[sl].torsions[t], ref.torsions[t])
            << "batch=" << count << " lane=" << l << " torsion=" << t;
    }
  }
}

TEST(BatchEquivalence, GradientsMatchScalarWithClampedPairsInBatch) {
  // The batched pair sweep zeroes the force of clamped pairs with a lane
  // select instead of a branch. Mix poses with clamped intramolecular pairs
  // (dist <= 0.8, or u >= 100 above the distance floor) and clash-free
  // poses in the same batch; every lane must still match the scalar path.
  // (With real vdW radii a pair on the distance floor is also over the
  // energy cap, so the distance class exercises both predicates at once.)
  const auto grid = receptor_grid("BATCH", 47, 25);
  const auto mol = chem::parse_smiles("OCCCCCCCCCCCCCO");  // floppy chain
  const dock::Ligand lig(mol, 5);
  const dock::ScoringFunction score(*grid, lig);
  ASSERT_FALSE(lig.pair_table().empty());

  enum Clamp { kFree, kDistClamped, kEnergyClamped };
  auto classify = [&](const dock::Pose& pose, std::vector<Vec3>& coords) {
    lig.build_coords(pose, coords);
    bool dist_clamped = false, energy_clamped = false;
    for (const dock::NonbondedPair& p : lig.pair_table()) {
      const double dist =
          (coords[static_cast<std::size_t>(p.j)] -
           coords[static_cast<std::size_t>(p.i)]).norm();
      const double rr = p.rij / std::max(0.8, dist);
      const double rr6 = rr * rr * rr * rr * rr * rr;
      const double u = p.eps * (rr6 * rr6 - 2.0 * rr6);
      if (!(dist > 0.8)) dist_clamped = true;
      else if (!(u < 100.0)) energy_clamped = true;
    }
    return dist_clamped ? kDistClamped : energy_clamped ? kEnergyClamped : kFree;
  };

  // Random conformations of the chain fold back on themselves often enough
  // to fill every class from a bounded search.
  constexpr std::size_t kPerClass = 8;
  std::vector<dock::Pose> pool[3];
  std::vector<Vec3> coords;
  Rng rng(251);
  for (int tries = 0; tries < 200000; ++tries) {
    if (pool[kFree].size() >= kPerClass &&
        pool[kDistClamped].size() >= kPerClass &&
        pool[kEnergyClamped].size() >= kPerClass)
      break;
    dock::Pose p = lig.random_pose(grid->pocket_center, 3.0, rng);
    auto& bucket = pool[classify(p, coords)];
    if (bucket.size() < kPerClass) bucket.push_back(std::move(p));
  }
  ASSERT_EQ(pool[kFree].size(), kPerClass);
  ASSERT_EQ(pool[kDistClamped].size(), kPerClass);
  ASSERT_EQ(pool[kEnergyClamped].size(), kPerClass);

  dock::ScorerScratch scratch;
  dock::BatchScratch bscratch;
  int seen[3] = {0, 0, 0};
  for (int count : {2, 3, 5, 8, 13, 16}) {
    std::vector<dock::Pose> poses;
    for (int l = 0; l < count; ++l) {
      const int cls = (l + count) % 3;
      poses.push_back(pool[cls][static_cast<std::size_t>(l / 3) % kPerClass]);
      ++seen[cls];
    }
    dock::PoseBatch batch;
    for (const auto& p : poses) batch.push(p);

    double energies[dock::kMaxBatchPoses];
    std::vector<dock::PoseGradient> grads(static_cast<std::size_t>(count));
    score.evaluate_with_gradient_batch(batch, bscratch, energies,
                                       grads.data());
    for (int l = 0; l < count; ++l) {
      const std::size_t sl = static_cast<std::size_t>(l);
      dock::PoseGradient ref;
      const double scalar =
          score.evaluate_with_gradient(poses[sl], scratch, ref);
      EXPECT_EQ(energies[l], scalar) << "batch=" << count << " lane=" << l;
      EXPECT_EQ(grads[sl].translation.x, ref.translation.x);
      EXPECT_EQ(grads[sl].translation.y, ref.translation.y);
      EXPECT_EQ(grads[sl].translation.z, ref.translation.z);
      EXPECT_EQ(grads[sl].torque.x, ref.torque.x);
      EXPECT_EQ(grads[sl].torque.y, ref.torque.y);
      EXPECT_EQ(grads[sl].torque.z, ref.torque.z);
      ASSERT_EQ(grads[sl].torsions.size(), ref.torsions.size());
      for (std::size_t t = 0; t < ref.torsions.size(); ++t)
        EXPECT_EQ(grads[sl].torsions[t], ref.torsions[t])
            << "batch=" << count << " lane=" << l << " torsion=" << t;
    }
  }
  // Every class went through the batched kernel, next to the others.
  EXPECT_GT(seen[kFree], 0);
  EXPECT_GT(seen[kDistClamped], 0);
  EXPECT_GT(seen[kEnergyClamped], 0);
}

TEST(BatchEquivalence, BatchedGridSamplersMatchScalarSamplers) {
  const auto grid = receptor_grid("BATCH", 23, 25);
  const dock::GridField& aff = grid->map(dock::ProbeType::Aromatic);
  const dock::GridField& ele = grid->electrostatic;

  Rng rng(227);
  for (int lanes : {4, 8, 16}) {
    std::vector<double> xs(static_cast<std::size_t>(lanes)),
        ys(static_cast<std::size_t>(lanes)), zs(static_cast<std::size_t>(lanes));
    std::vector<Vec3> pts(static_cast<std::size_t>(lanes));
    for (int l = 0; l < lanes; ++l) {
      const double span = (l % 3 == 0) ? 80.0 : 12.0;
      const Vec3 p = grid->pocket_center + Vec3{rng.uniform(-span, span),
                                                rng.uniform(-span, span),
                                                rng.uniform(-span, span)};
      pts[static_cast<std::size_t>(l)] = p;
      xs[static_cast<std::size_t>(l)] = p.x;
      ys[static_cast<std::size_t>(l)] = p.y;
      zs[static_cast<std::size_t>(l)] = p.z;
    }

    std::vector<double> sv(static_cast<std::size_t>(lanes)),
        ov(static_cast<std::size_t>(lanes));
    aff.sample_pair_values_batch(xs.data(), ys.data(), zs.data(), lanes, ele,
                                 sv.data(), ov.data());

    std::vector<double> gsv(static_cast<std::size_t>(lanes)),
        gsx(static_cast<std::size_t>(lanes)), gsy(static_cast<std::size_t>(lanes)),
        gsz(static_cast<std::size_t>(lanes)), gov(static_cast<std::size_t>(lanes)),
        gox(static_cast<std::size_t>(lanes)), goy(static_cast<std::size_t>(lanes)),
        goz(static_cast<std::size_t>(lanes));
    aff.sample_pair_batch(xs.data(), ys.data(), zs.data(), lanes, ele,
                          gsv.data(), gsx.data(), gsy.data(), gsz.data(),
                          gov.data(), gox.data(), goy.data(), goz.data());

    for (int l = 0; l < lanes; ++l) {
      const std::size_t sl = static_cast<std::size_t>(l);
      double va, ve;
      aff.sample_pair_values(pts[sl], ele, va, ve);
      EXPECT_EQ(sv[sl], va) << "lanes=" << lanes << " l=" << l;
      EXPECT_EQ(ov[sl], ve) << "lanes=" << lanes << " l=" << l;

      dock::FieldSample fa, fe;
      aff.sample_pair(pts[sl], ele, fa, fe);
      EXPECT_EQ(gsv[sl], fa.value);
      EXPECT_EQ(gsx[sl], fa.gradient.x);
      EXPECT_EQ(gsy[sl], fa.gradient.y);
      EXPECT_EQ(gsz[sl], fa.gradient.z);
      EXPECT_EQ(gov[sl], fe.value);
      EXPECT_EQ(gox[sl], fe.gradient.x);
      EXPECT_EQ(goy[sl], fe.gradient.y);
      EXPECT_EQ(goz[sl], fe.gradient.z);
    }
  }
}

// ------------------------------------------------------ evaluation counting

TEST(BatchAccounting, EvaluationsAdvancePerPoseNotPerBatch) {
  const auto grid = receptor_grid("BATCH", 29, 25);
  const auto mol = chem::parse_smiles("CCOc1ccc(N)cc1");
  const dock::Ligand lig(mol, 3);
  const dock::ScoringFunction score(*grid, lig);
  dock::BatchScratch bscratch;

  Rng rng(233);
  std::uint64_t expected = score.evaluations();
  EXPECT_EQ(expected, 0u);
  for (int count : {1, 3, 8, 16}) {
    const auto poses = make_poses(lig, *grid, count, rng);
    dock::PoseBatch batch;
    for (const auto& p : poses) batch.push(p);

    double energies[dock::kMaxBatchPoses];
    score.evaluate_batch(batch, bscratch, energies);
    expected += static_cast<std::uint64_t>(count);
    EXPECT_EQ(score.evaluations(), expected) << "count=" << count;

    std::vector<dock::PoseGradient> grads(static_cast<std::size_t>(count));
    score.evaluate_with_gradient_batch(batch, bscratch, energies, grads.data());
    expected += static_cast<std::uint64_t>(count);
    EXPECT_EQ(score.evaluations(), expected) << "count=" << count;
  }

  // An empty batch is a no-op: no evaluations, no writes.
  dock::PoseBatch empty;
  double sentinel = 42.0;
  score.evaluate_batch(empty, bscratch, &sentinel);
  EXPECT_EQ(score.evaluations(), expected);
  EXPECT_EQ(sentinel, 42.0);
}

// ------------------------------------------------------------- allocation

TEST(BatchAllocation, SteadyStateBatchedEvaluationIsAllocationFree) {
  const auto grid = receptor_grid("BATCH", 31, 25);
  const auto mol = chem::parse_smiles("CC(=O)Oc1ccccc1C(=O)O");
  const dock::Ligand lig(mol, 3);
  const dock::ScoringFunction score(*grid, lig);
  dock::BatchScratch bscratch;

  Rng rng(239);
  const auto poses = make_poses(lig, *grid, dock::kMaxBatchPoses, rng);
  std::vector<dock::PoseGradient> grads(poses.size());

  // Batches of every size over the same pose storage; sizes deliberately
  // alternate so plane sizing for one count must not realloc for another.
  auto batch_of = [&](int count) {
    dock::PoseBatch b;
    for (int l = 0; l < count; ++l)
      b.push(poses[static_cast<std::size_t>(l)]);
    return b;
  };

  double energies[dock::kMaxBatchPoses];
  // Warm-up: sizes the planes and every gradient's torsion vector.
  for (int count : {16, 1, 5, 8}) {
    const dock::PoseBatch b = batch_of(count);
    score.evaluate_batch(b, bscratch, energies);
    score.evaluate_with_gradient_batch(b, bscratch, energies, grads.data());
  }

  const std::uint64_t before = g_allocations.load();
  double sink = 0.0;
  for (int it = 0; it < 100; ++it) {
    for (int count : {8, 16, 3, 1, 12}) {
      const dock::PoseBatch b = batch_of(count);
      score.evaluate_batch(b, bscratch, energies);
      sink += energies[0];
      score.evaluate_with_gradient_batch(b, bscratch, energies, grads.data());
      sink += energies[count - 1];
    }
  }
  EXPECT_EQ(g_allocations.load(), before) << "sink=" << sink;
}

// ------------------------------------------------------ trajectory identity

TEST(BatchLga, TrajectoryBitwiseIdenticalWithAndWithoutBatching) {
  const auto grid = receptor_grid("BATCH", 37, 25);
  const auto mol = chem::parse_smiles("CC(=O)Oc1ccccc1C(=O)O");
  const dock::Ligand lig(mol, 3);
  const dock::ScoringFunction score_a(*grid, lig);
  const dock::ScoringFunction score_b(*grid, lig);

  dock::LgaOptions base;
  base.population = 14;   // not a multiple of any batch size: remainders hit
  base.generations = 6;
  base.local_search = dock::LocalSearchMethod::Adadelta;
  base.ad.max_iterations = 10;

  for (int batch : {2, 5, 8, 16}) {
    dock::LgaOptions scalar_opts = base;
    scalar_opts.score_batch = 0;
    dock::LgaOptions batch_opts = base;
    batch_opts.score_batch = batch;

    Rng rng_a(4242), rng_b(4242);
    const std::uint64_t a0 = score_a.evaluations();
    const std::uint64_t b0 = score_b.evaluations();
    const dock::LgaResult a = dock::run_lga(score_a, rng_a, scalar_opts);
    const dock::LgaResult b = dock::run_lga(score_b, rng_b, batch_opts);

    EXPECT_EQ(a.best_energy, b.best_energy) << "batch=" << batch;
    expect_pose_eq(a.best_pose, b.best_pose);
    EXPECT_EQ(a.evaluations, b.evaluations) << "batch=" << batch;
    EXPECT_EQ(score_a.evaluations() - a0, score_b.evaluations() - b0);
    ASSERT_EQ(a.best_coords.size(), b.best_coords.size());
    for (std::size_t i = 0; i < a.best_coords.size(); ++i) {
      EXPECT_EQ(a.best_coords[i].x, b.best_coords[i].x);
      EXPECT_EQ(a.best_coords[i].y, b.best_coords[i].y);
      EXPECT_EQ(a.best_coords[i].z, b.best_coords[i].z);
    }
  }
}

TEST(BatchLga, SolisWetsTrajectoryAlsoIdentical) {
  // Solis–Wets stays inline (it draws RNG); only plain evaluations batch.
  const auto grid = receptor_grid("BATCH", 41, 25);
  const auto mol = chem::parse_smiles("CCOc1ccc(N)cc1");
  const dock::Ligand lig(mol, 3);
  const dock::ScoringFunction score(*grid, lig);

  dock::LgaOptions base;
  base.population = 11;
  base.generations = 4;
  base.local_search = dock::LocalSearchMethod::SolisWets;
  base.sw.max_iterations = 15;

  dock::LgaOptions scalar_opts = base;
  scalar_opts.score_batch = 0;
  dock::LgaOptions batch_opts = base;
  batch_opts.score_batch = 8;

  Rng rng_a(777), rng_b(777);
  const dock::LgaResult a = dock::run_lga(score, rng_a, scalar_opts);
  const dock::LgaResult b = dock::run_lga(score, rng_b, batch_opts);
  EXPECT_EQ(a.best_energy, b.best_energy);
  expect_pose_eq(a.best_pose, b.best_pose);
  EXPECT_EQ(a.evaluations, b.evaluations);
}

// ----------------------------------------------------------- observability

TEST(BatchObservability, BatchMetricsRecordedWhenRecorderInstalled) {
  const auto grid = receptor_grid("BATCH", 43, 25);
  const auto mol = chem::parse_smiles("CC(=O)Oc1ccccc1C(=O)O");
  const dock::Ligand lig(mol, 3);
  const dock::ScoringFunction score(*grid, lig);

  obs::Recorder rec;
  obs::ScopedRecorder install(&rec);

  dock::LgaOptions opts;
  opts.population = 12;
  opts.generations = 3;
  opts.score_batch = 8;
  opts.ad.max_iterations = 5;
  Rng rng(999);
  dock::run_lga(score, rng, opts);

  const std::uint64_t poses = rec.metrics().counter("dock.batch.poses").value();
  EXPECT_GT(poses, 0u);
  const auto fills = rec.metrics().histogram("dock.batch.fill").snapshot();
  EXPECT_GT(fills.count, 0u);
  EXPECT_GE(fills.min, 1.0);
  EXPECT_LE(fills.max, static_cast<double>(dock::kMaxBatchPoses));

  // The batch spans flowed into the trace.
  const obs::Trace trace = rec.take();
  bool saw_batch_span = false;
  for (const auto& s : trace.spans)
    if (s.name == "lga.batch" || s.name == "lga.ls_batch") saw_batch_span = true;
  EXPECT_TRUE(saw_batch_span);
}
