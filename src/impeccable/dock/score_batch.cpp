// Batched SoA scoring kernels (see score_batch.hpp for the layout). The
// per-lane arithmetic mirrors the scalar kernels in score.cpp expression
// for expression — scores must stay bit-identical per pose so the LGA can
// route its population through batches without changing a single
// trajectory. Any change here must be mirrored there and vice versa; the
// batched golden suite (dock_batch_test) pins the equivalence at every
// batch size.

#include "impeccable/dock/score_batch.hpp"

#include <algorithm>
#include <cassert>
#include <cmath>

namespace impeccable::dock {

using common::Vec3;

void BatchScratch::reset(int atom_count, int lane_count) {
  assert(lane_count > 0 && lane_count <= kMaxBatchPoses);
  lanes = lane_count;
  if (atom_count != atoms) {
    // Size every plane for the maximum lane stride once per ligand geometry,
    // so alternating batch sizes never reallocate in steady state.
    atoms = atom_count;
    const std::size_t plane =
        static_cast<std::size_t>(atom_count) * kMaxBatchPoses;
    x.resize(plane);
    y.resize(plane);
    z.resize(plane);
    energy.resize(kMaxBatchPoses);
  }
  std::fill(energy.begin(), energy.begin() + lanes, 0.0);
}

void BatchScratch::reset_forces() {
  const std::size_t plane = static_cast<std::size_t>(atoms) * kMaxBatchPoses;
  if (fx.size() != plane) {
    fx.resize(plane);
    fy.resize(plane);
    fz.resize(plane);
  }
  const std::size_t used = static_cast<std::size_t>(atoms) * lanes;
  std::fill(fx.begin(), fx.begin() + used, 0.0);
  std::fill(fy.begin(), fy.begin() + used, 0.0);
  std::fill(fz.begin(), fz.begin() + used, 0.0);
}

void ScoringFunction::evaluate_batch(const PoseBatch& batch,
                                     BatchScratch& scratch,
                                     double* energies) const {
  const int count = batch.count;
  if (count == 0) return;
  assert(count <= kMaxBatchPoses);
  evals_.fetch_add(static_cast<std::uint64_t>(count),
                   std::memory_order_relaxed);

  const int n = static_cast<int>(ligand_.atoms().size());
  const int L = padded_lane_count(count);
  scratch.reset(n, L);
  ligand_.build_coords_batch(batch.poses.data(), count, L, scratch.x.data(),
                             scratch.y.data(), scratch.z.data());

  const double* __restrict X = scratch.x.data();
  const double* __restrict Y = scratch.y.data();
  const double* __restrict Z = scratch.z.data();
  double* __restrict en = scratch.energy.data();

  // Intermolecular: per atom, one fused batched cell locate over both maps;
  // the lane loop accumulates exactly the scalar per-atom expression.
  const GridField& ele = grid_.electrostatic;
  double av[kMaxBatchPoses], ev[kMaxBatchPoses];
  for (int a = 0; a < n; ++a) {
    const std::size_t off = static_cast<std::size_t>(a) * L;
    atom_fields_[static_cast<std::size_t>(a)]->sample_pair_values_batch(
        X + off, Y + off, Z + off, L, ele, av, ev);
    const double q = charges_[static_cast<std::size_t>(a)];
#pragma omp simd
    for (int l = 0; l < L; ++l) en[l] += av[l] + q * ev[l];
  }

  // Intramolecular: one sweep of the pair table per batch — each pair's
  // parameters are loaded once and the distance/LJ math runs across lanes.
  for (const NonbondedPair& p : ligand_.pair_table()) {
    const std::size_t oi = static_cast<std::size_t>(p.i) * L;
    const std::size_t oj = static_cast<std::size_t>(p.j) * L;
    const double rij = p.rij, eps = p.eps;
#pragma omp simd
    for (int l = 0; l < L; ++l) {
      const double dx = X[oj + l] - X[oi + l];
      const double dy = Y[oj + l] - Y[oi + l];
      const double dz = Z[oj + l] - Z[oi + l];
      const double dist = std::sqrt(dx * dx + dy * dy + dz * dz);
      const double r = std::max(0.8, dist);
      const double rr = rij / r;
      const double rr6 = rr * rr * rr * rr * rr * rr;
      const double u = eps * (rr6 * rr6 - 2.0 * rr6);
      en[l] += u < 100.0 ? u : 100.0;
    }
  }

  for (int l = 0; l < count; ++l) energies[l] = en[l];
}

void ScoringFunction::evaluate_with_gradient_batch(const PoseBatch& batch,
                                                   BatchScratch& scratch,
                                                   double* energies,
                                                   PoseGradient* grads) const {
  const int count = batch.count;
  if (count == 0) return;
  assert(count <= kMaxBatchPoses);
  evals_.fetch_add(static_cast<std::uint64_t>(count),
                   std::memory_order_relaxed);

  const int n = static_cast<int>(ligand_.atoms().size());
  const int L = padded_lane_count(count);
  scratch.reset(n, L);
  scratch.reset_forces();
  ligand_.build_coords_batch(batch.poses.data(), count, L, scratch.x.data(),
                             scratch.y.data(), scratch.z.data());

  const double* __restrict X = scratch.x.data();
  const double* __restrict Y = scratch.y.data();
  const double* __restrict Z = scratch.z.data();
  double* __restrict FX = scratch.fx.data();
  double* __restrict FY = scratch.fy.data();
  double* __restrict FZ = scratch.fz.data();
  double* __restrict en = scratch.energy.data();

  const GridField& ele = grid_.electrostatic;
  double av[kMaxBatchPoses], agx[kMaxBatchPoses], agy[kMaxBatchPoses],
      agz[kMaxBatchPoses];
  double evv[kMaxBatchPoses], egx[kMaxBatchPoses], egy[kMaxBatchPoses],
      egz[kMaxBatchPoses];
  for (int a = 0; a < n; ++a) {
    const std::size_t off = static_cast<std::size_t>(a) * L;
    atom_fields_[static_cast<std::size_t>(a)]->sample_pair_batch(
        X + off, Y + off, Z + off, L, ele, av, agx, agy, agz, evv, egx, egy,
        egz);
    const double q = charges_[static_cast<std::size_t>(a)];
#pragma omp simd
    for (int l = 0; l < L; ++l) {
      en[l] += av[l] + q * evv[l];
      FX[off + l] += agx[l] + egx[l] * q;
      FY[off + l] += agy[l] + egy[l] * q;
      FZ[off + l] += agz[l] + egz[l] * q;
    }
  }

  for (const NonbondedPair& p : ligand_.pair_table()) {
    const std::size_t oi = static_cast<std::size_t>(p.i) * L;
    const std::size_t oj = static_cast<std::size_t>(p.j) * L;
    const double rij = p.rij, eps = p.eps, eps12 = p.eps12;
#pragma omp simd
    for (int l = 0; l < L; ++l) {
      const double dx = X[oj + l] - X[oi + l];
      const double dy = Y[oj + l] - Y[oi + l];
      const double dz = Z[oj + l] - Z[oi + l];
      const double dist = std::sqrt(dx * dx + dy * dy + dz * dz);
      const double r = std::max(0.8, dist);
      const double rr = rij / r;
      const double rr6 = rr * rr * rr * rr * rr * rr;
      const double u = eps * (rr6 * rr6 - 2.0 * rr6);
      // Clamp handling mirrors energy_and_forces: zero force on exactly the
      // clamped set, so energy and gradient agree at both boundaries. The
      // force is computed on every lane and zeroed by a value select rather
      // than skipped by a branch, so the loop vectorizes: a clamped lane
      // adds ±0.0, which leaves its force plane unchanged — planes start
      // at +0.0, and IEEE addition can only produce -0.0 from two -0.0s.
      const bool u_clamped = !(u < 100.0);
      const bool r_clamped = !(dist > 0.8);
      en[l] += u_clamped ? 100.0 : u;
      const bool keep = !u_clamped && !r_clamped;
      const double du_dr = keep ? eps12 * (rr6 - rr6 * rr6) / r : 0.0;
      const double dirx = dx / r, diry = dy / r, dirz = dz / r;
      FX[oj + l] += dirx * du_dr;
      FY[oj + l] += diry * du_dr;
      FZ[oj + l] += dirz * du_dr;
      FX[oi + l] -= dirx * du_dr;
      FY[oi + l] -= diry * du_dr;
      FZ[oi + l] -= dirz * du_dr;
    }
  }

  // Pose-space reduction across lanes, read straight from the planes. Each
  // lane runs reduce_pose_gradient's operations in its order; both files
  // are compiled without FP contraction (dock/CMakeLists.txt), so the
  // reduced gradients are bit-identical to the scalar path under any -march.
  double tx[kMaxBatchPoses], ty[kMaxBatchPoses], tz[kMaxBatchPoses];
  double qx[kMaxBatchPoses], qy[kMaxBatchPoses], qz[kMaxBatchPoses];
  double px[kMaxBatchPoses], py[kMaxBatchPoses], pz[kMaxBatchPoses];
  for (int l = 0; l < L; ++l) {
    const Vec3 t = l < count ? batch.poses[static_cast<std::size_t>(l)]->translation
                             : Vec3{};
    px[l] = t.x;
    py[l] = t.y;
    pz[l] = t.z;
    tx[l] = ty[l] = tz[l] = 0.0;
    qx[l] = qy[l] = qz[l] = 0.0;
  }
  // Translation force and torque about pose.translation (see
  // reduce_pose_gradient for why that pivot).
  for (int a = 0; a < n; ++a) {
    const std::size_t off = static_cast<std::size_t>(a) * L;
#pragma omp simd
    for (int l = 0; l < L; ++l) {
      const double fx = FX[off + l], fy = FY[off + l], fz = FZ[off + l];
      tx[l] += fx;
      ty[l] += fy;
      tz[l] += fz;
      const double rx = X[off + l] - px[l];
      const double ry = Y[off + l] - py[l];
      const double rz = Z[off + l] - pz[l];
      qx[l] += ry * fz - rz * fy;
      qy[l] += rz * fx - rx * fz;
      qz[l] += rx * fy - ry * fx;
    }
  }
  for (int l = 0; l < count; ++l) {
    PoseGradient& g = grads[l];
    g.translation = Vec3{tx[l], ty[l], tz[l]};
    g.torque = Vec3{qx[l], qy[l], qz[l]};
    g.torsions.resize(ligand_.torsion_count());
    energies[l] = en[l];
  }

  // Torsion components: torque of the moving set about the rotatable bond.
  const auto& torsions = ligand_.torsions();
  double ax[kMaxBatchPoses], ay[kMaxBatchPoses], az[kMaxBatchPoses];
  for (std::size_t t = 0; t < torsions.size(); ++t) {
    const std::size_t oa = static_cast<std::size_t>(torsions[t].axis_a) * L;
    const std::size_t ob = static_cast<std::size_t>(torsions[t].axis_b) * L;
    // (pb - pa).normalized(); the guarded denominator keeps degenerate
    // lanes free of division by zero, and the select discards their result.
#pragma omp simd
    for (int l = 0; l < L; ++l) {
      const double dx = X[ob + l] - X[oa + l];
      const double dy = Y[ob + l] - Y[oa + l];
      const double dz = Z[ob + l] - Z[oa + l];
      const double nrm = std::sqrt(dx * dx + dy * dy + dz * dz);
      const bool degenerate = nrm <= 0.0;
      const double safe = degenerate ? 1.0 : nrm;
      ax[l] = degenerate ? 1.0 : dx / safe;
      ay[l] = degenerate ? 0.0 : dy / safe;
      az[l] = degenerate ? 0.0 : dz / safe;
      qx[l] = qy[l] = qz[l] = 0.0;
    }
    for (int idx : torsions[t].moving) {
      const std::size_t om = static_cast<std::size_t>(idx) * L;
#pragma omp simd
      for (int l = 0; l < L; ++l) {
        const double rx = X[om + l] - X[ob + l];
        const double ry = Y[om + l] - Y[ob + l];
        const double rz = Z[om + l] - Z[ob + l];
        const double fx = FX[om + l], fy = FY[om + l], fz = FZ[om + l];
        qx[l] += ry * fz - rz * fy;
        qy[l] += rz * fx - rx * fz;
        qz[l] += rx * fy - ry * fx;
      }
    }
    for (int l = 0; l < count; ++l)
      grads[l].torsions[t] = ax[l] * qx[l] + ay[l] * qy[l] + az[l] * qz[l];
  }
}

}  // namespace impeccable::dock
