#include "impeccable/dock/ligand.hpp"

#include <algorithm>
#include <bit>
#include <cassert>
#include <cmath>
#include <cstdint>
#include <queue>
#include <stdexcept>

#include "impeccable/chem/descriptors.hpp"
#include "impeccable/chem/layout.hpp"
#include "impeccable/chem/molecule.hpp"
#include "impeccable/common/rng.hpp"

namespace impeccable::dock {

using common::Vec3;

namespace {

/// Bitwise lane select: `a` where `mask` is all ones, `b` where it is zero.
/// Unlike `keep ? a : b`, GCC cannot turn this into a branch around the
/// store when `b` is the value already in memory, so the loop using it
/// still vectorizes on targets without masked stores.
inline double select_bits(std::uint64_t mask, double a, double b) {
  return std::bit_cast<double>((std::bit_cast<std::uint64_t>(a) & mask) |
                               (std::bit_cast<std::uint64_t>(b) & ~mask));
}

}  // namespace

void Pose::normalize_quaternion() {
  const double n = std::sqrt(qw * qw + qx * qx + qy * qy + qz * qz);
  if (n < 1e-12) {
    qw = 1.0; qx = qy = qz = 0.0;
    return;
  }
  qw /= n; qx /= n; qy /= n; qz /= n;
}

void Pose::rotate_by(const Vec3& omega) {
  const double angle = omega.norm();
  double dw = 1.0, dx = 0.0, dy = 0.0, dz = 0.0;
  if (angle > 1e-12) {
    const Vec3 axis = omega / angle;
    const double h = angle / 2.0;
    dw = std::cos(h);
    const double s = std::sin(h);
    dx = axis.x * s; dy = axis.y * s; dz = axis.z * s;
  }
  // q' = dq * q (world-frame increment).
  const double nw = dw * qw - dx * qx - dy * qy - dz * qz;
  const double nx = dw * qx + dx * qw + dy * qz - dz * qy;
  const double ny = dw * qy - dx * qz + dy * qw + dz * qx;
  const double nz = dw * qz + dx * qy - dy * qx + dz * qw;
  qw = nw; qx = nx; qy = ny; qz = nz;
  normalize_quaternion();
}

ProbeType probe_type_for(const chem::Molecule& mol, int atom) {
  const chem::Atom& a = mol.atom(atom);
  const chem::ElementInfo& ei = chem::info(a.element);
  switch (a.element) {
    case chem::Element::C:
    case chem::Element::B:
      return a.aromatic ? ProbeType::Aromatic : ProbeType::Carbon;
    case chem::Element::S:
    case chem::Element::P:
      if (ei.hbond_donor_capable && mol.hydrogen_count(atom) > 0)
        return ProbeType::Donor;
      return ProbeType::Sulfur;
    case chem::Element::N:
    case chem::Element::O:
      return mol.hydrogen_count(atom) > 0 ? ProbeType::Donor
                                          : ProbeType::Acceptor;
    case chem::Element::F:
      // F is a weak acceptor but behaves halogen-like in pockets.
      return ProbeType::Halogen;
    default:
      return ProbeType::Halogen;
  }
}

std::vector<double> partial_charges(const chem::Molecule& mol) {
  const int n = mol.atom_count();
  std::vector<double> q(static_cast<std::size_t>(n), 0.0);
  for (int i = 0; i < n; ++i)
    q[static_cast<std::size_t>(i)] = mol.atom(i).formal_charge;

  // Electronegativity equalization: charge flows across each bond towards
  // the more electronegative end, damped over three rounds.
  for (int round = 0; round < 3; ++round) {
    const double k = 0.12 / (1 << round);
    std::vector<double> delta(static_cast<std::size_t>(n), 0.0);
    for (int bi = 0; bi < mol.bond_count(); ++bi) {
      const chem::Bond& b = mol.bond(bi);
      const double chi_a = chem::info(mol.atom(b.a).element).electronegativity;
      const double chi_b = chem::info(mol.atom(b.b).element).electronegativity;
      const double flow = k * (chi_b - chi_a);  // >0: b pulls electrons from a
      delta[static_cast<std::size_t>(b.a)] += flow;
      delta[static_cast<std::size_t>(b.b)] -= flow;
    }
    for (int i = 0; i < n; ++i) q[static_cast<std::size_t>(i)] += delta[static_cast<std::size_t>(i)];
  }
  return q;
}

Ligand::Ligand(const chem::Molecule& mol, std::uint64_t conformer_seed) {
  if (!mol.finalized()) throw std::invalid_argument("Ligand: molecule not finalized");
  const int n = mol.atom_count();

  ref_coords_ = chem::embed_3d(mol, conformer_seed);

  const auto charges = partial_charges(mol);
  atoms_.resize(static_cast<std::size_t>(n));
  for (int i = 0; i < n; ++i) {
    LigandAtom& la = atoms_[static_cast<std::size_t>(i)];
    la.probe = probe_type_for(mol, i);
    la.charge = charges[static_cast<std::size_t>(i)];
    const chem::ElementInfo& ei = chem::info(mol.atom(i).element);
    la.vdw_radius = ei.vdw_radius;
    la.well_depth = ei.well_depth;
  }

  // Rotatable bonds and their moving sets. The moving set of bond (a, b) is
  // the connected component of b when the bond is removed; we orient each
  // bond so the moving side does NOT contain the root atom (atom 0).
  std::vector<int> rotatable;
  for (int bi = 0; bi < mol.bond_count(); ++bi)
    if (chem::is_rotatable(mol, bi)) rotatable.push_back(bi);

  auto component_without = [&](int blocked_bond, int start) {
    std::vector<bool> seen(static_cast<std::size_t>(n), false);
    std::vector<int> out, stack{start};
    seen[static_cast<std::size_t>(start)] = true;
    while (!stack.empty()) {
      const int cur = stack.back();
      stack.pop_back();
      out.push_back(cur);
      for (int bj : mol.bonds_of(cur)) {
        if (bj == blocked_bond) continue;
        const int to = mol.neighbor(cur, bj);
        if (!seen[static_cast<std::size_t>(to)]) {
          seen[static_cast<std::size_t>(to)] = true;
          stack.push_back(to);
        }
      }
    }
    return out;
  };

  const int root = 0;
  for (int bi : rotatable) {
    const chem::Bond& b = mol.bond(bi);
    Torsion t;
    auto side_b = component_without(bi, b.b);
    const bool root_in_b =
        std::find(side_b.begin(), side_b.end(), root) != side_b.end();
    if (root_in_b) {
      t.axis_a = b.b;
      t.axis_b = b.a;
      t.moving = component_without(bi, b.a);
    } else {
      t.axis_a = b.a;
      t.axis_b = b.b;
      t.moving = std::move(side_b);
    }
    // The proximal axis atom must not rotate with the set.
    t.moving.erase(std::remove(t.moving.begin(), t.moving.end(), t.axis_b),
                   t.moving.end());
    // axis_b anchors the axis; distal atoms beyond it rotate. Keep axis_b
    // out of the moving list (rotating it about the a-b axis is a no-op but
    // wastes work); everything else in its component rotates.
    torsions_.push_back(std::move(t));
  }

  // Order torsions root -> leaf: sort by BFS depth of axis_b from root.
  std::vector<int> depth(static_cast<std::size_t>(n), -1);
  std::queue<int> q;
  q.push(root);
  depth[static_cast<std::size_t>(root)] = 0;
  while (!q.empty()) {
    const int cur = q.front();
    q.pop();
    for (int bj : mol.bonds_of(cur)) {
      const int to = mol.neighbor(cur, bj);
      if (depth[static_cast<std::size_t>(to)] == -1) {
        depth[static_cast<std::size_t>(to)] = depth[static_cast<std::size_t>(cur)] + 1;
        q.push(to);
      }
    }
  }
  std::stable_sort(torsions_.begin(), torsions_.end(),
                   [&](const Torsion& x, const Torsion& y) {
                     return depth[static_cast<std::size_t>(x.axis_a)] <
                            depth[static_cast<std::size_t>(y.axis_a)];
                   });

  // Intramolecular nonbonded pairs: topological distance > 3.
  std::vector<std::vector<int>> dist(static_cast<std::size_t>(n));
  for (int s = 0; s < n; ++s) {
    std::vector<int> d(static_cast<std::size_t>(n), 1 << 20);
    std::queue<int> bq;
    bq.push(s);
    d[static_cast<std::size_t>(s)] = 0;
    while (!bq.empty()) {
      const int cur = bq.front();
      bq.pop();
      if (d[static_cast<std::size_t>(cur)] >= 4) continue;
      for (int bj : mol.bonds_of(cur)) {
        const int to = mol.neighbor(cur, bj);
        if (d[static_cast<std::size_t>(to)] > d[static_cast<std::size_t>(cur)] + 1) {
          d[static_cast<std::size_t>(to)] = d[static_cast<std::size_t>(cur)] + 1;
          bq.push(to);
        }
      }
    }
    dist[static_cast<std::size_t>(s)] = std::move(d);
  }
  for (int i = 0; i < n; ++i)
    for (int j = i + 1; j < n; ++j)
      if (dist[static_cast<std::size_t>(i)][static_cast<std::size_t>(j)] > 3)
        nb_pairs_.emplace_back(i, j);

  // Precompute the LJ pair parameters once; the scorer reads this table
  // instead of re-deriving sqrt(well_i * well_j) per evaluation.
  pair_table_.reserve(nb_pairs_.size());
  for (const auto& [i, j] : nb_pairs_) {
    NonbondedPair p;
    p.i = i;
    p.j = j;
    p.rij = 0.9 * (atoms_[static_cast<std::size_t>(i)].vdw_radius +
                   atoms_[static_cast<std::size_t>(j)].vdw_radius);
    p.eps = std::sqrt(atoms_[static_cast<std::size_t>(i)].well_depth *
                      atoms_[static_cast<std::size_t>(j)].well_depth);
    p.eps12 = 12.0 * p.eps;
    pair_table_.push_back(p);
  }

  // Center the reference conformation on its centroid.
  Vec3 c;
  for (const auto& p : ref_coords_) c += p;
  c /= static_cast<double>(n);
  for (auto& p : ref_coords_) p -= c;
}

void Ligand::build_coords(const Pose& pose, std::vector<Vec3>& out) const {
  out.resize(ref_coords_.size());  // no reallocation once capacity is grown
  build_coords_into(pose, out.data());
}

void Ligand::build_coords_into(const Pose& pose, Vec3* out) const {
  const std::size_t n = ref_coords_.size();
  std::copy(ref_coords_.begin(), ref_coords_.end(), out);

  for (std::size_t t = 0; t < torsions_.size(); ++t) {
    const Torsion& tor = torsions_[t];
    const double angle = pose.torsions[t];
    if (std::abs(angle) < 1e-12) continue;
    const Vec3 pa = out[static_cast<std::size_t>(tor.axis_a)];
    const Vec3 pb = out[static_cast<std::size_t>(tor.axis_b)];
    const Vec3 axis = (pb - pa).normalized();
    for (int idx : tor.moving) {
      Vec3& p = out[static_cast<std::size_t>(idx)];
      p = pb + common::rotate_about_axis(p - pb, axis, angle);
    }
  }

  // Rigid placement: rotate about the reference-frame origin (the centered
  // reference centroid), then translate. Rotating about a torsion-independent
  // point keeps the pose-space gradients exact (see ScoringFunction).
  const double w = pose.qw, x = pose.qx, y = pose.qy, z = pose.qz;
  const double r00 = w * w + x * x - y * y - z * z;
  const double r01 = 2 * (x * y - w * z);
  const double r02 = 2 * (x * z + w * y);
  const double r10 = 2 * (x * y + w * z);
  const double r11 = w * w - x * x + y * y - z * z;
  const double r12 = 2 * (y * z - w * x);
  const double r20 = 2 * (x * z - w * y);
  const double r21 = 2 * (y * z + w * x);
  const double r22 = w * w - x * x - y * y + z * z;

  for (std::size_t a = 0; a < n; ++a) {
    const Vec3 v = out[a];
    out[a] = Vec3{r00 * v.x + r01 * v.y + r02 * v.z,
                  r10 * v.x + r11 * v.y + r12 * v.z,
                  r20 * v.x + r21 * v.y + r22 * v.z} +
             pose.translation;
  }
}

void Ligand::build_coords_batch(const Pose* const* poses, int count, int lanes,
                                double* xs, double* ys, double* zs) const {
  // Mirrors kMaxBatchPoses (score_batch.hpp); this header stays scorer-free.
  constexpr int kML = 16;
  assert(count <= lanes && lanes <= kML);
  const std::size_t n = ref_coords_.size();
  const std::size_t L = static_cast<std::size_t>(lanes);

  // Broadcast the centered reference conformation into the lane planes.
  // Padding lanes start at zero and stay inert through both stages below
  // (lane selects, zero matrices), so downstream kernels read exact zeros.
  for (std::size_t a = 0; a < n; ++a) {
    const Vec3 r = ref_coords_[a];
    double* xr = xs + a * L;
    double* yr = ys + a * L;
    double* zr = zs + a * L;
    for (int l = 0; l < count; ++l) {
      xr[l] = r.x;
      yr[l] = r.y;
      zr[l] = r.z;
    }
    for (int l = count; l < lanes; ++l) {
      xr[l] = 0.0;
      yr[l] = 0.0;
      zr[l] = 0.0;
    }
  }

  // Torsion stage, lane-parallel: per torsion, resolve each lane's axis and
  // rotation scalar-side (sin/cos must stay scalar libm calls — vector math
  // libraries are not bit-exact), then rotate the moving set across lanes.
  // Every expression mirrors build_coords_into / rotate_about_axis term for
  // term; this translation unit is compiled with FP contraction off (see
  // dock/CMakeLists.txt), so each lane rounds exactly like the scalar path.
  double ax[kML], ay[kML], az[kML], pbx[kML], pby[kML], pbz[kML];
  double cc[kML], ss[kML], omc[kML];
  std::uint64_t rotate[kML];  // all ones: lane rotates; zero: lane skips
  for (std::size_t t = 0; t < torsions_.size(); ++t) {
    const Torsion& tor = torsions_[t];
    const std::size_t oa = static_cast<std::size_t>(tor.axis_a) * L;
    const std::size_t ob = static_cast<std::size_t>(tor.axis_b) * L;
    // Rotation angles scalar-side: sin/cos stay libm calls per active lane.
    bool any = false;
    for (int l = 0; l < lanes; ++l) {
      const double angle = l < count ? poses[l]->torsions[t] : 0.0;
      if (std::abs(angle) < 1e-12) {
        rotate[l] = 0;
        cc[l] = 1.0; ss[l] = 0.0; omc[l] = 0.0;
        continue;
      }
      any = true;
      rotate[l] = ~std::uint64_t{0};
      cc[l] = std::cos(angle);
      ss[l] = std::sin(angle);
      omc[l] = 1.0 - cc[l];
    }
    if (!any) continue;
    // Per-lane rotation axis, vectorized: sqrt and division are correctly
    // rounded in vector form, so this matches (pb - pa).normalized() bit for
    // bit. Skipped lanes compute a discarded (finite) axis — the guarded
    // denominator keeps even degenerate lanes free of division by zero.
#pragma omp simd
    for (int l = 0; l < lanes; ++l) {
      const double dx = xs[ob + l] - xs[oa + l];
      const double dy = ys[ob + l] - ys[oa + l];
      const double dz = zs[ob + l] - zs[oa + l];
      const double nrm = std::sqrt(dx * dx + dy * dy + dz * dz);
      const bool degenerate = nrm <= 0.0;
      const double safe = degenerate ? 1.0 : nrm;
      ax[l] = degenerate ? 1.0 : dx / safe;
      ay[l] = degenerate ? 0.0 : dy / safe;
      az[l] = degenerate ? 0.0 : dz / safe;
      pbx[l] = xs[ob + l];
      pby[l] = ys[ob + l];
      pbz[l] = zs[ob + l];
    }
    for (int idx : tor.moving) {
      const std::size_t om = static_cast<std::size_t>(idx) * L;
      double* __restrict X = xs + om;
      double* __restrict Y = ys + om;
      double* __restrict Z = zs + om;
#pragma omp simd
      for (int l = 0; l < lanes; ++l) {
        // p - pb, then Rodrigues: v*c + (axis x v)*s + axis*((axis . v)*(1-c)).
        const double vx = X[l] - pbx[l];
        const double vy = Y[l] - pby[l];
        const double vz = Z[l] - pbz[l];
        const double cx = ay[l] * vz - az[l] * vy;
        const double cy = az[l] * vx - ax[l] * vz;
        const double cz = ax[l] * vy - ay[l] * vx;
        const double w = (ax[l] * vx + ay[l] * vy + az[l] * vz) * omc[l];
        const double rx = vx * cc[l] + cx * ss[l] + ax[l] * w;
        const double ry = vy * cc[l] + cy * ss[l] + ay[l] * w;
        const double rz = vz * cc[l] + cz * ss[l] + az[l] * w;
        X[l] = select_bits(rotate[l], pbx[l] + rx, X[l]);
        Y[l] = select_bits(rotate[l], pby[l] + ry, Y[l]);
        Z[l] = select_bits(rotate[l], pbz[l] + rz, Z[l]);
      }
    }
  }

  // Rigid placement, lane-parallel: per-lane rotation matrix from the pose
  // quaternion (expressions mirror build_coords_into), then one vectorized
  // pass over the planes. Padding lanes get the zero matrix and zero
  // translation, leaving their planes at exact zero.
  double r00[kML], r01[kML], r02[kML], r10[kML], r11[kML], r12[kML];
  double r20[kML], r21[kML], r22[kML], tx[kML], ty[kML], tz[kML];
  for (int l = 0; l < count; ++l) {
    const Pose& pose = *poses[l];
    const double w = pose.qw, x = pose.qx, y = pose.qy, z = pose.qz;
    r00[l] = w * w + x * x - y * y - z * z;
    r01[l] = 2 * (x * y - w * z);
    r02[l] = 2 * (x * z + w * y);
    r10[l] = 2 * (x * y + w * z);
    r11[l] = w * w - x * x + y * y - z * z;
    r12[l] = 2 * (y * z - w * x);
    r20[l] = 2 * (x * z - w * y);
    r21[l] = 2 * (y * z + w * x);
    r22[l] = w * w - x * x - y * y + z * z;
    tx[l] = pose.translation.x;
    ty[l] = pose.translation.y;
    tz[l] = pose.translation.z;
  }
  for (int l = count; l < lanes; ++l) {
    r00[l] = r01[l] = r02[l] = 0.0;
    r10[l] = r11[l] = r12[l] = 0.0;
    r20[l] = r21[l] = r22[l] = 0.0;
    tx[l] = ty[l] = tz[l] = 0.0;
  }
  for (std::size_t a = 0; a < n; ++a) {
    const std::size_t off = a * L;
    double* __restrict X = xs + off;
    double* __restrict Y = ys + off;
    double* __restrict Z = zs + off;
#pragma omp simd
    for (int l = 0; l < lanes; ++l) {
      const double vx = X[l], vy = Y[l], vz = Z[l];
      X[l] = r00[l] * vx + r01[l] * vy + r02[l] * vz + tx[l];
      Y[l] = r10[l] * vx + r11[l] * vy + r12[l] * vz + ty[l];
      Z[l] = r20[l] * vx + r21[l] * vy + r22[l] * vz + tz[l];
    }
  }
}

Pose Ligand::identity_pose(const Vec3& center) const {
  Pose p;
  p.translation = center;
  p.torsions.assign(torsions_.size(), 0.0);
  return p;
}

Pose Ligand::random_pose(const Vec3& center, double radius,
                         common::Rng& rng) const {
  Pose p = identity_pose(center);
  // Uniform point in a sphere (rejection).
  for (;;) {
    const Vec3 d{rng.uniform(-1, 1), rng.uniform(-1, 1), rng.uniform(-1, 1)};
    if (d.norm2() <= 1.0) {
      p.translation = center + d * radius;
      break;
    }
  }
  // Random orientation: uniform quaternion (Shoemake).
  const double u1 = rng.uniform(), u2 = rng.uniform(), u3 = rng.uniform();
  const double tau = 2.0 * 3.14159265358979323846;
  p.qw = std::sqrt(1 - u1) * std::sin(tau * u2);
  p.qx = std::sqrt(1 - u1) * std::cos(tau * u2);
  p.qy = std::sqrt(u1) * std::sin(tau * u3);
  p.qz = std::sqrt(u1) * std::cos(tau * u3);
  for (auto& t : p.torsions) t = rng.uniform(-3.14159265, 3.14159265);
  return p;
}

}  // namespace impeccable::dock
