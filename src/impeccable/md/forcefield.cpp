#include "impeccable/md/forcefield.hpp"

#include <algorithm>
#include <cmath>
#include <stdexcept>
#include <utility>

namespace impeccable::md {

using common::Vec3;

void CellList::build(const std::vector<Vec3>& pos, double cutoff) {
  cell_size_ = cutoff;
  Vec3 lo{1e30, 1e30, 1e30}, hi{-1e30, -1e30, -1e30};
  for (const auto& p : pos) {
    lo.x = std::min(lo.x, p.x); lo.y = std::min(lo.y, p.y); lo.z = std::min(lo.z, p.z);
    hi.x = std::max(hi.x, p.x); hi.y = std::max(hi.y, p.y); hi.z = std::max(hi.z, p.z);
  }
  origin_ = lo;
  nx_ = std::max(1, static_cast<int>((hi.x - lo.x) / cell_size_) + 1);
  ny_ = std::max(1, static_cast<int>((hi.y - lo.y) / cell_size_) + 1);
  nz_ = std::max(1, static_cast<int>((hi.z - lo.z) / cell_size_) + 1);
  const std::size_t live = static_cast<std::size_t>(nx_) * ny_ * nz_;
  if (cells_.size() < live) cells_.resize(live);
  for (std::size_t c = 0; c < live; ++c) cells_[c].clear();
  for (std::size_t i = 0; i < pos.size(); ++i)
    cells_[static_cast<std::size_t>(cell_of(pos[i]))].push_back(static_cast<int>(i));
}

int CellList::cell_of(const Vec3& p) const {
  const int cx = std::clamp(static_cast<int>((p.x - origin_.x) / cell_size_), 0, nx_ - 1);
  const int cy = std::clamp(static_cast<int>((p.y - origin_.y) / cell_size_), 0, ny_ - 1);
  const int cz = std::clamp(static_cast<int>((p.z - origin_.z) / cell_size_), 0, nz_ - 1);
  return (cz * ny_ + cy) * nx_ + cx;
}

ForceField::ForceField(const Topology& topo, const ForceFieldOptions& opts)
    : topo_(topo), opts_(opts) {
  const int beads = topo.bead_count();
  excl_words_ = (static_cast<std::size_t>(beads) + 63) / 64;
  excluded_.assign(static_cast<std::size_t>(beads) * excl_words_, 0);
  auto exclude = [&](int i, int j) {
    if (i < 0 || j < 0 || i >= beads || j >= beads)
      throw std::invalid_argument("ForceField: exclusion names a missing bead");
    for (const auto& [row, col] : {std::pair{i, j}, std::pair{j, i}})
      excluded_[static_cast<std::size_t>(row) * excl_words_ +
                (static_cast<unsigned>(col) >> 6)] |=
          std::uint64_t{1} << (static_cast<unsigned>(col) & 63u);
  };
  for (const auto& [a, b] : topo.exclusions()) exclude(a, b);
  // Also exclude 1-3 pairs (angle endpoints) — they are held by the angle
  // term and would otherwise clash through LJ.
  for (const auto& ang : topo.angles) exclude(ang.a, ang.c);

  kappa_ = 1.0 / opts_.debye_length;
  exp_kappa_cutoff_ = std::exp(-kappa_ * opts_.cutoff);
  exp_cutoff_debye_ = std::exp(-opts_.cutoff / opts_.debye_length);
  const double rc = opts_.cutoff;
  cutoff6_ = rc * rc * rc * rc * rc * rc;
}

EnergyBreakdown ForceField::evaluate(const std::vector<Vec3>& pos,
                                     std::vector<Vec3>* forces) const {
  EnergyBreakdown e;
  if (forces) forces->assign(pos.size(), Vec3{});

  auto capped = [&](Vec3 f) {
    const double n = f.norm();
    if (n > opts_.max_force) f *= opts_.max_force / n;
    return f;
  };
  auto add_force = [&](int i, const Vec3& f) {
    if (!forces) return;
    (*forces)[static_cast<std::size_t>(i)] += capped(f);
  };
  // Equal and opposite pair force: the cap of -f is exactly -(cap of f)
  // (same norm, and IEEE negation is exact), so one cap serves both beads,
  // and x - c rounds exactly like x + (-c).
  auto add_pair_force = [&](int i, int j, const Vec3& f) {
    const Vec3 c = capped(f);
    (*forces)[static_cast<std::size_t>(i)] += c;
    (*forces)[static_cast<std::size_t>(j)] -= c;
  };

  // Bonds.
  for (const auto& b : topo_.bonds) {
    const Vec3 d = pos[static_cast<std::size_t>(b.b)] - pos[static_cast<std::size_t>(b.a)];
    const double r = std::max(1e-9, d.norm());
    const double dr = r - b.length;
    e.bond += b.k * dr * dr;
    if (forces) add_pair_force(b.a, b.b, d / r * (2.0 * b.k * dr));
  }

  // Angles (harmonic in theta).
  for (const auto& ang : topo_.angles) {
    const Vec3 r1 = pos[static_cast<std::size_t>(ang.a)] - pos[static_cast<std::size_t>(ang.b)];
    const Vec3 r2 = pos[static_cast<std::size_t>(ang.c)] - pos[static_cast<std::size_t>(ang.b)];
    const double n1 = std::max(1e-9, r1.norm());
    const double n2 = std::max(1e-9, r2.norm());
    double cosv = std::clamp(r1.dot(r2) / (n1 * n2), -1.0, 1.0);
    const double theta = std::acos(cosv);
    const double dt = theta - ang.theta0;
    e.angle += ang.k * dt * dt;
    if (forces) {
      const double sinv = std::sqrt(std::max(1e-12, 1.0 - cosv * cosv));
      const double dEdTheta = 2.0 * ang.k * dt;
      // dtheta/dr1 = (cos*u1 - u2) / (n1 * sin), u = unit vectors.
      const Vec3 u1 = r1 / n1, u2 = r2 / n2;
      const Vec3 f1 = (u1 * cosv - u2) * (dEdTheta / (n1 * sinv));
      const Vec3 f3 = (u2 * cosv - u1) * (dEdTheta / (n2 * sinv));
      add_force(ang.a, -f1);
      add_force(ang.c, -f3);
      add_force(ang.b, f1 + f3);
    }
  }

  // Position restraints.
  if (opts_.restraint_k > 0.0) {
    if (opts_.restraint_ref.size() != pos.size())
      throw std::invalid_argument(
          "ForceField: restraint_ref size must match bead count");
    auto restrain = [&](int i) {
      const Vec3 d = pos[static_cast<std::size_t>(i)] -
                     opts_.restraint_ref[static_cast<std::size_t>(i)];
      e.restraint += opts_.restraint_k * d.norm2();
      add_force(i, d * (-2.0 * opts_.restraint_k));
    };
    if (opts_.restrained.empty()) {
      for (int i = 0; i < topo_.bead_count(); ++i) restrain(i);
    } else {
      for (int i : opts_.restrained) restrain(i);
    }
  }

  // Nonbonded via cell list, in passes over the pairs inside the cutoff so
  // the arithmetic runs as lane loops: gather each pair's geometry and
  // parameters (scalar), LJ (lanes), exp (scalar libm: vector exp is not
  // bit-exact), Coulomb and capped forces (lanes), then accumulate in visit
  // order (scalar). Each pair runs the same IEEE operations as a one-pair-
  // at-a-time loop, and every accumulator receives its terms in the same
  // order, so energies and forces are bit-identical to it.
  cells_.build(pos, opts_.cutoff);
  PairStage& ps = stage_;
  ps.i.clear();
  ps.j.clear();
  cells_.for_each_pair(pos, opts_.cutoff, [&](int i, int j) {
    if (is_excluded(i, j)) return;
    ps.i.push_back(i);
    ps.j.push_back(j);
  });
  const std::size_t n = ps.i.size();
  ps.resize(n);
  const auto& beads = topo_.beads;
  for (std::size_t k = 0; k < n; ++k) {
    const auto i = static_cast<std::size_t>(ps.i[k]);
    const auto j = static_cast<std::size_t>(ps.j[k]);
    const Vec3 d = pos[j] - pos[i];
    ps.dx[k] = d.x;
    ps.dy[k] = d.y;
    ps.dz[k] = d.z;
    ps.r[k] = d.norm2();
    const Bead& bi = beads[i];
    const Bead& bj = beads[j];
    ps.eps[k] = bi.epsilon * bj.epsilon;
    ps.boost[k] = bi.hydrophobic && bj.hydrophobic ? 1.0 : 0.0;
    ps.rij[k] = bi.radius + bj.radius;
    ps.cross[k] = bi.kind != bj.kind;
    ps.lambda[k] = ps.cross[k] ? opts_.interaction_scale : 1.0;
    ps.qq[k] = 332.0 * bi.charge * bj.charge;
  }

  // Soft-core 12-6 LJ in the alchemical coupling (Beutler-style):
  //   s(λ, r) = σ⁶ / (r⁶ + α(1-λ)σ⁶),  U = λ·ε·(s² - 2s).
  // At λ = 1 this is the plain 12-6; at λ → 0 the r → 0 singularity is
  // removed, so TIES can sample the decoupled endpoint. Potentials are
  // shifted to zero at the cutoff so the energy stays continuous as pairs
  // enter/leave the neighbour list.
  constexpr double kSoftAlpha = 0.5;
  const double kappa = kappa_, cutoff6 = cutoff6_;
  const double boost = opts_.hydrophobic_boost, dielectric = opts_.dielectric;
  {
    double* __restrict R = ps.r.data();
    const double* __restrict EPS = ps.eps.data();
    const double* __restrict BOOST = ps.boost.data();
    double* __restrict QQ = ps.qq.data();
    const double* __restrict RIJ = ps.rij.data();
    const double* __restrict LAM = ps.lambda.data();
    double* __restrict ULJ = ps.ulj.data();
    double* __restrict DULJ = ps.dulj.data();
    double* __restrict DHDL = ps.dhdl.data();
    double* __restrict EX = ps.ex.data();
#pragma omp simd
    for (std::size_t k = 0; k < n; ++k) {
      const double r = std::max(0.8, std::sqrt(R[k]));
      const double eps_ij = std::sqrt(EPS[k]);
      const double eps = BOOST[k] > 0.0 ? eps_ij * boost : eps_ij;
      const double rij = RIJ[k], lambda = LAM[k];
      QQ[k] = QQ[k] / dielectric;
      const double soft = kSoftAlpha * (1.0 - lambda);
      const double sigma6 = rij * rij * rij * rij * rij * rij;
      const double r6 = r * r * r * r * r * r;
      const double s = sigma6 / (r6 + soft * sigma6);
      const double sc = sigma6 / (cutoff6 + soft * sigma6);
      ULJ[k] = lambda * eps * ((s * s - 2.0 * s) - (sc * sc - 2.0 * sc));
      // dU/dr = λ·ε·(2s-2)·ds/dr,  ds/dr = -6 r⁵ s² / σ⁶.
      const double ds_dr = -6.0 * r * r * r * r * r * s * s / sigma6;
      DULJ[k] = lambda * eps * (2.0 * s - 2.0) * ds_dr;
      // dU/dλ = ε(s²-2s) + λ·ε·(2s-2)·ds/dλ,  ds/dλ = α·s².
      DHDL[k] = eps * ((s * s - 2.0 * s) - (sc * sc - 2.0 * sc)) +
                lambda * eps * (2.0 * s - 2.0) * kSoftAlpha * s * s;
      R[k] = r;
      EX[k] = -kappa * r;
    }
  }
  for (std::size_t k = 0; k < n; ++k) ps.ex[k] = std::exp(ps.ex[k]);

  // Screened Coulomb, linearly coupled (bounded by the r >= 0.8 clamp).
  const double shift = exp_kappa_cutoff_, cutoff = opts_.cutoff;
  {
    const double* __restrict R = ps.r.data();
    const double* __restrict LAM = ps.lambda.data();
    const double* __restrict QQ = ps.qq.data();
    const double* __restrict EX = ps.ex.data();
    double* __restrict COUL = ps.coul.data();
    double* __restrict DULJ = ps.dulj.data();
    double* __restrict DHDL = ps.dhdl.data();
#pragma omp simd
    for (std::size_t k = 0; k < n; ++k) {
      const double r = R[k], lambda = LAM[k], qq = QQ[k];
      const double uel_raw = qq * EX[k] / r;
      const double uel_shift = uel_raw - qq * shift / cutoff;
      const double duel = -uel_raw * (kappa + 1.0 / r);
      COUL[k] = lambda * uel_shift;
      DHDL[k] = DHDL[k] + uel_shift;
      DULJ[k] = -(DULJ[k] + lambda * duel);
    }
  }

  for (std::size_t k = 0; k < n; ++k) {
    e.lj += ps.ulj[k];
    e.coulomb += ps.coul[k];
    if (ps.cross[k]) {
      e.interaction += ps.ulj[k] + ps.coul[k];
      e.dh_dlambda += ps.dhdl[k];
    }
  }
  last_pairs_ = n;
  if (!forces) return e;

  // Pair force along d, capped once and applied as +f on j, -f on i (see
  // add_pair_force). The cap's division is computed on every lane and
  // discarded by the select where the cap does not fire.
  const double max_force = opts_.max_force;
  {
    const double* __restrict DX = ps.dx.data();
    const double* __restrict DY = ps.dy.data();
    const double* __restrict DZ = ps.dz.data();
    const double* __restrict R = ps.r.data();
    const double* __restrict FS = ps.dulj.data();
    double* __restrict FX = ps.fx.data();
    double* __restrict FY = ps.fy.data();
    double* __restrict FZ = ps.fz.data();
#pragma omp simd
    for (std::size_t k = 0; k < n; ++k) {
      const double r = R[k], fs = FS[k];
      const double fx = DX[k] / r * fs;
      const double fy = DY[k] / r * fs;
      const double fz = DZ[k] / r * fs;
      const double norm = std::sqrt(fx * fx + fy * fy + fz * fz);
      const bool cap = norm > max_force;
      const double scale = max_force / norm;
      FX[k] = cap ? fx * scale : fx;
      FY[k] = cap ? fy * scale : fy;
      FZ[k] = cap ? fz * scale : fz;
    }
  }
  for (std::size_t k = 0; k < n; ++k) {
    const Vec3 f{ps.fx[k], ps.fy[k], ps.fz[k]};
    (*forces)[static_cast<std::size_t>(ps.j[k])] += f;
    (*forces)[static_cast<std::size_t>(ps.i[k])] -= f;
  }
  return e;
}

void ForceField::PairStage::resize(std::size_t n) {
  for (auto* v : {&dx, &dy, &dz, &r, &eps, &boost, &rij, &lambda, &qq, &ulj,
                  &coul, &dulj, &dhdl, &ex, &fx, &fy, &fz})
    v->resize(n);
  cross.resize(n);
}

double ForceField::interaction_energy(const std::vector<Vec3>& pos) const {
  // Direct double loop over the (small) ligand selection against protein.
  const auto lig = topo_.selection(BeadKind::Ligand);
  const auto prot = topo_.selection(BeadKind::Protein);
  const double cutoff2 = opts_.cutoff * opts_.cutoff;
  double total = 0.0;
  for (int i : lig) {
    const Bead& bi = topo_.beads[static_cast<std::size_t>(i)];
    for (int j : prot) {
      const Vec3 d = pos[static_cast<std::size_t>(j)] - pos[static_cast<std::size_t>(i)];
      const double r2 = d.norm2();
      if (r2 > cutoff2 || is_excluded(i, j)) continue;
      const double r = std::max(0.8, std::sqrt(r2));
      const Bead& bj = topo_.beads[static_cast<std::size_t>(j)];
      double eps = std::sqrt(bi.epsilon * bj.epsilon);
      if (bi.hydrophobic && bj.hydrophobic) eps *= opts_.hydrophobic_boost;
      const double rij = bi.radius + bj.radius;
      const double rr = rij / r;
      const double rr6 = rr * rr * rr * rr * rr * rr;
      const double rrc = rij / opts_.cutoff;
      const double rrc6 = rrc * rrc * rrc * rrc * rrc * rrc;
      total += eps * (rr6 * rr6 - 2.0 * rr6) - eps * (rrc6 * rrc6 - 2.0 * rrc6);
      const double qq = 332.0 * bi.charge * bj.charge / opts_.dielectric;
      total += qq * std::exp(-r / opts_.debye_length) / r -
               qq * exp_cutoff_debye_ / opts_.cutoff;
    }
  }
  return total;
}

}  // namespace impeccable::md
