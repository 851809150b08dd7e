#include "impeccable/chem/layout.hpp"

#include <algorithm>
#include <cmath>
#include <utility>

#include "impeccable/chem/molecule.hpp"
#include "impeccable/common/rng.hpp"

namespace impeccable::chem {

double ideal_bond_length(const Molecule& mol, int bond_index) {
  const Bond& b = mol.bond(bond_index);
  // Covalent-ish radii derived by scaling vdW radii; shortened for multiple
  // and aromatic bonds.
  const double ra = info(mol.atom(b.a).element).vdw_radius * 0.45;
  const double rb = info(mol.atom(b.b).element).vdw_radius * 0.45;
  double len = ra + rb;
  if (b.aromatic) len *= 0.92;
  else if (b.order == 2) len *= 0.88;
  else if (b.order == 3) len *= 0.80;
  return len;
}

std::vector<Point2> layout_2d(const Molecule& mol, std::uint64_t seed,
                              int iterations) {
  const int n = mol.atom_count();
  const std::size_t un = static_cast<std::size_t>(n);
  // Positions and forces stay in SoA arrays for the whole iteration loop
  // (TX/TY hold one row's pair forces); Point2s are written at the end.
  std::vector<double> soa(6 * un);
  double* const X = soa.data();
  double* const Y = X + un;
  double* const FX = Y + un;
  double* const FY = FX + un;
  double* const TX = FY + un;
  double* const TY = TX + un;
  common::Rng rng(seed);
  for (std::size_t i = 0; i < un; ++i) {
    X[i] = rng.uniform(-1.0, 1.0);
    Y[i] = rng.uniform(-1.0, 1.0);
  }
  if (n == 1) return {{0.0, 0.0}};

  // Fruchterman–Reingold-style iterations with unit ideal bond length.
  const int iters = std::max(1, iterations);
  for (int it = 0; it < iters; ++it) {
    const double step = 0.12 * (1.0 - static_cast<double>(it) / iters) + 0.01;
    std::fill(FX, FX + un, 0.0);
    std::fill(FY, FY + un, 0.0);
    // Repulsion between all pairs, one vector sweep per row i over j > i.
    // The j-side term goes into F[j] in place and the i-side term into the
    // row buffer, which is then added to F[i] in ascending j: every force
    // receives the same IEEE operations in the same order as the textbook
    // pairwise loop (its j-side terms by ascending i, then its i-side terms
    // by ascending j), so the bits do not depend on the vector width.
    for (int i = 0; i < n; ++i) {
      const double xi = X[i], yi = Y[i];
#pragma omp simd
      for (int j = i + 1; j < n; ++j) {
        double dx = xi - X[j];
        double dy = yi - Y[j];
        const double d2 = dx * dx + dy * dy + 1e-6;
        const double f = 0.35 / d2;
        const double d = std::sqrt(d2);
        dx /= d; dy /= d;
        const double tx = f * dx, ty = f * dy;
        FX[j] -= tx;
        FY[j] -= ty;
        TX[j] = tx;
        TY[j] = ty;
      }
      double fx = FX[i], fy = FY[i];
      for (int j = i + 1; j < n; ++j) {
        fx += TX[j];
        fy += TY[j];
      }
      FX[i] = fx;
      FY[i] = fy;
    }
    // Springs along bonds (ideal length 1).
    for (int bi = 0; bi < mol.bond_count(); ++bi) {
      const Bond& b = mol.bond(bi);
      double dx = X[b.b] - X[b.a];
      double dy = Y[b.b] - Y[b.a];
      const double d = std::sqrt(dx * dx + dy * dy) + 1e-9;
      const double f = 1.2 * (d - 1.0);
      dx /= d; dy /= d;
      FX[b.a] += f * dx;
      FY[b.a] += f * dy;
      FX[b.b] -= f * dx;
      FY[b.b] -= f * dy;
    }
    for (std::size_t i = 0; i < un; ++i) {
      // Clamp displacement to keep the embedding stable.
      double fx = FX[i];
      double fy = FY[i];
      const double fn = std::sqrt(fx * fx + fy * fy);
      if (fn > 1.0) { fx /= fn; fy /= fn; }
      X[i] += step * fx;
      Y[i] += step * fy;
    }
  }

  std::vector<Point2> pos(un);
  for (std::size_t i = 0; i < un; ++i) pos[i] = {X[i], Y[i]};
  // Center and scale to unit RMS radius.
  double cx = 0, cy = 0;
  for (const auto& p : pos) { cx += p.x; cy += p.y; }
  cx /= n; cy /= n;
  double rms = 0;
  for (auto& p : pos) {
    p.x -= cx; p.y -= cy;
    rms += p.x * p.x + p.y * p.y;
  }
  rms = std::sqrt(rms / n);
  if (rms > 1e-9)
    for (auto& p : pos) { p.x /= rms; p.y /= rms; }
  return pos;
}

std::vector<common::Vec3> embed_3d(const Molecule& mol, std::uint64_t seed) {
  using common::Vec3;
  const int n = mol.atom_count();
  std::vector<Vec3> pos(static_cast<std::size_t>(n));
  common::Rng rng(seed);

  // Start from the 2D layout scaled to bond-length units, plus z noise to
  // break planarity.
  const auto flat = layout_2d(mol, seed ^ 0xabcdef);
  std::vector<double> bond_len(static_cast<std::size_t>(mol.bond_count()));
  for (int bi = 0; bi < mol.bond_count(); ++bi)
    bond_len[static_cast<std::size_t>(bi)] = ideal_bond_length(mol, bi);
  double mean_bond = 1.5;
  if (mol.bond_count() > 0) {
    mean_bond = 0.0;
    for (const double len : bond_len) mean_bond += len;
    mean_bond /= mol.bond_count();
  }
  for (int i = 0; i < n; ++i) {
    pos[static_cast<std::size_t>(i)] = {flat[static_cast<std::size_t>(i)].x * 2.0 * mean_bond,
                                        flat[static_cast<std::size_t>(i)].y * 2.0 * mean_bond,
                                        rng.uniform(-0.3, 0.3)};
  }
  if (n == 1) return {Vec3{}};

  // 1-3 distance targets from ideal angles (~111 deg for sp3-ish chains).
  struct Pair13 { int a, b; double target; };
  std::vector<Pair13> angles;
  for (int j = 0; j < n; ++j) {
    const auto nbrs = mol.neighbors(j);
    for (std::size_t x = 0; x < nbrs.size(); ++x) {
      for (std::size_t y = x + 1; y < nbrs.size(); ++y) {
        const int a = nbrs[x], c = nbrs[y];
        const double la = bond_len[static_cast<std::size_t>(mol.bond_between(a, j))];
        const double lc = bond_len[static_cast<std::size_t>(mol.bond_between(c, j))];
        const double theta = mol.atom(j).aromatic ? 2.0944 /*120 deg*/ : 1.9373 /*111 deg*/;
        const double target = std::sqrt(la * la + lc * lc - 2 * la * lc * std::cos(theta));
        angles.push_back({a, c, target});
      }
    }
  }

  // Topologically distant pairs, in the (i, j) order the repulsion visits.
  std::vector<std::pair<int, int>> distant;
  for (int i = 0; i < n; ++i)
    for (int j = i + 1; j < n; ++j)
      if (mol.bond_between(i, j) < 0) distant.emplace_back(i, j);

  // Gradient descent on the restraint energy.
  const int iters = 400;
  std::vector<Vec3> grad(static_cast<std::size_t>(n));
  for (int it = 0; it < iters; ++it) {
    const double step = 0.05 * (1.0 - 0.8 * it / iters);
    std::fill(grad.begin(), grad.end(), Vec3{});

    auto spring = [&](int a, int b, double target, double k) {
      Vec3 d = pos[static_cast<std::size_t>(b)] - pos[static_cast<std::size_t>(a)];
      const double dist = d.norm() + 1e-9;
      const Vec3 u = d / dist;
      const Vec3 g = u * (k * (dist - target));
      grad[static_cast<std::size_t>(a)] -= g;
      grad[static_cast<std::size_t>(b)] += g;
    };

    for (int bi = 0; bi < mol.bond_count(); ++bi)
      spring(mol.bond(bi).a, mol.bond(bi).b,
             bond_len[static_cast<std::size_t>(bi)], 4.0);
    for (const auto& a13 : angles) spring(a13.a, a13.b, a13.target, 1.5);

    // Soft repulsion between topologically distant pairs.
    for (const auto& [i, j] : distant) {
      const Vec3 d = pos[static_cast<std::size_t>(j)] - pos[static_cast<std::size_t>(i)];
      const double dist = d.norm() + 1e-9;
      const double rmin = 2.4;
      if (dist < rmin) {
        // Harmonic wall: same convention as spring() with target rmin.
        const Vec3 g = d / dist * (0.8 * (dist - rmin));
        grad[static_cast<std::size_t>(i)] -= g;
        grad[static_cast<std::size_t>(j)] += g;
      }
    }

    for (int i = 0; i < n; ++i)
      pos[static_cast<std::size_t>(i)] -= grad[static_cast<std::size_t>(i)] * step;
  }

  // Center at the origin.
  Vec3 c;
  for (const auto& p : pos) c += p;
  c /= static_cast<double>(n);
  for (auto& p : pos) p -= c;
  return pos;
}

}  // namespace impeccable::chem
