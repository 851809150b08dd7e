#pragma once
// Coarse-grained force field: harmonic bonds/angles + 12-6 LJ with
// hydrophobic deepening + Debye–Hückel screened electrostatics. Nonbonded
// interactions run over a cell list rebuilt on demand.

#include <cstddef>
#include <cstdint>
#include <vector>

#include "impeccable/md/topology.hpp"

namespace impeccable::md {

struct ForceFieldOptions {
  double cutoff = 10.0;            ///< Å nonbonded cutoff
  double debye_length = 8.0;       ///< Å screening length
  double dielectric = 10.0;        ///< effective dielectric
  double hydrophobic_boost = 2.0;  ///< epsilon multiplier for phobic pairs
  double max_force = 500.0;        ///< kcal/mol/Å clamp, keeps bad starts stable
  /// Alchemical coupling λ of protein-ligand nonbonded terms: H(λ) = bonded
  /// + intra-molecular + λ·E_inter. λ = 1 is the physical system; TIES
  /// (thermodynamic integration) samples dH/dλ = E_inter across λ windows.
  double interaction_scale = 1.0;
  /// Harmonic position restraints (kcal/mol/Å²) towards `restraint_ref`;
  /// 0 disables. Standard equilibration practice: hold the solute near the
  /// starting structure while the environment relaxes.
  double restraint_k = 0.0;
  /// Reference positions for the restraints (must match bead count when
  /// restraint_k > 0). Only beads listed in `restrained` are held; an empty
  /// list restrains every bead.
  std::vector<common::Vec3> restraint_ref;
  std::vector<int> restrained;
};

/// Energy decomposition returned by evaluate().
struct EnergyBreakdown {
  double bond = 0.0;
  double angle = 0.0;
  double lj = 0.0;
  double coulomb = 0.0;
  double restraint = 0.0;
  /// lj + coulomb restricted to protein-ligand pairs at the current λ
  /// (the MMPBSA input; equals the physical interaction energy at λ = 1).
  double interaction = 0.0;
  /// ∂H/∂λ of the soft-core coupled Hamiltonian — the TIES observable.
  /// Coincides with `interaction` at λ = 1 up to the soft-core derivative.
  double dh_dlambda = 0.0;
  double total() const { return bond + angle + lj + coulomb + restraint; }
};

/// Spatial cell list for cutoff-based pair iteration.
class CellList {
 public:
  /// Bin `pos` into cubic cells of edge `cutoff`. Rebuilding keeps every
  /// bucket's capacity, so a steady-state rebuild does not allocate.
  void build(const std::vector<common::Vec3>& pos, double cutoff);
  /// Visit unordered pairs (i < j) within cutoff; f(i, j).
  template <typename F>
  void for_each_pair(const std::vector<common::Vec3>& pos, double cutoff,
                     F&& f) const;

 private:
  common::Vec3 origin_;
  double cell_size_ = 0.0;
  int nx_ = 0, ny_ = 0, nz_ = 0;
  /// At least nx_·ny_·nz_ buckets; only that prefix is live.
  std::vector<std::vector<int>> cells_;
  int cell_of(const common::Vec3& p) const;
};

class ForceField {
 public:
  ForceField(const Topology& topo, const ForceFieldOptions& opts = {});

  /// Energy and forces (forces resized and overwritten). Pass nullptr to
  /// skip force computation.
  EnergyBreakdown evaluate(const std::vector<common::Vec3>& pos,
                           std::vector<common::Vec3>* forces) const;

  /// Interaction energy only (protein-ligand LJ + Coulomb), for per-frame
  /// MMPBSA scoring without paying for forces.
  double interaction_energy(const std::vector<common::Vec3>& pos) const;

  const Topology& topology() const { return topo_; }
  const ForceFieldOptions& options() const { return opts_; }

  /// Nonbonded pair evaluations in the last evaluate() call (work units).
  std::uint64_t last_pair_count() const { return last_pairs_; }

 private:
  const Topology& topo_;
  ForceFieldOptions opts_;
  /// Dense symmetric exclusion table (bonded 1-2 and angle 1-3 pairs): one
  /// row of `excl_words_` 64-bit words per bead, bit j of row i set when
  /// the pair (i, j) is excluded. N²/8 bytes for the CG systems here.
  std::vector<std::uint64_t> excluded_;
  std::size_t excl_words_ = 0;
  // Pair-independent constants of the nonbonded terms, computed once with
  // the exact expressions a per-pair evaluation would use, so every pair
  // sees the same bits.
  double kappa_ = 0.0;             ///< 1 / debye_length
  double exp_kappa_cutoff_ = 0.0;  ///< exp(-κ·r_c): evaluate()'s Coulomb shift
  double exp_cutoff_debye_ = 0.0;  ///< exp(-r_c / debye_length): interaction_energy()'s
  double cutoff6_ = 0.0;           ///< r_c⁶, the soft-core shift's r⁶
  mutable CellList cells_;
  mutable std::uint64_t last_pairs_ = 0;

  /// Per-pair staging of the nonbonded kernel: entry k is the k-th pair
  /// inside the cutoff, in cell-list visit order. Reused across calls, so
  /// a steady-state evaluate() does not allocate.
  struct PairStage {
    std::vector<int> i, j;
    std::vector<unsigned char> cross;          ///< protein-ligand pair
    std::vector<double> dx, dy, dz;            ///< pos[j] - pos[i]
    std::vector<double> r;                     ///< |d|², then max(0.8, |d|)
    std::vector<double> eps;                   ///< ε_i·ε_j
    std::vector<double> boost;                 ///< 1: both beads hydrophobic
    std::vector<double> rij, lambda;           ///< σ sum, coupling
    std::vector<double> qq;                    ///< 332·q_i·q_j, then ÷ dielectric
    std::vector<double> ulj, coul;             ///< λ-coupled LJ and Coulomb
    std::vector<double> dulj;                  ///< dU_LJ/dr, then force scale
    std::vector<double> dhdl;                  ///< dU_LJ/dλ, then ∂H/∂λ term
    std::vector<double> ex;                    ///< -κr, then exp(-κr)
    std::vector<double> fx, fy, fz;            ///< capped pair force on j
    void resize(std::size_t n);
  };
  mutable PairStage stage_;

  bool is_excluded(int i, int j) const {
    const std::size_t row = static_cast<std::size_t>(i) * excl_words_;
    const auto col = static_cast<unsigned>(j);
    return (excluded_[row + (col >> 6)] >> (col & 63u)) & 1u;
  }
};

// ----------------------------------------------------------------------
// template definition

template <typename F>
void CellList::for_each_pair(const std::vector<common::Vec3>& pos,
                             double cutoff, F&& f) const {
  const double cutoff2 = cutoff * cutoff;
  for (int cz = 0; cz < nz_; ++cz) {
    for (int cy = 0; cy < ny_; ++cy) {
      for (int cx = 0; cx < nx_; ++cx) {
        const auto& cell = cells_[static_cast<std::size_t>((cz * ny_ + cy) * nx_ + cx)];
        if (cell.empty()) continue;
        // Half-shell neighbour iteration: each unordered cell pair once.
        for (int dz = -1; dz <= 1; ++dz) {
          for (int dy = -1; dy <= 1; ++dy) {
            for (int dx = -1; dx <= 1; ++dx) {
              const int ox = cx + dx, oy = cy + dy, oz = cz + dz;
              if (ox < 0 || oy < 0 || oz < 0 || ox >= nx_ || oy >= ny_ || oz >= nz_)
                continue;
              const int self = (cz * ny_ + cy) * nx_ + cx;
              const int other = (oz * ny_ + oy) * nx_ + ox;
              if (other < self) continue;  // visit each cell pair once
              const auto& ocell = cells_[static_cast<std::size_t>(other)];
              if (other == self) {
                for (std::size_t a = 0; a < cell.size(); ++a)
                  for (std::size_t b = a + 1; b < cell.size(); ++b) {
                    const int i = std::min(cell[a], cell[b]);
                    const int j = std::max(cell[a], cell[b]);
                    if (common::distance2(pos[static_cast<std::size_t>(i)],
                                          pos[static_cast<std::size_t>(j)]) <= cutoff2)
                      f(i, j);
                  }
              } else {
                for (int pi : cell)
                  for (int pj : ocell) {
                    const int i = std::min(pi, pj);
                    const int j = std::max(pi, pj);
                    if (common::distance2(pos[static_cast<std::size_t>(i)],
                                          pos[static_cast<std::size_t>(j)]) <= cutoff2)
                      f(i, j);
                  }
              }
            }
          }
        }
      }
    }
  }
}

}  // namespace impeccable::md
