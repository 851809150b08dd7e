#pragma once
// MMPBSA-lite per-frame binding free energy estimator.
//
// Substitution note (DESIGN.md): stands in for MM-PBSA/MM-GBSA. Per frame:
//   ΔG_frame = E_inter (protein-ligand LJ + screened Coulomb)
//            + ΔG_desolv (GB-flavoured: charged/polar burial penalty,
//                         hydrophobic burial bonus)
//            + TΔS_conf (configurational-entropy penalty per rotatable bond)
// The *ensemble protocol* around this estimator (ESMACS) is the paper's
// methodological point and is reproduced exactly; this per-frame functional
// is the substituted part.

#include <vector>

#include "impeccable/md/simulation.hpp"
#include "impeccable/md/system.hpp"

namespace impeccable::md {
class ForceField;
}  // namespace impeccable::md

namespace impeccable::fe {

struct MmpbsaOptions {
  double burial_cutoff = 6.0;       ///< Å, neighbour shell defining burial
  double desolv_charged = 0.8;     ///< kcal/mol per neighbour per |e|²
  double desolv_hydrophobic = -0.25;///< kcal/mol per neighbour (favourable)
  double entropy_per_torsion = 0.4; ///< kcal/mol per rotatable bond (penalty)
};

/// ΔG estimate for one stored frame of an LPC trajectory. `ff` is the LPC's
/// default-option force field (`md::ForceField(system.topology)`); build it
/// once per trajectory and reuse it for every frame.
double frame_binding_energy(const md::ForceField& ff, const md::Frame& frame,
                            int rotatable_bonds, const MmpbsaOptions& opts = {});

/// Mean ΔG over every frame of a replica trajectory.
double replica_binding_energy(const md::System& system,
                              const md::Trajectory& traj, int rotatable_bonds,
                              const MmpbsaOptions& opts = {});

}  // namespace impeccable::fe
