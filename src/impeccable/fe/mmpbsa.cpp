#include "impeccable/fe/mmpbsa.hpp"

#include <cmath>

#include "impeccable/md/forcefield.hpp"

namespace impeccable::fe {

double frame_binding_energy(const md::ForceField& ff, const md::Frame& frame,
                            int rotatable_bonds, const MmpbsaOptions& opts) {
  const md::Topology& topo = ff.topology();
  const double e_inter = ff.interaction_energy(frame.positions);

  // Desolvation: for each ligand bead count protein neighbours within the
  // burial shell. Buried charge/polarity costs energy (lost water H-bonds);
  // buried hydrophobic surface gains (hydrophobic effect).
  const auto lig = topo.selection(md::BeadKind::Ligand);
  const auto prot = topo.selection(md::BeadKind::Protein);
  const double c2 = opts.burial_cutoff * opts.burial_cutoff;
  double desolv = 0.0;
  for (int i : lig) {
    int neighbours = 0;
    for (int j : prot)
      if (common::distance2(frame.positions[static_cast<std::size_t>(i)],
                            frame.positions[static_cast<std::size_t>(j)]) < c2)
        ++neighbours;
    const md::Bead& b = topo.beads[static_cast<std::size_t>(i)];
    desolv += neighbours * opts.desolv_charged * b.charge * b.charge;
    if (b.hydrophobic) desolv += neighbours * opts.desolv_hydrophobic;
  }

  const double entropy = opts.entropy_per_torsion * rotatable_bonds;
  return e_inter + desolv + entropy;
}

double replica_binding_energy(const md::System& system,
                              const md::Trajectory& traj, int rotatable_bonds,
                              const MmpbsaOptions& opts) {
  if (traj.frames.empty()) return 0.0;
  const md::ForceField ff(system.topology);
  double acc = 0.0;
  for (const auto& f : traj.frames)
    acc += frame_binding_energy(ff, f, rotatable_bonds, opts);
  return acc / static_cast<double>(traj.frames.size());
}

}  // namespace impeccable::fe
