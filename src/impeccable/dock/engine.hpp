#pragma once
// DockingEngine — the AutoDock-GPU equivalent used by stage S1.
//
// For one (receptor grid, ligand) pair it runs `runs` independent LGA
// searches, clusters the final poses by RMSD, and reports the best pose and
// score ("A drug screen takes the best scoring pose from these independent
// outputs", Sec. 5.1.1). Receptor re-use across many ligands is the natural
// calling pattern: compile the grid once, dock a stream of ligands.
//
// The runs fan out through common::parallel_for over the installed compute
// pool (serial when none is). Per-run RNG streams are spawned serially before
// dispatch, so results are identical whatever the pool size.

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "impeccable/chem/molecule.hpp"
#include "impeccable/dock/receptor.hpp"
#include "impeccable/dock/search.hpp"

namespace impeccable::dock {

struct DockOptions {
  int runs = 4;                    ///< independent LGA runs per ligand
  double cluster_rmsd = 2.0;       ///< Å, pose clustering tolerance
  LgaOptions lga;
  std::uint64_t seed = 0x0d0cULL;  ///< base seed; per-run streams derive from it
  std::uint64_t conformer_seed = 7;
};

struct PoseCluster {
  double best_energy = 0.0;
  int members = 0;
  Pose representative;
};

struct DockResult {
  std::string ligand_id;
  double best_score = 0.0;          ///< kcal/mol-ish; lower = better binding
  Pose best_pose;
  std::vector<common::Vec3> best_coords;
  std::vector<PoseCluster> clusters;  ///< sorted by best_energy
  std::uint64_t evaluations = 0;      ///< total scoring calls (work units)
  int torsion_count = 0;
};

/// Dock one molecule against a precompiled grid.
DockResult dock(const AffinityGrid& grid, const chem::Molecule& mol,
                const std::string& ligand_id, const DockOptions& opts = {});

/// Conformer-ensemble docking — the "ligand 3D structure (conformer)
/// enumeration" step of the S1 protocol (Sec. 3.2): embed `conformers`
/// distinct 3D conformers of the molecule (derived seeds), dock each, and
/// return the best result. `conformer_scores`, if given, receives the best
/// score per conformer.
DockResult dock_conformer_ensemble(const AffinityGrid& grid,
                                   const chem::Molecule& mol,
                                   const std::string& ligand_id,
                                   int conformers, const DockOptions& opts = {},
                                   std::vector<double>* conformer_scores = nullptr);

/// Multi-crystal-structure docking (Sec. 7.1.2: "multiple crystal structures
/// were used to perform docking"): dock against each grid and return the
/// best-scoring result, recording which structure won in `best_structure`.
DockResult dock_multi_structure(
    const std::vector<std::shared_ptr<const AffinityGrid>>& grids,
    const chem::Molecule& mol, const std::string& ligand_id,
    const DockOptions& opts = {}, int* best_structure = nullptr);

/// Approximate floating-point operations for one pose evaluation of a ligand
/// with `atoms` atoms and `nb_pairs` intramolecular pairs — the per-work-unit
/// flop model backing Table 3's S1 row.
std::uint64_t flops_per_evaluation(int atoms, int nb_pairs);

}  // namespace impeccable::dock
