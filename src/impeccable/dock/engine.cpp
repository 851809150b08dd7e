#include "impeccable/dock/engine.hpp"

#include <algorithm>
#include <stdexcept>

#include "impeccable/common/kabsch.hpp"
#include "impeccable/common/rng.hpp"
#include "impeccable/common/thread_pool.hpp"
#include "impeccable/obs/recorder.hpp"

namespace impeccable::dock {

DockResult dock(const AffinityGrid& grid, const chem::Molecule& mol,
                const std::string& ligand_id, const DockOptions& opts) {
  obs::Span span(obs::cat::kDock, ligand_id);
  const Ligand ligand(mol, opts.conformer_seed);

  struct RunOutput {
    LgaResult lga;
  };
  std::vector<RunOutput> runs(static_cast<std::size_t>(std::max(0, opts.runs)));

  // Spawn the per-run RNG streams serially first — base.spawn() order is the
  // determinism anchor — then execute the runs in any order. Each run gets
  // its own ScoringFunction because run_lga reports per-run evaluation counts
  // as a delta of the scorer's counter; run_lga owns the run's ScorerScratch
  // arena, so steady-state scoring inside a run never allocates.
  common::Rng base(opts.seed ^ std::hash<std::string>{}(ligand_id));
  std::vector<common::Rng> run_rngs;
  run_rngs.reserve(runs.size());
  for (std::size_t r = 0; r < runs.size(); ++r) run_rngs.push_back(base.spawn());

  common::parallel_for(0, runs.size(), [&](std::size_t r) {
    const ScoringFunction score(grid, ligand);
    runs[r].lga = run_lga(score, run_rngs[r], opts.lga);
  });

  // Cluster final poses by heavy-atom RMSD (docking frame is fixed by the
  // receptor, so no superposition — raw RMSD, as AutoDock does).
  std::sort(runs.begin(), runs.end(), [](const RunOutput& a, const RunOutput& b) {
    return a.lga.best_energy < b.lga.best_energy;
  });

  DockResult out;
  out.ligand_id = ligand_id;
  out.torsion_count = ligand.torsion_count();

  // Each cluster's representative coordinates are cached when the cluster is
  // created (a run's best_coords are already built), so membership tests cost
  // one RMSD instead of a coordinate rebuild per comparison.
  std::vector<const std::vector<common::Vec3>*> cluster_coords;
  for (const auto& run : runs) {
    bool placed = false;
    for (std::size_t c = 0; c < out.clusters.size(); ++c) {
      if (common::rmsd_raw(*cluster_coords[c], run.lga.best_coords) <
          opts.cluster_rmsd) {
        ++out.clusters[c].members;
        placed = true;
        break;
      }
    }
    if (!placed) {
      PoseCluster cl;
      cl.best_energy = run.lga.best_energy;
      cl.members = 1;
      cl.representative = run.lga.best_pose;
      out.clusters.push_back(std::move(cl));
      cluster_coords.push_back(&run.lga.best_coords);
    }
    out.evaluations += run.lga.evaluations;
  }

  const auto& best = runs.front().lga;
  out.best_score = best.best_energy;
  out.best_pose = best.best_pose;
  out.best_coords = best.best_coords;

  if (span.active()) {
    span.arg("evaluations", static_cast<double>(out.evaluations));
    span.arg("best_score", out.best_score);
    span.arg("clusters", static_cast<double>(out.clusters.size()));
    obs::Recorder* rec = obs::global();
    rec->metrics().counter("dock.ligands").add(1);
    rec->metrics().counter("dock.evaluations").add(out.evaluations);
    const double start = span.start_time();
    rec->metrics().histogram("dock.ligand_seconds").observe(rec->now() - start);
  }
  return out;
}

DockResult dock_conformer_ensemble(const AffinityGrid& grid,
                                   const chem::Molecule& mol,
                                   const std::string& ligand_id,
                                   int conformers, const DockOptions& opts,
                                   std::vector<double>* conformer_scores) {
  if (conformers < 1) conformers = 1;
  if (conformer_scores) conformer_scores->clear();

  DockResult best;
  bool first = true;
  std::uint64_t total_evals = 0;
  for (int c = 0; c < conformers; ++c) {
    DockOptions copts = opts;
    copts.conformer_seed = opts.conformer_seed + 101 * static_cast<std::uint64_t>(c);
    DockResult res = dock(grid, mol, ligand_id, copts);
    total_evals += res.evaluations;
    if (conformer_scores) conformer_scores->push_back(res.best_score);
    if (first || res.best_score < best.best_score) {
      best = std::move(res);
      first = false;
    }
  }
  best.evaluations = total_evals;
  return best;
}

DockResult dock_multi_structure(
    const std::vector<std::shared_ptr<const AffinityGrid>>& grids,
    const chem::Molecule& mol, const std::string& ligand_id,
    const DockOptions& opts, int* best_structure) {
  if (grids.empty())
    throw std::invalid_argument("dock_multi_structure: no grids");
  DockResult best;
  bool first = true;
  std::uint64_t total_evals = 0;
  for (std::size_t g = 0; g < grids.size(); ++g) {
    DockOptions sopts = opts;
    sopts.seed = opts.seed ^ (0x9e37 * (g + 1));
    DockResult res = dock(*grids[g], mol, ligand_id, sopts);
    total_evals += res.evaluations;
    if (first || res.best_score < best.best_score) {
      best = std::move(res);
      first = false;
      if (best_structure) *best_structure = static_cast<int>(g);
    }
  }
  best.evaluations = total_evals;
  return best;
}

std::uint64_t flops_per_evaluation(int atoms, int nb_pairs) {
  // Per atom: one fused cell locate feeding trilinear interpolation with
  // gradient on two fields (~90 flops each of arithmetic — fusing halves the
  // index math, not the interpolation arithmetic itself) plus bookkeeping;
  // per intramolecular pair: distance, powers and LJ combination from the
  // precomputed table (~40 flops). Coordinates build: rotation and torsion
  // transforms, ~60 flops/atom.
  return static_cast<std::uint64_t>(atoms) * (2 * 90 + 60) +
         static_cast<std::uint64_t>(nb_pairs) * 40;
}

}  // namespace impeccable::dock
