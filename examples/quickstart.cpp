// Quickstart: the shortest path through the public API.
//
// Synthesizes a receptor ("target"), compiles its affinity grid, docks one
// ligand with the Lamarckian GA, transplants the best pose into the
// coarse-grained MD protein, and estimates the binding free energy with a
// small ESMACS ensemble. The whole run is traced through obs::Recorder and
// exported as quickstart_trace.json — drop it on https://ui.perfetto.dev
// (or chrome://tracing) to see the dock/fe/pool spans on a timeline.
//
//   $ ./examples/quickstart

#include <cstdio>
#include <filesystem>

#include "impeccable/chem/descriptors.hpp"
#include "impeccable/chem/smiles.hpp"
#include "impeccable/common/thread_pool.hpp"
#include "impeccable/dock/engine.hpp"
#include "impeccable/dock/receptor.hpp"
#include "impeccable/fe/esmacs.hpp"
#include "impeccable/md/io.hpp"
#include "impeccable/md/system.hpp"
#include "impeccable/obs/recorder.hpp"
#include "impeccable/obs/trace_export.hpp"

namespace chem = impeccable::chem;
namespace common = impeccable::common;
namespace dock = impeccable::dock;
namespace md = impeccable::md;
namespace fe = impeccable::fe;
namespace obs = impeccable::obs;

int main() {
  // 0. Observability: one recorder for the whole run. Every instrumented
  // layer below records spans into it; without this install each span is a
  // single untaken branch.
  obs::Recorder recorder;
  obs::ScopedRecorder scoped(&recorder);
  // The compute pool the dock runs and ESMACS replicas fan out over.
  common::ThreadPool pool;
  const common::ComputePoolScope pool_scope(&pool);
  // 1. A target: procedural receptor + precompiled affinity maps.
  const auto receptor = dock::Receptor::synthesize("demo-target", /*seed=*/42);
  const auto grid = dock::compute_grid(receptor);
  std::printf("receptor '%s': %zu pocket atoms\n", receptor.name().c_str(),
              receptor.atoms().size());

  // 2. A ligand from SMILES.
  const char* smiles = "CC(C)Cc1ccc(cc1)C(C)C(=O)O";  // ibuprofen
  const auto mol = chem::parse_smiles(smiles);
  const auto desc = chem::compute_descriptors(mol);
  std::printf("ligand %s  (MW %.1f, %d rotatable bonds)\n", smiles,
              desc.molecular_weight, desc.rotatable_bonds);

  // 3. Dock: 4 independent LGA runs, pose clustering, best score.
  dock::DockOptions dopts;
  dopts.runs = 4;
  const auto result = dock::dock(*grid, mol, "ibuprofen", dopts);
  std::printf("docking: best score %.2f kcal/mol, %zu pose clusters, %llu "
              "evaluations\n",
              result.best_score, result.clusters.size(),
              static_cast<unsigned long long>(result.evaluations));
  for (std::size_t c = 0; c < result.clusters.size(); ++c)
    std::printf("  cluster %zu: %.2f kcal/mol (%d/%d runs)\n", c,
                result.clusters[c].best_energy, result.clusters[c].members,
                dopts.runs);

  // 4. Binding free energy: build the LPC and run coarse-grained ESMACS.
  md::ProteinOptions popts;
  popts.residues = 60;
  const auto protein = md::build_protein(/*seed=*/42, popts);
  const auto lpc = md::build_lpc(protein, mol, result.best_coords);

  fe::EsmacsConfig cfg = fe::cg_config(0.5);
  cfg.keep_trajectories = true;
  const auto esmacs =
      fe::run_esmacs(lpc, desc.rotatable_bonds, cfg, /*seed=*/7);
  std::printf("CG-ESMACS (%d replicas): dG = %.2f +- %.2f kcal/mol "
              "(95%% CI [%.2f, %.2f]; within-replica %.2f)\n",
              cfg.replicas, esmacs.binding_free_energy, esmacs.std_error,
              esmacs.ci95.lo, esmacs.ci95.hi, esmacs.within_replica_error);

  // 5. Artifacts for a molecular viewer: the docked complex and one replica.
  const auto dir = std::filesystem::temp_directory_path();
  const auto pdb = (dir / "impeccable_complex.pdb").string();
  const auto xyz = (dir / "impeccable_replica0.xyz").string();
  md::write_pdb(lpc, lpc.positions, pdb);
  md::write_xyz(esmacs.trajectories.front(), xyz);
  std::printf("wrote %s and %s\n", pdb.c_str(), xyz.c_str());

  // 6. The trace: every span of the run as Chrome trace_event JSON.
  const auto trace_path = (dir / "quickstart_trace.json").string();
  obs::write_chrome_trace(recorder.take(), trace_path);
  std::printf("wrote %s (open in https://ui.perfetto.dev)\n",
              trace_path.c_str());
  return 0;
}
