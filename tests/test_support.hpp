#pragma once
// Fixtures shared by more than one test suite. A helper lives here once it
// is needed in two files; anything a single suite uses stays in that
// suite's anonymous namespace.

#include <cstdint>
#include <filesystem>
#include <memory>
#include <string>

#include "impeccable/chem/descriptors.hpp"
#include "impeccable/chem/smiles.hpp"
#include "impeccable/dock/engine.hpp"
#include "impeccable/dock/receptor.hpp"
#include "impeccable/md/system.hpp"
#include "impeccable/rct/task.hpp"

/// `name` under the system temp directory. Nothing is created.
inline std::filesystem::path tmp_path(const std::string& name) {
  return std::filesystem::temp_directory_path() / name;
}

/// Affinity maps of the synthetic receptor `name` (seeded by `seed`) on a
/// `nodes`-per-axis lattice; small lattices keep tests fast.
inline std::shared_ptr<const impeccable::dock::AffinityGrid> receptor_grid(
    const char* name, std::uint64_t seed, int nodes) {
  impeccable::dock::GridOptions gopts;
  gopts.nodes = nodes;
  return impeccable::dock::compute_grid(
      impeccable::dock::Receptor::synthesize(name, seed), gopts);
}

/// A small docked ligand-protein complex (LPC) and its ligand's rotatable
/// bond count: the free-energy protocols' input.
struct LpcFixture {
  impeccable::md::System system;
  int rotatable = 0;
};

/// Dock `smiles` into a synthetic receptor grid, then transplant the best
/// pose into the matching 50-residue MD protein.
inline LpcFixture make_lpc(const char* smiles, std::uint64_t seed) {
  namespace chem = impeccable::chem;
  namespace dock = impeccable::dock;
  namespace md = impeccable::md;
  const auto grid = receptor_grid("R", seed, 21);
  const auto mol = chem::parse_smiles(smiles);
  dock::DockOptions dopts;
  dopts.runs = 1;
  dopts.lga.population = 20;
  dopts.lga.generations = 8;
  const auto dres = dock::dock(*grid, mol, "L", dopts);

  md::ProteinOptions popts;
  popts.residues = 50;
  const auto protein = md::build_protein(seed, popts);

  LpcFixture fx;
  fx.system = md::build_lpc(protein, mol, dres.best_coords);
  fx.rotatable = chem::compute_descriptors(mol).rotatable_bonds;
  return fx;
}

/// A payload-free task holding `gpus` GPUs for `duration` virtual seconds
/// (SimBackend / RAPTOR scheduling tests).
inline impeccable::rct::TaskDescription sim_task(const std::string& name,
                                                 double duration, int gpus = 1) {
  impeccable::rct::TaskDescription t;
  t.name = name;
  t.gpus = gpus;
  t.duration = duration;
  return t;
}
