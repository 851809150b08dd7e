#pragma once
// Shared workload builder for the Fig. 5/6 benches: generate a library
// slice, dock it against one target, transplant poses into the MD protein
// and run CG-ESMACS, optionally retaining the replica trajectories for S2.

#include <cstdio>
#include <string>
#include <vector>

#include "impeccable/chem/descriptors.hpp"
#include "impeccable/chem/library.hpp"
#include "impeccable/chem/smiles.hpp"
#include "impeccable/common/thread_pool.hpp"
#include "impeccable/dock/engine.hpp"
#include "impeccable/dock/receptor.hpp"
#include "impeccable/fe/esmacs.hpp"
#include "impeccable/md/system.hpp"

namespace fixture {

namespace chem = impeccable::chem;
namespace dock = impeccable::dock;
namespace md = impeccable::md;
namespace fe = impeccable::fe;

struct CompoundCg {
  std::string id;
  chem::Molecule molecule;
  int rotatable = 0;
  dock::DockResult dock_result;
  md::System lpc;
  fe::EsmacsResult esmacs;
};

struct Workload {
  md::System protein;
  std::vector<CompoundCg> compounds;
};

/// Dock `count` library compounds and run CG-ESMACS on each.
inline Workload run_cg_campaign(std::size_t count, std::uint64_t seed,
                                double esmacs_scale, int replicas,
                                bool keep_trajectories,
                                double temperature = 300.0) {
  Workload out;
  const auto lib = chem::generate_library("OZD", count, 2020 + seed);
  const auto receptor = dock::Receptor::synthesize("PLPro-like", 6909 ^ seed);
  const auto grid = dock::compute_grid(receptor);
  md::ProteinOptions popts;
  popts.residues = 60;
  out.protein = md::build_protein(6909 ^ seed, popts);

  dock::DockOptions dopts;
  dopts.runs = 1;
  dopts.lga.population = 16;
  dopts.lga.generations = 6;
  dopts.lga.ad.max_iterations = 25;

  fe::EsmacsConfig cfg = fe::cg_config(esmacs_scale);
  cfg.replicas = replicas;
  cfg.keep_trajectories = keep_trajectories;
  cfg.simulation.langevin.temperature = temperature;

  out.compounds.resize(count);
  impeccable::common::ThreadPool pool;
  pool.parallel_for(0, count, [&](std::size_t i) {
    CompoundCg& c = out.compounds[i];
    c.id = lib.entries[i].id;
    c.molecule = chem::parse_smiles(lib.entries[i].smiles);
    c.rotatable = chem::compute_descriptors(c.molecule).rotatable_bonds;
    c.dock_result = dock::dock(*grid, c.molecule, c.id, dopts);
    c.lpc = md::build_lpc(out.protein, c.molecule, c.dock_result.best_coords);
    c.esmacs = fe::run_esmacs(c.lpc, c.rotatable, cfg, seed ^ (i * 7919));
  });
  return out;
}

}  // namespace fixture
