// Ablation (Sec. 5.1.3): why ensembles? "MMPBSA based free energies have
// huge variability in results rendering them non-reproducible" with single
// trajectories; ESMACS's replica ensembles make the estimate reproducible,
// and "the number of replicas performed is adjusted to find a sweet spot".
//
// Protocol: one docked LPC; for each replica count R in {1, 2, 6, 12, 24},
// run the full ESMACS estimate 6 independent times (different seeds) and
// report the spread (SD) of the 6 estimates — the reproducibility metric —
// plus the mean reported standard error. Expect SD ~ 1/sqrt(R).

#include <cmath>
#include <cstdio>
#include <vector>

#include "impeccable/chem/descriptors.hpp"
#include "impeccable/chem/smiles.hpp"
#include "impeccable/common/stats.hpp"
#include "impeccable/common/thread_pool.hpp"
#include "impeccable/dock/engine.hpp"
#include "impeccable/dock/receptor.hpp"
#include "impeccable/fe/esmacs.hpp"
#include "impeccable/md/system.hpp"

namespace chem = impeccable::chem;
namespace dock = impeccable::dock;
namespace md = impeccable::md;
namespace fe = impeccable::fe;

int main() {
  // One representative LPC.
  const auto receptor = dock::Receptor::synthesize("T", 4242);
  const auto grid = dock::compute_grid(receptor);
  const auto mol = chem::parse_smiles("CCOc1ccc(cc1)C(=O)Nc1ccccn1");
  dock::DockOptions dopts;
  dopts.runs = 2;
  const auto pose = dock::dock(*grid, mol, "L", dopts);
  md::ProteinOptions popts;
  popts.residues = 60;
  const auto protein = md::build_protein(4242, popts);
  const auto lpc = md::build_lpc(protein, mol, pose.best_coords);
  const int rotatable = chem::compute_descriptors(mol).rotatable_bonds;

  const int repeats = 6;
  impeccable::common::ThreadPool pool;
  const impeccable::common::ComputePoolScope pool_scope(&pool);

  std::printf("ESMACS ensemble-size ablation (one LPC, %d independent "
              "estimates per replica count)\n\n", repeats);
  std::printf("%-10s %-14s %-22s %-20s\n", "replicas", "mean dG",
              "SD across estimates", "mean reported SEM");

  double sd1 = 0.0, sd_last = 0.0;
  int last_r = 0;
  for (int replicas : {1, 2, 6, 12, 24}) {
    fe::EsmacsConfig cfg = fe::cg_config(0.4);
    cfg.replicas = replicas;

    std::vector<double> estimates, sems;
    for (int rep = 0; rep < repeats; ++rep) {
      const auto res = fe::run_esmacs(lpc, rotatable, cfg,
                                      0x5eedULL + 1000 * rep);
      estimates.push_back(res.binding_free_energy);
      sems.push_back(res.std_error);
    }
    const double sd = impeccable::common::stddev(estimates);
    if (replicas == 1) sd1 = sd;
    sd_last = sd;
    last_r = replicas;
    std::printf("%-10d %-14.2f %-22.3f %-20.3f\n", replicas,
                impeccable::common::mean(estimates), sd,
                impeccable::common::mean(sems));
  }

  std::printf("\nreproducibility gain 1 -> %d replicas: %.1fx tighter "
              "(sqrt(%d) = %.1f expected)\n",
              last_r, sd1 / std::max(1e-9, sd_last), last_r,
              std::sqrt(static_cast<double>(last_r)));
  return 0;
}
