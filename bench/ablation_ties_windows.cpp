// Ablation: TIES λ-window schedule. The TI integral converges with the
// number of λ windows (the production protocol uses 13); too few windows
// bias the trapezoid integral where <dH/dλ> is curved (near λ=0, where the
// soft core switches on). This sweep shows the estimate stabilizing as the
// schedule densifies — the convergence check any TI study runs.

#include <cstdio>
#include <vector>

#include "impeccable/chem/smiles.hpp"
#include "impeccable/common/thread_pool.hpp"
#include "impeccable/dock/engine.hpp"
#include "impeccable/dock/receptor.hpp"
#include "impeccable/fe/ties.hpp"
#include "impeccable/md/system.hpp"

namespace chem = impeccable::chem;
namespace dock = impeccable::dock;
namespace md = impeccable::md;
namespace fe = impeccable::fe;

int main() {
  const auto receptor = dock::Receptor::synthesize("T", 808);
  const auto grid = dock::compute_grid(receptor);
  const auto mol = chem::parse_smiles("CCOc1ccc(N)cc1C(=O)O");
  dock::DockOptions dopts;
  dopts.runs = 2;
  const auto pose = dock::dock(*grid, mol, "L", dopts);
  md::ProteinOptions popts;
  popts.residues = 50;
  const auto protein = md::build_protein(808, popts);
  const auto lpc = md::build_lpc(protein, mol, pose.best_coords);

  impeccable::common::ThreadPool pool;
  const impeccable::common::ComputePoolScope pool_scope(&pool);

  std::printf("TIES lambda-window convergence (one LPC, 4 replicas/window)\n\n");
  std::printf("%-10s %-14s %-12s %-14s\n", "windows", "dG (kcal/mol)", "sem",
              "MD steps");
  for (int windows : {3, 5, 9, 13}) {
    fe::TiesConfig cfg;
    cfg.lambdas.clear();
    for (int w = 0; w < windows; ++w)
      cfg.lambdas.push_back(static_cast<double>(w) / (windows - 1));
    cfg.replicas_per_window = 4;
    cfg.simulation.equilibration_steps = 60;
    cfg.simulation.production_steps = 240;
    cfg.simulation.report_interval = 20;
    const auto res = fe::run_ties(lpc, cfg, 99);
    std::printf("%-10d %-14.2f %-12.2f %-14llu\n", windows, res.delta_g,
                res.std_error, static_cast<unsigned long long>(res.md_steps));
  }
  std::printf("\nexpected shape: the estimate stabilizes once the schedule "
              "resolves the curvature of <dH/dlambda>; the paper's production "
              "protocol uses 13 windows.\n");
  return 0;
}
