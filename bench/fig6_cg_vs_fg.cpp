// Fig. 6 reproduction: "Comparison of S3-CG and S3-FG results for the five
// best binders ... S2 selected five outlier conformations for each binder
// and performed FG-ESMACS on them. The provisional results confirm improved
// binding for the selected conformations in all five compounds, as FG
// energies are lower than CG."
//
// Pipeline: CG campaign -> rank by CG dG -> 3D-AAE + LOF pick outlier
// conformations per top binder -> FG-ESMACS seeded from those conformations
// -> per-binder CG vs best-FG comparison. The shape to match: FG < CG for
// (nearly) all top binders.

#include <algorithm>
#include <cstdio>
#include <numeric>

#include "esmacs_fixture.hpp"
#include "impeccable/md/analysis.hpp"
#include "impeccable/ml/aae.hpp"
#include "impeccable/ml/lof.hpp"

namespace md = impeccable::md;
namespace ml = impeccable::ml;
namespace fe = impeccable::fe;

int main() {
  const std::size_t pool_size = 24;
  const std::size_t top_n = 5;
  const std::size_t outliers_per_binder = 5;

  auto workload =
      fixture::run_cg_campaign(pool_size, /*seed=*/31, /*esmacs_scale=*/0.5,
                               /*replicas=*/4, /*keep_trajectories=*/true);

  // Rank by CG binding free energy.
  std::vector<std::size_t> order(workload.compounds.size());
  std::iota(order.begin(), order.end(), std::size_t{0});
  std::sort(order.begin(), order.end(), [&](std::size_t a, std::size_t b) {
    return workload.compounds[a].esmacs.binding_free_energy <
           workload.compounds[b].esmacs.binding_free_energy;
  });
  order.resize(top_n);

  // S2: AAE over the top binders' ensembles, LOF outliers per binder.
  struct Ref {
    std::size_t compound, replica, frame;
  };
  std::vector<std::vector<impeccable::common::Vec3>> clouds;
  std::vector<Ref> refs;
  for (std::size_t j : order) {
    const auto& c = workload.compounds[j];
    for (std::size_t r = 0; r < c.esmacs.trajectories.size(); ++r)
      for (std::size_t f = 0; f < c.esmacs.trajectories[r].frames.size(); ++f) {
        clouds.push_back(
            md::protein_point_cloud(c.esmacs.trajectories[r].frames[f], c.lpc));
        refs.push_back({j, r, f});
      }
  }
  ml::AaeOptions aopts;
  aopts.epochs = 10;
  ml::Aae3d aae(static_cast<int>(clouds.front().size()), aopts);
  aae.train(clouds);
  const auto lof = ml::local_outlier_factor(aae.embed_batch(clouds), 10);

  std::printf("Fig. 6: CG vs FG binding free energies for the top-%zu CG "
              "binders (PLPro-like target)\n\n", top_n);
  std::printf("%-14s %-16s %-30s %-12s %-8s\n", "compound", "dG(CG)",
              "dG(FG) per outlier conf", "best FG", "FG<CG?");

  fe::EsmacsConfig fg = fe::fg_config(0.15);
  fg.replicas = 8;  // scaled-down FG ensemble

  int improved = 0;
  impeccable::common::ThreadPool pool;
  const impeccable::common::ComputePoolScope pool_scope(&pool);
  for (std::size_t j : order) {
    auto& c = workload.compounds[j];
    // This binder's most outlying conformations.
    std::vector<std::pair<double, std::size_t>> mine;
    for (std::size_t k = 0; k < refs.size(); ++k)
      if (refs[k].compound == j) mine.emplace_back(lof[k], k);
    std::sort(mine.rbegin(), mine.rend());
    mine.resize(std::min(outliers_per_binder, mine.size()));

    std::vector<double> fg_energies;
    for (const auto& [score, k] : mine) {
      md::System conf = c.lpc;
      conf.positions = c.esmacs.trajectories[refs[k].replica]
                           .frames[refs[k].frame]
                           .positions;
      const auto res =
          fe::run_esmacs(conf, c.rotatable, fg, 77 ^ (k * 131));
      fg_energies.push_back(res.binding_free_energy);
    }

    const double best_fg =
        *std::min_element(fg_energies.begin(), fg_energies.end());
    const double cg = c.esmacs.binding_free_energy;
    if (best_fg < cg) ++improved;

    char fg_list[128] = {0};
    std::size_t off = 0;
    for (double e : fg_energies)
      off += static_cast<std::size_t>(std::snprintf(
          fg_list + off, sizeof fg_list - off, "%.1f ", e));
    std::printf("%-14s %-16.2f %-30s %-12.2f %-8s\n", c.id.c_str(), cg, fg_list,
                best_fg, best_fg < cg ? "yes" : "no");
  }
  std::printf("\nFG improved on CG for %d/%zu binders "
              "(paper: all five; S2's outliers capture favourable "
              "conformations)\n", improved, top_n);
  return 0;
}
