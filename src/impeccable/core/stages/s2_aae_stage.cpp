#include "impeccable/core/stages/s2_aae_stage.hpp"

#include <algorithm>
#include <numeric>
#include <utility>

#include "impeccable/md/analysis.hpp"
#include "impeccable/ml/lof.hpp"

namespace impeccable::core::stages {

std::vector<rct::TaskDescription> S2AaeStage::build(CampaignState& cs) {
  if (cs.scale) {
    std::vector<rct::TaskDescription> tasks;
    tasks.reserve(static_cast<std::size_t>(cs.scale->s2_tasks));
    for (int k = 0; k < cs.scale->s2_tasks; ++k) {
      rct::TaskDescription t;
      t.name = "aae-train";
      t.whole_nodes = cs.scale->s2_whole_nodes;
      t.duration = cs.scale->s2_seconds;
      tasks.push_back(std::move(t));
    }
    return tasks;
  }

  rct::TaskDescription t;
  t.name = "aae-train-lof";
  t.gpus = 6;  // the paper trains with 6 GPUs per model
  t.duration = cs.exec->sim_durations.s2;
  CampaignState* st = &cs;
  auto scratch = s_;
  t.payload = [st, scratch] {
    // Rank CG compounds by energy; keep the top binders.
    std::vector<std::size_t> order(scratch->cg_pick.size());
    std::iota(order.begin(), order.end(), std::size_t{0});
    std::sort(order.begin(), order.end(), [&](std::size_t a, std::size_t b) {
      return scratch->cg_results[a].binding_free_energy <
             scratch->cg_results[b].binding_free_energy;
    });
    order.resize(std::min(st->science->top_binders, order.size()));

    // Collect Cα point clouds from every frame of every replica of the
    // selected compounds.
    struct CloudRef {
      std::size_t cg_index;
      std::size_t replica;
      std::size_t frame;
    };
    std::vector<std::vector<common::Vec3>> clouds;
    std::vector<CloudRef> refs;
    for (std::size_t j : order) {
      const auto& trajs = scratch->cg_results[j].trajectories;
      for (std::size_t r = 0; r < trajs.size(); ++r) {
        for (std::size_t f = 0; f < trajs[r].frames.size(); ++f) {
          clouds.push_back(md::protein_point_cloud(trajs[r].frames[f],
                                                   scratch->cg_systems[j]));
          refs.push_back({j, r, f});
        }
      }
    }
    if (clouds.empty()) return;

    ml::Aae3d aae(static_cast<int>(clouds.front().size()), st->science->aae);
    aae.train(clouds);
    const auto latent = aae.embed_batch(clouds);
    const auto lof = ml::local_outlier_factor(
        latent, std::min<int>(10, static_cast<int>(latent.size()) - 1));
    st->report->flops->add(
        "S2", aae.flops_per_sample() * clouds.size() *
                  static_cast<std::uint64_t>(st->science->aae.epochs));

    // Per binder: the most outlying conformations seed S3-FG.
    for (std::size_t j : order) {
      std::vector<std::pair<double, std::size_t>> mine;
      for (std::size_t c = 0; c < refs.size(); ++c)
        if (refs[c].cg_index == j) mine.emplace_back(lof[c], c);
      std::sort(mine.rbegin(), mine.rend());
      const std::size_t take =
          std::min(st->science->outliers_per_binder, mine.size());
      for (std::size_t o = 0; o < take; ++o) {
        const CloudRef& ref = refs[mine[o].second];
        IterationScratch::FgJob job;
        job.cg_index = j;
        job.system = scratch->cg_systems[j];
        job.system.positions = scratch->cg_results[j]
                                   .trajectories[ref.replica]
                                   .frames[ref.frame]
                                   .positions;
        job.rotatable = scratch->cg_rotatable[j];
        scratch->fg_jobs.push_back(std::move(job));
      }
    }
    scratch->fg_results.resize(scratch->fg_jobs.size());
  };
  return {std::move(t)};
}

void S2AaeStage::merge(CampaignState&) {
  // The single S2 task writes only iteration scratch (fg_jobs/fg_results);
  // nothing to fold into shared state.
}

}  // namespace impeccable::core::stages
