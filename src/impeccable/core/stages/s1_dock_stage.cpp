#include "impeccable/core/stages/s1_dock_stage.hpp"

#include <algorithm>

#include "impeccable/chem/descriptors.hpp"
#include "impeccable/chem/diversity.hpp"
#include "impeccable/md/simulation.hpp"

namespace impeccable::core::stages {

std::vector<rct::TaskDescription> S1DockStage::build(CampaignState& cs) {
  s_->s1_begin = cs.backend->now();

  if (cs.scale) {
    // Virtual workload: ligands packed into chunked GPU docking tasks.
    std::vector<rct::TaskDescription> tasks;
    const ScaleModel& m = *cs.scale;
    for (std::size_t done = 0; done < m.s1_docks; done += m.s1_chunk) {
      const std::size_t n = std::min(m.s1_chunk, m.s1_docks - done);
      rct::TaskDescription t;
      t.name = "dock-chunk";
      t.gpus = 1;
      t.duration = static_cast<double>(n) * m.s1_gpu_seconds_per_ligand;
      tasks.push_back(std::move(t));
    }
    return tasks;
  }

  std::vector<rct::TaskDescription> tasks;
  tasks.reserve(s_->dock_indices.size());
  CampaignState* st = &cs;
  auto scratch = s_;
  for (std::size_t i = 0; i < s_->dock_indices.size(); ++i) {
    rct::TaskDescription t;
    t.name = "dock-" + cs.source->id(s_->dock_indices[i]);
    t.gpus = 1;
    t.duration = cs.exec->sim_durations.dock;
    t.payload = [st, scratch, i] {
      const Target& target = *st->target;
      dock::DockOptions dopts = st->science->dock;
      const std::size_t idx = scratch->dock_indices[i];
      // Seeded by the global library index, not the iteration: a compound
      // docks identically no matter which iteration selects it.
      dopts.seed = item_seed(st->exec->seed, 0xd0c, idx);
      const std::string id = st->source->id(idx);
      // Parse (and protonate) here, on a worker, into this task's own
      // scratch slot — under an out-of-core source there is no materialized
      // molecule to copy.
      scratch->molecules[i] = st->source->molecule(idx);
      // S1 protocol: enumerate conformers, dock against every crystal
      // structure of the target, keep the best pose overall.
      if (target.grids.size() > 1) {
        scratch->dock_results[i] = dock::dock_multi_structure(
            target.grids, scratch->molecules[i], id, dopts);
      } else if (st->science->conformers_per_ligand > 1) {
        scratch->dock_results[i] = dock::dock_conformer_ensemble(
            *target.grid, scratch->molecules[i], id,
            st->science->conformers_per_ligand, dopts);
      } else {
        scratch->dock_results[i] =
            dock::dock(*target.grid, scratch->molecules[i], id, dopts);
      }
    };
    tasks.push_back(std::move(t));
  }
  return tasks;
}

void S1DockStage::merge(CampaignState& cs) {
  if (cs.scale) return;
  s_->s1_end = cs.backend->now();
  for (std::size_t i = 0; i < s_->dock_indices.size(); ++i) {
    const std::size_t idx = s_->dock_indices[i];
    const auto& dres = s_->dock_results[i];
    auto& rec = cs.record_for(idx);
    rec.dock_score = dres.best_score;
    rec.docked = true;
    rec.surrogate_score = s_->dock_pred[i];
    cs.docked_indices.insert(idx);
    cs.train_images.push_back(cs.source->image(idx));
    cs.train_scores.push_back(dres.best_score);
    cs.report->flops->add(
        "S1", dres.evaluations *
                  dock::flops_per_evaluation(
                      s_->molecules[i].atom_count(),
                      static_cast<int>(s_->molecules[i].atom_count()) * 4));
  }

  // Diversity pick over the docked set (Sec. 7.1.2).
  std::vector<chem::BitSet> fps;
  fps.reserve(s_->molecules.size());
  for (const auto& mol : s_->molecules)
    fps.push_back(chem::morgan_fingerprint(mol));
  s_->cg_pick = chem::maxmin_pick(
      fps, std::min(cs.science->cg_compounds, fps.size()),
      item_seed(cs.exec->seed, iter_salt(0xd17, iter_), 0));

  s_->cg_systems.reserve(s_->cg_pick.size());
  s_->cg_rotatable.reserve(s_->cg_pick.size());
  for (std::size_t k : s_->cg_pick) {
    s_->cg_systems.push_back(md::build_lpc(cs.target->protein, s_->molecules[k],
                                           s_->dock_results[k].best_coords));
    s_->cg_rotatable.push_back(
        chem::compute_descriptors(s_->molecules[k]).rotatable_bonds);
  }
  s_->cg_results.resize(s_->cg_pick.size());
}

}  // namespace impeccable::core::stages
