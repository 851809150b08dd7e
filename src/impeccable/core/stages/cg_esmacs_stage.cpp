#include "impeccable/core/stages/cg_esmacs_stage.hpp"

#include "impeccable/md/simulation.hpp"

namespace impeccable::core::stages {

std::vector<rct::TaskDescription> CgEsmacsStage::build(CampaignState& cs) {
  if (cs.scale) {
    std::vector<rct::TaskDescription> tasks;
    tasks.reserve(cs.scale->cg_ligands);
    for (std::size_t j = 0; j < cs.scale->cg_ligands; ++j) {
      rct::TaskDescription t;
      t.name = "cg-esmacs";
      t.whole_nodes = cs.scale->cg_whole_nodes;
      t.duration = cs.scale->cg_seconds;
      tasks.push_back(std::move(t));
    }
    return tasks;
  }

  std::vector<rct::TaskDescription> tasks;
  tasks.reserve(s_->cg_pick.size());
  CampaignState* st = &cs;
  auto scratch = s_;
  for (std::size_t j = 0; j < s_->cg_pick.size(); ++j) {
    rct::TaskDescription t;
    t.name = "cg-" + s_->dock_results[s_->cg_pick[j]].ligand_id;
    t.gpus = 1;
    t.duration = cs.exec->sim_durations.cg;
    t.payload = [st, scratch, j] {
      fe::EsmacsConfig cfg = st->science->esmacs_cg;
      cfg.keep_trajectories = true;  // S2 consumes the ensembles
      scratch->cg_results[j] = fe::run_esmacs(
          scratch->cg_systems[j], scratch->cg_rotatable[j], cfg,
          item_seed(st->exec->seed,
                    iter_salt(0xc6, scratch->iteration), j));
    };
    tasks.push_back(std::move(t));
  }
  return tasks;
}

void CgEsmacsStage::merge(CampaignState& cs) {
  if (cs.scale) return;
  for (std::size_t j = 0; j < s_->cg_pick.size(); ++j) {
    const auto& id = s_->dock_results[s_->cg_pick[j]].ligand_id;
    auto& rec = cs.report->compounds.at(id);
    rec.cg_energy = s_->cg_results[j].binding_free_energy;
    rec.cg_error = s_->cg_results[j].std_error;
    rec.cg_done = true;
    cs.report->flops->add(
        "S3-CG",
        s_->cg_results[j].md_steps *
            md::flops_per_md_step(
                s_->cg_systems[j].topology.bead_count(),
                static_cast<std::uint64_t>(
                    s_->cg_systems[j].topology.bead_count()) *
                    24));
  }
}

}  // namespace impeccable::core::stages
