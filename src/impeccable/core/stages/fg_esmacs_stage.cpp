#include "impeccable/core/stages/fg_esmacs_stage.hpp"

#include <algorithm>
#include <string>

#include "impeccable/common/stats.hpp"
#include "impeccable/core/checkpoint.hpp"
#include "impeccable/md/simulation.hpp"

namespace impeccable::core::stages {

std::vector<rct::TaskDescription> FgEsmacsStage::build(CampaignState& cs) {
  if (cs.scale) {
    std::vector<rct::TaskDescription> tasks;
    tasks.reserve(cs.scale->fg_conformations);
    for (std::size_t f = 0; f < cs.scale->fg_conformations; ++f) {
      rct::TaskDescription t;
      t.name = "fg-esmacs";
      t.whole_nodes = cs.scale->fg_whole_nodes;
      t.duration = cs.scale->fg_seconds;
      tasks.push_back(std::move(t));
    }
    return tasks;
  }

  std::vector<rct::TaskDescription> tasks;
  tasks.reserve(s_->fg_jobs.size());
  CampaignState* st = &cs;
  auto scratch = s_;
  for (std::size_t f = 0; f < s_->fg_jobs.size(); ++f) {
    rct::TaskDescription t;
    t.name = "fg-" + std::to_string(f);
    t.gpus = 1;
    t.duration = cs.exec->sim_durations.fg;
    t.payload = [st, scratch, f] {
      scratch->fg_results[f] = fe::run_esmacs(
          scratch->fg_jobs[f].system, scratch->fg_jobs[f].rotatable,
          st->science->esmacs_fg,
          item_seed(st->exec->seed, iter_salt(0xf6, scratch->iteration), f));
    };
    tasks.push_back(std::move(t));
  }
  return tasks;
}

void FgEsmacsStage::merge(CampaignState& cs) {
  if (cs.scale) return;
  for (std::size_t f = 0; f < s_->fg_jobs.size(); ++f) {
    const std::size_t j = s_->fg_jobs[f].cg_index;
    const auto& id = s_->dock_results[s_->cg_pick[j]].ligand_id;
    auto& rec = cs.report->compounds.at(id);
    rec.fg_energies.push_back(s_->fg_results[f].binding_free_energy);
    cs.report->flops->add(
        "S3-FG",
        s_->fg_results[f].md_steps *
            md::flops_per_md_step(
                s_->fg_jobs[f].system.topology.bead_count(),
                static_cast<std::uint64_t>(
                    s_->fg_jobs[f].system.topology.bead_count()) *
                    24));
  }

  // ---------------------------------------------------------------- metrics
  IterationMetrics& metrics = cs.metrics(iter_);
  metrics.docked = s_->dock_indices.size();
  metrics.cg_runs = s_->cg_pick.size();
  metrics.fg_runs = s_->fg_jobs.size();
  // library_screened is stamped unconditionally by Ml1Stage::merge — the
  // enrichment denominator is always the full library, warm-up included.
  const double now = cs.backend->now();
  metrics.wall_seconds = now - s_->iter_begin;
  const double s1_wall = std::max(1e-9, s_->s1_end - s_->s1_begin);
  metrics.dock_throughput = static_cast<double>(metrics.docked) / s1_wall;
  metrics.effective_ligands_per_second =
      static_cast<double>(metrics.library_screened) /
      std::max(1e-9, metrics.wall_seconds);

  {
    std::vector<double> pred, truth;
    for (std::size_t i = 0; i < s_->dock_indices.size(); ++i) {
      pred.push_back(s_->dock_pred[i]);
      truth.push_back(-s_->dock_results[i].best_score);  // higher = better
    }
    metrics.surrogate_spearman =
        pred.size() >= 3 ? common::spearman(pred, truth) : 0.0;
  }
  {
    double best_cg = 0.0, best_fg = 0.0;
    for (const auto& r : s_->cg_results)
      best_cg = std::min(best_cg, r.binding_free_energy);
    for (const auto& r : s_->fg_results)
      best_fg = std::min(best_fg, r.binding_free_energy);
    metrics.best_cg_energy = best_cg;
    metrics.best_fg_energy = best_fg;
  }

  // Iteration span: event-loop style emit — the iteration does not nest
  // inside one thread's scope once stages run graph-scheduled.
  if (obs::Recorder* rec = cs.backend->recorder()) {
    obs::SpanRecord span;
    span.category = obs::cat::kStage;
    span.name = "iteration-" + std::to_string(iter_);
    span.start = s_->iter_begin;
    span.end = now;
    span.arg("docked", static_cast<double>(metrics.docked));
    span.arg("cg_runs", static_cast<double>(metrics.cg_runs));
    span.arg("fg_runs", static_cast<double>(metrics.fg_runs));
    rec->emit(std::move(span));
  }

  // Periodic checkpoint: one consistent snapshot per finished iteration
  // (merges are serialized, so no partial merge can be observed here).
  if (!cs.checkpoint_path.empty())
    write_checkpoint(*cs.report, cs.checkpoint_path);

  // Release the bulky per-iteration intermediates (trajectories, systems);
  // the records and metrics above are the iteration's durable output.
  s_->cg_systems.clear();
  s_->cg_systems.shrink_to_fit();
  s_->fg_jobs.clear();
  s_->fg_jobs.shrink_to_fit();
}

}  // namespace impeccable::core::stages
