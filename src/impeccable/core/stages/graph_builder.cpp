#include "impeccable/core/stages/graph_builder.hpp"

#include <string>

#include "impeccable/core/stages/cg_esmacs_stage.hpp"
#include "impeccable/core/stages/fg_esmacs_stage.hpp"
#include "impeccable/core/stages/ml1_stage.hpp"
#include "impeccable/core/stages/s1_dock_stage.hpp"
#include "impeccable/core/stages/s2_aae_stage.hpp"

namespace impeccable::core::stages {

StageTails stage_tails(const ExecConfig::StageDurations& d) {
  StageTails t;
  // The ensemble tail each node gates within its own iteration: a CG wave
  // holds up cg+s2+fg virtual seconds of downstream work, so it outbids the
  // cheap-per-task ML1/S1 bulk in every backend queue. ML1 also carries the
  // full chain tail: it gates everything downstream of it yet costs almost
  // nothing per shard, so ranking it below per-chunk docking inverts the
  // critical path (a cheap gate starving behind bulk work it unblocks).
  t.cg = d.cg + d.s2 + d.fg;
  t.s2 = d.s2 + d.fg;
  t.fg = d.fg;
  t.ml1 = d.ml1 + t.cg;
  t.s1 = d.dock;
  return t;
}

StageTails stage_tails(const ScaleModel& m) {
  StageTails t;
  // Virtual-workload tails use each target's own calibrated model, so
  // co-scheduled heterogeneous targets rank against each other: the
  // ensemble stages carry the aggregate node-seconds of the remaining
  // CG -> S2 -> FG chain (a rich target's wave outbids a winding-down
  // one's), while S1 keeps a per-chunk magnitude — bulk docking stays
  // backfill no matter how large the stream is. ML1 carries the chain
  // tail on top of its per-shard cost: it gates the whole iteration yet
  // is the cheapest stage, and ranking it below docking starves the one
  // task wave that unblocks everything else behind bulk traffic.
  const double cg = static_cast<double>(m.cg_ligands) * m.cg_whole_nodes *
                    m.cg_seconds;
  const double s2 = static_cast<double>(m.s2_tasks) * m.s2_whole_nodes *
                    m.s2_seconds;
  const double fg = static_cast<double>(m.fg_conformations) *
                    m.fg_whole_nodes * m.fg_seconds;
  t.cg = cg + s2 + fg;
  t.s2 = s2 + fg;
  t.fg = fg;
  t.ml1 = (m.ml1_shards > 0
               ? m.ml1_ligands / m.ml1_shards * m.ml1_gpu_seconds_per_ligand
               : 0.0) +
          t.cg;
  t.s1 = static_cast<double>(m.s1_chunk) * m.s1_gpu_seconds_per_ligand;
  return t;
}

std::vector<CampaignGraphIds> add_campaign_graph(
    rct::StageGraph& graph, const std::shared_ptr<CampaignState>& state,
    int iterations, bool pipelined, const CampaignGraphOptions& opts) {
  std::vector<CampaignGraphIds> out;
  out.reserve(static_cast<std::size_t>(iterations));

  for (int iter = 0; iter < iterations; ++iter) {
    auto scratch = std::make_shared<IterationScratch>();
    scratch->iteration = iter;
    const std::string pipeline = "iteration-" + std::to_string(iter);

    CampaignGraphIds ids;
    std::vector<rct::NodeId> ml1_deps;
    if (iter > 0) {
      // The feedback edge: next iteration's surrogate needs this
      // iteration's docking scores — and, in sequential mode, the whole
      // iteration to have finished.
      ml1_deps.push_back(pipelined ? out.back().s1 : out.back().fg);
    }
    ids.ml1 = graph.add(
        to_node(std::make_shared<Ml1Stage>(iter, scratch), state, pipeline),
        std::move(ml1_deps));
    rct::StageNode s1 =
        to_node(std::make_shared<S1DockStage>(iter, scratch), state, pipeline);
    if (opts.on_s1_merged) {
      // Chain the hook after the stage's own feedback merge; both run under
      // the engine's post_exec serialization.
      auto merge = std::move(s1.post_exec);
      s1.post_exec = [merge = std::move(merge), hook = opts.on_s1_merged,
                      iter](rct::StageGraph& g) {
        if (merge) merge(g);
        hook(g, iter);
      };
    }
    ids.s1 = graph.add(std::move(s1), {ids.ml1});
    ids.cg = graph.add(
        to_node(std::make_shared<CgEsmacsStage>(iter, scratch), state, pipeline),
        {ids.s1});
    ids.s2 = graph.add(
        to_node(std::make_shared<S2AaeStage>(iter, scratch), state, pipeline),
        {ids.cg});
    ids.fg = graph.add(
        to_node(std::make_shared<FgEsmacsStage>(iter, scratch), state, pipeline),
        {ids.s2});

    if (opts.critical_path_priority) {
      const StageTails t = state->scale
                               ? stage_tails(*state->scale)
                               : stage_tails(state->exec->sim_durations);
      graph.set_priority(ids.ml1, t.ml1);
      graph.set_priority(ids.s1, t.s1);
      graph.set_priority(ids.cg, t.cg);
      graph.set_priority(ids.s2, t.s2);
      graph.set_priority(ids.fg, t.fg);
    }
    out.push_back(ids);
  }
  return out;
}

}  // namespace impeccable::core::stages
