#pragma once
// Assembles the campaign's stage graph: five stage modules per iteration,
// chained ML1 -> S1 -> S3-CG -> S2 -> S3-FG, plus the cross-iteration
// feedback edge. Called only by MultiCampaign::run(), for real targets and
// for virtual ones (a ScaleModel on the state, e.g. the scale benches on a
// SimBackend) alike.

#include <functional>
#include <memory>

#include "impeccable/core/stages/campaign_state.hpp"
#include "impeccable/rct/entk.hpp"

namespace impeccable::core::stages {

struct CampaignGraphIds {
  rct::NodeId ml1 = rct::kNoNode;
  rct::NodeId s1 = rct::kNoNode;
  rct::NodeId cg = rct::kNoNode;
  rct::NodeId s2 = rct::kNoNode;
  rct::NodeId fg = rct::kNoNode;
};

struct CampaignGraphOptions {
  /// Assign critical-path node priorities from exec->sim_durations (or the
  /// state's ScaleModel for virtual targets): each node's priority is the
  /// ensemble tail it gates within its iteration (CG -> cg+s2+fg, S2 ->
  /// s2+fg, FG -> fg, ML1 -> ml1+cg+s2+fg since it gates the whole chain at
  /// near-zero cost, S1 -> dock), so under ReadyOrder::kPriority the long
  /// CG/S2/FG waves that gate the pipelined makespan preempt bulk ML1/S1
  /// work in the backend queues.
  /// Scheduling-only: priorities never change what any stage computes.
  bool critical_path_priority = false;
  /// Runs (serialized with all merges) right after iteration `iter`'s S1
  /// feedback merge — the earliest point realized hit rates exist.
  /// MultiCampaign re-weights this target's not-yet-launched nodes from
  /// here via StageGraph::set_priority.
  std::function<void(rct::StageGraph&, int iter)> on_s1_merged;
};

/// Add `iterations` campaign iterations to `graph` over the shared state.
///
/// Sequential mode (pipelined = false): iteration i+1's ML1 depends on
/// iteration i's S3-FG — the strict one-iteration-at-a-time loop of the
/// original monolith.
///
/// Pipelined mode (pipelined = true): iteration i+1's ML1 depends only on
/// iteration i's S1 merge — the earliest point its training data exists —
/// so iteration i+1's surrogate retrain and docking overlap iteration i's
/// CG/S2/FG tail. Per-(iteration, stage) seeding keeps the science bitwise
/// identical between the two modes.
///
/// Returns the node ids of every iteration, in order.
std::vector<CampaignGraphIds> add_campaign_graph(
    rct::StageGraph& graph, const std::shared_ptr<CampaignState>& state,
    int iterations, bool pipelined, const CampaignGraphOptions& opts = {});

/// The per-stage critical-path priorities used under
/// CampaignGraphOptions::critical_path_priority.
struct StageTails {
  double ml1 = 0.0, s1 = 0.0, cg = 0.0, s2 = 0.0, fg = 0.0;
};
/// Real campaigns: per-task sim durations, same tails for every target.
StageTails stage_tails(const ExecConfig::StageDurations& d);
/// Virtual campaigns: aggregate remaining node-seconds of the target's own
/// ScaleModel, so heterogeneous co-scheduled targets rank against each
/// other (used automatically when CampaignState::scale is set).
StageTails stage_tails(const ScaleModel& m);

}  // namespace impeccable::core::stages
