#pragma once
// MultiCampaign — the paper's actual operating mode (Sec. 6.1.2, Fig. 3): a
// dozen protein targets screened concurrently through ONE shared EnTK/RAPTOR
// infrastructure, not one Campaign::run() per target.
//
// N CampaignStates (one per Target, each with its own ScienceConfig and
// CampaignReport, all sharing one ExecConfig) are lowered into a single
// StageGraph executed by one AppManager on one shared backend. run() is the
// only place a campaign is lowered: Campaign::run() is its one-target case,
// and the scale benches add virtual targets.
//
// Co-scheduling is science-neutral by construction: every science decision
// draws from functional per-item seeds (item_seed/iter_salt over the
// target's own seeds) and every merge is serialized by the engine against
// per-target state, so each target's science_fingerprint() is bitwise
// identical to its single-target run — no matter how many targets share the
// machine, which ReadyOrder the manager uses, or what a TargetPolicy does to
// the priorities.
//
// Scheduling is where the targets interact: critical-path node priorities
// (stages::stage_tails) make CG/S2/FG ensemble waves preempt bulk dock
// waves in the shared cluster queue, and after each target's S1 feedback
// merge a pluggable TargetPolicy re-weights that target's remaining nodes
// by realized hit rate — rich targets outbid stale ones for the backend.

#include <cstddef>
#include <memory>
#include <string>
#include <vector>

#include "impeccable/core/campaign.hpp"
#include "impeccable/core/stages/campaign_state.hpp"
#include "impeccable/core/stages/graph_builder.hpp"

namespace impeccable::core {

/// Dock scores at/below this energy count as hits for TargetProgress.
inline constexpr double kHitThreshold = -6.0;

/// Observed progress of one target, handed to the TargetPolicy after each
/// of its S1 feedback merges.
struct TargetProgress {
  std::size_t target = 0;  ///< index in add order
  int iteration = 0;       ///< iteration whose S1 merge just ran
  std::size_t docked = 0;  ///< compounds docked so far (all iterations)
  std::size_t hits = 0;    ///< docked compounds at/below the hit threshold
  double best_dock_score = 0.0;  ///< lowest docking energy seen (0 if none)

  double hit_rate() const {
    return docked > 0 ? static_cast<double>(hits) / static_cast<double>(docked)
                      : 0.0;
  }
};

/// Re-weights targets each iteration. Strictly scheduling-side: the boost
/// moves a target's nodes up or down the shared queues but never changes
/// budgets, selection, or any other science-bearing decision — that is what
/// keeps fingerprints invariant to the policy chosen.
class TargetPolicy {
 public:
  virtual ~TargetPolicy() = default;
  /// Extra priority added to every not-yet-launched node of this target.
  virtual double priority_boost(const TargetProgress& progress) const = 0;
};

/// The default re-weighting: rich targets steal scheduling preference from
/// stale ones proportionally to their realized hit rate.
class HitRatePolicy final : public TargetPolicy {
 public:
  explicit HitRatePolicy(double weight = 600.0) : weight_(weight) {}
  double priority_boost(const TargetProgress& progress) const override {
    return weight_ * progress.hit_rate();
  }

 private:
  double weight_;
};

struct MultiCampaignOptions {
  /// Ready-queue discipline of the shared AppManager. Priority order is the
  /// point of co-scheduling and assigns critical-path node priorities
  /// (stages::stage_tails); kFifo assigns none and reproduces
  /// independent-campaign behavior (and is the bench baseline).
  rct::AppManagerOptions::ReadyOrder ready_order =
      rct::AppManagerOptions::ReadyOrder::kPriority;
  /// Optional per-iteration target re-weighting. Borrowed, may be null;
  /// must outlive run().
  const TargetPolicy* policy = nullptr;
};

struct MultiCampaignReport {
  std::vector<std::string> targets;     ///< names, add order
  std::vector<CampaignReport> reports;  ///< parallel to `targets`
  rct::GraphRunReport graph;            ///< shared-run scheduling report
  rct::SessionProfile profile;          ///< whole-session task records
};

class MultiCampaign {
 public:
  explicit MultiCampaign(ExecConfig exec, MultiCampaignOptions opts = {});

  /// Add one real target with its per-target science slice. Returns the
  /// target's index. With more than one target, per-target checkpoint and
  /// resume paths get a ".<target-name>" suffix so targets do not clobber
  /// each other's files.
  std::size_t add_target(Target target, ScienceConfig science);

  /// Add a virtual target driven by a ScaleModel: `iterations` graph
  /// iterations of chunked, calibrated-duration tasks and no-op merges —
  /// how campaign_at_scale and library_scale drive the real stage modules
  /// at 10^8-ligand scale on a SimBackend. The model is copied; its replay,
  /// if any, is borrowed and must outlive run().
  std::size_t add_virtual_target(std::string name, int iterations,
                                 stages::ScaleModel scale);

  std::size_t target_count() const { return entries_.size(); }

  /// Run every target's campaign through one shared graph (blocking).
  /// Uses a LocalBackend internally.
  MultiCampaignReport run();
  /// Same, on an externally-owned backend (SimBackend for scale studies,
  /// RaptorBackend(SimBackend) for the full overlay interaction).
  MultiCampaignReport run(rct::ExecutionBackend& backend);

 private:
  /// Heap-stable: a run's CampaignState points into its entry.
  struct Entry {
    std::string name;
    Target target;
    ScienceConfig science;
    stages::ScaleModel scale;
    int iterations = 0;  ///< virtual targets only
    bool is_virtual = false;
  };

  /// Node priorities reach the backend only under kPriority.
  bool critical_path_priority() const {
    return opts_.ready_order == rct::AppManagerOptions::ReadyOrder::kPriority;
  }
  void apply_policy(rct::StageGraph& graph, std::size_t index, int iteration,
                    const CampaignReport& report,
                    const std::vector<stages::CampaignGraphIds>& ids) const;

  ExecConfig exec_;
  MultiCampaignOptions opts_;
  std::vector<std::unique_ptr<Entry>> entries_;
};

}  // namespace impeccable::core
