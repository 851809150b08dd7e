#pragma once
// Shared campaign state threaded through the stage modules.
//
// CampaignState replaces the capture-everything lambdas of the old
// Campaign::run() monolith with one explicit, documented surface. The
// memory model is simple and load-bearing for cross-iteration pipelining:
//
//  * task payloads write only their own pre-sized slot of an
//    IterationScratch (dock_results[i], cg_results[j], ...);
//  * every other mutation — selection, feedback accumulation, record and
//    metric updates — happens inside Stage::merge(), and the graph engine
//    serializes merges (StageNode::post_exec) across the whole run;
//  * cross-iteration reads are ordered by graph dependencies: iteration
//    i+1's ML1 depends on iteration i's S1 merge, which is the only writer
//    of the training set and the `docked` flags ML1 reads.

#include <cstdint>
#include <map>
#include <memory>
#include <set>
#include <string>
#include <vector>

#include "impeccable/chem/ligand_source.hpp"
#include "impeccable/core/campaign.hpp"
#include "impeccable/ml/streaming.hpp"

namespace impeccable::core::stages {

/// Deterministic per-item seed derivation (identical to the historical
/// campaign formula, so per-compound docking seeds are stable).
inline std::uint64_t item_seed(std::uint64_t base, std::uint64_t salt,
                               std::uint64_t i) {
  std::uint64_t s = base ^ (salt * 0x9e3779b97f4a7c15ULL);
  common::splitmix64(s);
  return s ^ (i * 0xbf58476d1ce4e5b9ULL);
}

/// Mix an iteration index into a stage salt: every (iteration, stage) pair
/// draws from its own stream, so science results do not depend on the order
/// iterations execute in (sequential vs pipelined mode).
inline std::uint64_t iter_salt(std::uint64_t salt, int iteration) {
  return salt ^ (0x9e3779b97f4a7c15ULL *
                 (static_cast<std::uint64_t>(iteration) + 1));
}

/// Virtual-workload description for scale studies: when installed on the
/// CampaignState, stage modules build chunked TaskDescriptions with
/// calibrated durations instead of real payloads, and merges become no-ops.
/// This is how bench/campaign_at_scale drives the real stage modules at
/// 10^8-ligand scale on a SimBackend.
struct ScaleModel {
  double ml1_ligands = 0.0;
  int ml1_shards = 1;
  double ml1_gpu_seconds_per_ligand = 0.0;

  std::size_t s1_docks = 0;
  std::size_t s1_chunk = 1000;  ///< ligands packed per docking task
  double s1_gpu_seconds_per_ligand = 0.0;

  std::size_t cg_ligands = 0;
  int cg_whole_nodes = 1;
  double cg_seconds = 0.0;  ///< per ensemble

  int s2_tasks = 8;
  int s2_whole_nodes = 2;
  double s2_seconds = 0.0;

  std::size_t fg_conformations = 0;
  int fg_whole_nodes = 4;
  double fg_seconds = 0.0;  ///< per ensemble

  /// Optional replay: when set, the virtual ML1 shard tasks additionally
  /// stream their partition of a *real* LigandSource through the real
  /// featurize -> predict -> streaming-top-k path (durations stay virtual).
  /// This is how bench/library_scale runs the production ML1 code over a
  /// 1e8-ligand on-disk store inside a simulated campaign.
  struct Replay {
    const chem::LigandSource* source = nullptr;
    const ml::SurrogateModel* model = nullptr;
    std::size_t window = 8192;
    std::size_t top_k = 1000;
    // Outputs, written only by ML1 merges (engine-serialized):
    std::vector<ml::TopCandidate> selected;  ///< exact top-k, last iteration
    std::size_t ligands_scored = 0;          ///< cumulative over iterations
  };
  Replay* replay = nullptr;
};

/// Mutable state of one campaign iteration, shared by that iteration's five
/// stage modules. Tasks write only to their own index; graph dependencies
/// order the phases.
struct IterationScratch {
  int iteration = 0;

  // ML1 outputs. Library-wide surrogate scores live in an external-memory
  // spill (RAM-backed for InMemorySource, file-backed for MmapSource) —
  // never a materialized std::vector over the library. `dock_pred` carries
  // the predictions for just the selected dock slice (0.5 on bootstrap
  // iterations, before the surrogate has trained).
  std::shared_ptr<ml::ScoreSpill> scores;
  std::vector<double> dock_pred;  ///< parallel to dock_indices

  // Scale-replay partials: one slot per virtual ML1 shard task.
  std::vector<std::vector<ml::TopCandidate>> replay_parts;

  // S1 inputs/outputs.
  std::vector<std::size_t> dock_indices;  ///< into the library
  std::vector<chem::Molecule> molecules;  ///< parsed, parallel to dock_indices
  std::vector<dock::DockResult> dock_results;

  // S3-CG.
  std::vector<std::size_t> cg_pick;  ///< indices into dock_indices
  std::vector<md::System> cg_systems;
  std::vector<int> cg_rotatable;
  std::vector<fe::EsmacsResult> cg_results;

  // S2 -> S3-FG.
  struct FgJob {
    std::size_t cg_index = 0;  ///< which CG compound this conformation is of
    md::System system;
    int rotatable = 0;
  };
  std::vector<FgJob> fg_jobs;
  std::vector<fe::EsmacsResult> fg_results;

  // Stage timestamps (backend seconds) for throughput metrics.
  double iter_begin = 0.0, s1_begin = 0.0, s1_end = 0.0;
};

/// Campaign-wide shared state. Built by MultiCampaign::run() (the only
/// place a campaign is lowered); stage modules hold it through a shared_ptr
/// captured in the graph nodes and read only the config half they need.
struct CampaignState {
  const Target* target = nullptr;
  /// Per-target science; null for virtual (ScaleModel) targets.
  const ScienceConfig* science = nullptr;
  /// The execution config shared by every target of the run.
  const ExecConfig* exec = nullptr;
  rct::ExecutionBackend* backend = nullptr;
  CampaignReport* report = nullptr;
  const ScaleModel* scale = nullptr;  ///< non-null = virtual workload mode

  /// This target's checkpoint file: exec->checkpoint_path, resolved when
  /// the state is built (".<target-name>"-suffixed when several targets
  /// share the ExecConfig).
  std::string checkpoint_path;

  /// The library, behind a polymorphic source: InMemorySource (eager,
  /// historical behavior) or MmapSource (on-disk store, lazy windows) per
  /// exec->library_backend. Accessors are const and thread-safe; stages
  /// address ligands by ordinal everywhere.
  std::shared_ptr<const chem::LigandSource> source;
  /// Directory of the on-disk store (empty under kInMemory); iteration
  /// score spills land here too.
  std::string store_dir;

  /// Compound id -> library ordinal for every compound that has a record.
  /// Built once (checkpoint restore resolves all prior ids in one library
  /// scan) and extended as records are created; auto-budget validation
  /// lookups reuse it instead of re-scanning.
  std::map<std::string, std::size_t> id_index;
  /// Ordinals of every docked compound (restored or this run): the "never
  /// redo work" filter, without per-candidate id round-trips.
  std::set<std::size_t> docked_indices;

  /// Accumulated ML1 training data: depictions + dock scores (the feedback
  /// loop). Appended only by S1 merges, read only by downstream ML1 stages.
  std::vector<chem::Image> train_images;
  std::vector<double> train_scores;

  /// Build the ligand source (generate in RAM, or spill/reuse the on-disk
  /// store), then restore the records of `resume_checkpoint` (if non-empty)
  /// into the report and the training set. Requires target/science/exec/
  /// report to be set. Not used in scale mode.
  void init(const std::string& resume_checkpoint);

  /// The record for library ordinal `index`, created (id, smiles, and
  /// id_index entry) on first touch. Records exist only for touched
  /// compounds — a 1e8-ligand run must not materialize 1e8 records.
  CompoundRecord& record_for(std::size_t index);

  IterationMetrics& metrics(int iteration) {
    return report->iterations[static_cast<std::size_t>(iteration)];
  }
};

}  // namespace impeccable::core::stages
