#pragma once
// The IMPECCABLE campaign (Fig. 1): the iterative loop
//
//   ML1 (surrogate inference over the library)
//     -> S1 (AutoDock on the predicted top slice + an exploration sample)
//     -> S3-CG (coarse ESMACS on the structurally most diverse docked hits)
//     -> S2 (3D-AAE over CG trajectories + LOF outlier conformations)
//     -> S3-FG (fine ESMACS on outlier conformations of the top CG binders)
//     -> feedback (docking scores retrain ML1 for the next iteration)
//
// Each iteration is one five-stage EnTK pipeline; stages are constructed
// adaptively in post_exec callbacks because each stage's task list depends
// on the previous stage's results (Sec. 6.1, Fig. 2).

#include <cstdint>
#include <iosfwd>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "impeccable/chem/library.hpp"
#include "impeccable/dock/engine.hpp"
#include "impeccable/fe/esmacs.hpp"
#include "impeccable/hpc/flops.hpp"
#include "impeccable/md/system.hpp"
#include "impeccable/ml/aae.hpp"
#include "impeccable/ml/surrogate.hpp"
#include "impeccable/rct/entk.hpp"
#include "impeccable/rct/profiler.hpp"

namespace impeccable::core {

/// One target protein: its docking receptor(s) with compiled grids and the
/// matching coarse-grained MD protein, all derived from one seed. Multiple
/// "crystal structures" (Sec. 7.1.2) are receptor variants of the same
/// target; docking takes the best pose over all of them.
struct Target {
  std::string name;
  std::uint64_t seed = 0;
  dock::Receptor receptor;  ///< the primary structure
  std::shared_ptr<const dock::AffinityGrid> grid;  ///< == grids.front()
  std::vector<std::shared_ptr<const dock::AffinityGrid>> grids;
  md::System protein;

  static Target make(const std::string& name, std::uint64_t seed,
                     int protein_residues = 60, int grid_nodes = 25,
                     int crystal_structures = 1);
};

/// Per-target science parameters: everything that decides WHAT the campaign
/// computes — library, budgets, fractions, engine options. Two targets in
/// one MultiCampaign each carry their own ScienceConfig; the science
/// fingerprint is a pure function of (Target, ScienceConfig, ExecConfig
/// seeds) and never of scheduling.
struct ScienceConfig {
  std::size_t library_size = 400;
  std::uint64_t library_seed = 2020;
  std::string library_name = "OZD";

  int iterations = 2;
  /// Fraction of the library ML1 promotes to docking.
  double dock_top_fraction = 0.10;
  /// Extra exploration sample from below the cut (the paper keeps 15-20%
  /// of the docked budget for lower-ranked compounds, Sec. 7.1.1).
  double explore_fraction = 0.18;
  /// Seed docking budget for iteration 0 (before ML1 has training data).
  std::size_t bootstrap_docks = 60;

  /// RES-driven budgeting (Sec. 7.1.1: "The RES plot also provides a
  /// quantitative estimate of the number of compounds we have to sample"):
  /// when enabled, iterations > 0 size their docking budget as the smallest
  /// screening fraction whose predicted-top slice covers
  /// `auto_budget_coverage` of the true top `auto_budget_top`, estimated on
  /// the already-docked validation set. Overrides dock_top_fraction.
  bool auto_dock_budget = false;
  double auto_budget_top = 0.05;
  double auto_budget_coverage = 0.5;

  /// 3D conformers embedded and docked per ligand (S1 conformer
  /// enumeration); the best-scoring conformer's pose advances.
  int conformers_per_ligand = 1;

  /// If > 0, ligands are protonated for this pH before featurization and
  /// docking (the "ready-to-dock" library preparation). 0 = use molecules
  /// as generated.
  double prepare_ligands_at_ph = 0.0;

  /// Compounds promoted to S3-CG per iteration (diversity-picked).
  std::size_t cg_compounds = 12;
  /// Top CG binders advanced to S2/S3-FG.
  std::size_t top_binders = 3;
  /// Outlier conformations per binder for S3-FG (the paper uses 5).
  std::size_t outliers_per_binder = 3;

  dock::DockOptions dock;
  fe::EsmacsConfig esmacs_cg = fe::cg_config(0.5);
  fe::EsmacsConfig esmacs_fg = fe::fg_config(0.25);
  ml::SurrogateOptions surrogate;
  ml::AaeOptions aae;
};

/// Shared execution parameters: everything that decides HOW the campaign
/// runs — threads, seeds, retries, overheads, pipelining, checkpointing,
/// observability. One ExecConfig is shared by every target of a
/// MultiCampaign. None of these fields may change a science_fingerprint()
/// except `seed` (the base of the functional per-item seed derivation).
struct ExecConfig {
  std::size_t threads = 0;  ///< LocalBackend worker threads (0 = hardware)
  std::uint64_t seed = 0xca4'9a19ULL;

  /// Cross-iteration pipelining (Sec. 5.2.1: "pipelines run concurrently,
  /// each progressing at its own pace"): when true, iteration i+1's ML1
  /// retrain/infer depends only on iteration i's S1 feedback merge — not on
  /// its S3-FG — so next-iteration docking overlaps with the current
  /// iteration's S3-CG/S2/S3-FG. Per-(iteration, stage) seeding keeps the
  /// science bitwise identical to sequential mode.
  bool pipeline_iterations = false;

  /// EnTK AppManager wiring (rct::AppManagerOptions), previously silently
  /// defaulted inside run(): failed tasks are resubmitted up to max_retries
  /// times; each non-root stage pays the fixed transition overhead in
  /// backend seconds.
  int max_retries = 0;
  double stage_transition_overhead = 0.5;

  /// When set, a full checkpoint (core::write_checkpoint) is rewritten here
  /// after each iteration's feedback merge, so a killed campaign resumes via
  /// resume_checkpoint without redoing finished docking work.
  std::string checkpoint_path;

  /// Virtual per-task durations in backend seconds, used only when the
  /// campaign runs on a SimBackend (LocalBackend measures real time). The
  /// defaults keep the paper's proportions: S3 ensembles dominate, docking
  /// is cheap per ligand, S2 sits in between.
  struct StageDurations {
    double ml1 = 60.0;   ///< the train+infer task
    double dock = 0.5;   ///< per docked ligand
    double cg = 600.0;   ///< per S3-CG ensemble
    double s2 = 300.0;   ///< the AAE train + LOF task
    double fg = 1200.0;  ///< per S3-FG ensemble
  };
  StageDurations sim_durations;

  /// Observability: when set, the campaign installs this recorder globally
  /// for the duration of run(), wires its clock to the backend's wall clock,
  /// and every layer (stage, task, dock, ml, fe, pool) records spans and
  /// metrics into it. Null = a private recorder that still feeds
  /// CampaignReport::profile but is discarded afterwards.
  obs::Recorder* recorder = nullptr;

  /// Resume from a checkpoint written by core::write_checkpoint: previously
  /// docked/estimated compounds are restored and re-seed the ML1 training
  /// set, so a resumed campaign does not redo finished work.
  std::string resume_checkpoint;

  /// Where the library lives (the ML1 data path). kInMemory parses and
  /// depicts every compound up front — the historical behavior, fine to
  /// ~1e6 ligands. kMmapStore spills the generated library once into an
  /// on-disk chem::LigandStore and streams parse/depict/predict in bounded
  /// windows, so the real code path runs at 1e8+ ligands. The science
  /// fingerprint is bitwise identical between the two (an ExecConfig field
  /// by contract; pinned in tests/library_store_test.cpp).
  enum class LibraryBackend { kInMemory, kMmapStore };
  LibraryBackend library_backend = LibraryBackend::kInMemory;

  /// Store directory for kMmapStore. Empty = a per-(name, size, seed)
  /// directory under the system temp path. A directory already holding a
  /// matching store is reused instead of re-spilled.
  std::string library_store_dir;

  /// Ligands per streaming featurization window: bounds ML1's resident
  /// image memory for both backends (the spilled score array is file-backed
  /// under kMmapStore, so peak RSS tracks this window, not library size).
  std::size_t featurize_window = 4096;
};

/// Per-compound record accumulated across the campaign.
struct CompoundRecord {
  std::string id;
  std::string smiles;
  double surrogate_score = 0.0;  ///< ML1 prediction in [0, 1]
  double dock_score = 0.0;       ///< S1 best pose energy
  bool docked = false;
  double cg_energy = 0.0;        ///< S3-CG binding free energy
  double cg_error = 0.0;
  bool cg_done = false;
  std::vector<double> fg_energies;  ///< S3-FG per outlier conformation
};

struct IterationMetrics {
  int iteration = 0;
  std::size_t library_screened = 0;  ///< compounds covered by ML1 inference
  std::size_t docked = 0;
  std::size_t cg_runs = 0;
  std::size_t fg_runs = 0;
  double wall_seconds = 0.0;
  /// Raw throughput: ligands docked per second of stage-S1 wall time.
  double dock_throughput = 0.0;
  /// Scientific performance: library compounds effectively triaged per
  /// second of whole-iteration wall time (the ML1 leverage).
  double effective_ligands_per_second = 0.0;
  /// Spearman rank correlation between the surrogate prediction and the
  /// actual docking score on this iteration's docked set (feedback quality).
  double surrogate_spearman = 0.0;
  double best_cg_energy = 0.0;
  double best_fg_energy = 0.0;

  /// One JSON object (obs::json writer — deterministic doubles).
  void to_json(std::ostream& os) const;
};

struct CampaignReport {
  std::vector<IterationMetrics> iterations;
  std::map<std::string, CompoundRecord> compounds;  ///< by compound id
  /// Shared pointer: FlopCounter holds a mutex and is not movable.
  std::shared_ptr<hpc::FlopCounter> flops = std::make_shared<hpc::FlopCounter>();
  /// Per-task execution records of the whole campaign (submit/start/end),
  /// exportable via SessionProfile::write_csv.
  rct::SessionProfile profile;

  /// Compounds with completed CG runs sorted by CG energy (best first).
  std::vector<const CompoundRecord*> cg_ranking() const;

  /// Canonical JSON serialization of every science-bearing field (compound
  /// records, per-iteration counts/energies/correlations, flop totals) with
  /// all wall-clock-derived values excluded. Byte-identical across thread
  /// counts, backends (Local vs Sim), and sequential vs pipelined mode.
  std::string science_fingerprint() const;
};

class Campaign {
 public:
  /// Per-target science plus shared execution settings.
  Campaign(Target target, ScienceConfig science, ExecConfig exec);

  /// Run the full campaign (blocking). Uses a LocalBackend internally.
  CampaignReport run();

  /// Run the full campaign on an externally-owned backend: the same stage
  /// modules (core/stages/) drive LocalBackend (real payloads, wall time)
  /// and SimBackend (payloads in the event loop, virtual time — scale
  /// studies and deterministic scheduling tests).
  CampaignReport run(rct::ExecutionBackend& backend);

  const Target& target() const { return target_; }

 private:
  Target target_;
  ScienceConfig science_;
  ExecConfig exec_;
};

}  // namespace impeccable::core
