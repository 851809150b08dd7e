// Campaign-at-scale planner (Sec. 8): simulate full IMPECCABLE iterations at
// leadership scale in virtual time — ML1 inference over the 126M-ligand
// library, S1 docking of the promoted slice, S3-CG on the diverse pick, S2
// training, and S3-FG on the outlier conformations — driven by the SAME
// core/stages/ modules as the real campaign, in virtual-workload mode
// (ScaleModel), on the discrete-event Summit model with durations from the
// calibrated method models.
//
// Runs the multi-iteration campaign twice — strict sequential iterations vs
// cross-iteration pipelining (iteration i+1's ML1/S1 overlapping iteration
// i's CG/S2/FG tail) — and reports the makespan reduction. Cross-checks the
// paper's headline numbers: tens of millions of docks per day and node-hour
// totals consistent with the reported 2.5M node-hour campaign.
//
// A second study co-schedules four heterogeneous virtual targets through one
// MultiCampaign with S1 docking routed through the RAPTOR overlay
// (RaptorBackend over the DES machine), FIFO vs critical-path-priority ready
// order, and reports the priority schedule's makespan reduction plus the
// overlay utilization under each discipline (BENCH_pr8.json).

#include <algorithm>
#include <cstdio>
#include <fstream>
#include <string>

#include "impeccable/core/multi_campaign.hpp"
#include "impeccable/hpc/machine.hpp"
#include "impeccable/obs/json.hpp"
#include "impeccable/rct/backend.hpp"
#include "impeccable/rct/entk.hpp"
#include "impeccable/rct/profiler.hpp"
#include "impeccable/rct/raptor.hpp"
#include "paper_protocol.hpp"

namespace core = impeccable::core;
namespace hpc = impeccable::hpc;
namespace obs = impeccable::obs;
namespace rct = impeccable::rct;
namespace stages = impeccable::core::stages;

namespace {

struct ScaleRun {
  double makespan_s = 0.0;
  std::size_t tasks = 0;
  int peak_concurrency = 0;
  double idle_fraction = 0.0;
};

// One virtual target through MultiCampaign on the DES machine. FIFO ready
// order: no node priorities, so sequential vs pipelined is the only
// difference between the two runs.
ScaleRun run_campaign(int nodes, int iterations, const stages::ScaleModel& model,
                      bool pipelined) {
  rct::SimBackend backend(hpc::summit(nodes));
  core::ExecConfig exec;
  exec.pipeline_iterations = pipelined;
  exec.stage_transition_overhead = 60.0;
  core::MultiCampaignOptions mopts;
  mopts.ready_order = rct::AppManagerOptions::ReadyOrder::kFifo;
  core::MultiCampaign multi(exec, mopts);
  // Virtual-workload mode: no payloads, no library.
  multi.add_virtual_target("campaign", iterations, model);
  const rct::SessionProfile prof = multi.run(backend).profile;

  ScaleRun out;
  out.makespan_s = prof.makespan();
  out.tasks = prof.tasks.size();
  out.peak_concurrency = prof.peak_concurrency();
  out.idle_fraction = prof.idle_fraction();
  return out;
}

struct MultiRun {
  double makespan_s = 0.0;
  std::size_t tasks = 0;
  std::size_t retries = 0;
  rct::RaptorStats raptor;
};

// Four heterogeneous targets sharing one graph, one DES machine, and one
// RAPTOR overlay for the dock-chunk traffic. The FIFO baseline launches
// same-instant ready waves in insertion order (dock backfill ahead of
// whole-node ensemble requests); the priority schedule lets CG/S2/FG waves
// preempt, which is where the makespan reduction comes from.
MultiRun run_multi_target(int nodes, int iterations,
                          const std::vector<stages::ScaleModel>& targets,
                          bool priority) {
  rct::SimBackend sim(hpc::summit(nodes));
  rct::RaptorOptions ropts;
  ropts.masters = 4;
  ropts.workers = nodes * 6;  // one overlay worker per GPU
  ropts.bulk_size = 8;
  rct::RaptorBackend raptor(sim, ropts);

  core::ExecConfig exec;
  // Strict sequential science per target: iteration i+1's surrogate waits
  // for iteration i's full refinement chain. Co-scheduling across targets
  // is then the only source of overlap — exactly the regime where launch
  // order decides whether ensemble chains (which gate each target's next
  // dock stream) cut ahead of other targets' bulk dock traffic.
  exec.pipeline_iterations = false;
  exec.stage_transition_overhead = 60.0;
  core::MultiCampaignOptions mopts;
  mopts.ready_order = priority ? rct::AppManagerOptions::ReadyOrder::kPriority
                               : rct::AppManagerOptions::ReadyOrder::kFifo;
  core::MultiCampaign multi(exec, mopts);
  for (std::size_t i = 0; i < targets.size(); ++i)
    multi.add_virtual_target("target-" + std::to_string(i), iterations,
                             targets[i]);
  const auto out = multi.run(raptor);

  MultiRun r;
  r.makespan_s = out.graph.makespan;
  r.tasks = out.graph.completed();
  r.retries = out.graph.retries;
  r.raptor = raptor.stats();
  return r;
}

}  // namespace

int main(int argc, char** argv) {
  const int nodes = 256;      // the partition the campaign runs on
  const int iterations = 3;

  // Workload shape per iteration, durations from the calibrated per-method
  // models. Multi-task stages pack many ligands per task so the DES stays
  // tractable: each task models a work *chunk* with the aggregate duration
  // of its ligands.
  const auto ml1 = paper::ml1_model();
  const auto s1 = paper::s1_model();
  const auto cg = paper::s3cg_model();
  const auto s2 = paper::s2_model();
  const auto fg = paper::s3fg_model();

  stages::ScaleModel model;
  model.ml1_ligands = 1.26e8;  // Sec. 6.1.1: "about 126M ligands"
  model.ml1_shards = nodes * 6;
  model.ml1_gpu_seconds_per_ligand = ml1.gpu_seconds_per_ligand;
  model.s1_docks = 200'000;  // top slice promoted to docking
  model.s1_chunk = 1000;
  model.s1_gpu_seconds_per_ligand = s1.gpu_seconds_per_ligand;
  model.cg_ligands = 2000;  // Sec. 7.1.2 scale, one whole-node ensemble each
  model.cg_whole_nodes = 1;
  model.cg_seconds = cg.hours_per_ligand * 3600.0;
  model.s2_tasks = 8;  // 2-node DDP training jobs
  model.s2_whole_nodes = 2;
  model.s2_seconds = s2.hours_per_ligand * 3600.0;
  model.fg_conformations = 25;  // Sec. 7.1.4: 5 binders x 5 confs
  model.fg_whole_nodes = 4;
  model.fg_seconds = fg.hours_per_ligand * 3600.0;

  const ScaleRun seq = run_campaign(nodes, iterations, model, false);
  const ScaleRun pip = run_campaign(nodes, iterations, model, true);
  const double reduction = 1.0 - pip.makespan_s / seq.makespan_s;

  std::printf("%d IMPECCABLE iterations on a %d-node Summit partition "
              "(virtual time, real stage modules):\n\n",
              iterations, nodes);
  std::printf("  ML1 inference      %10.3g ligands/iter\n", model.ml1_ligands);
  std::printf("  S1 docking         %10zu ligands/iter\n", model.s1_docks);
  std::printf("  S3-CG ensembles    %10zu ligands/iter\n", model.cg_ligands);
  std::printf("  S3-FG ensembles    %10zu conformations/iter\n",
              model.fg_conformations);
  std::printf("\n                        sequential     pipelined\n");
  std::printf("  tasks executed     %10zu    %10zu\n", seq.tasks, pip.tasks);
  std::printf("  makespan           %8.1f h    %8.1f h\n",
              seq.makespan_s / 3600.0, pip.makespan_s / 3600.0);
  std::printf("  node-hours         %10.3g    %10.3g\n",
              nodes * seq.makespan_s / 3600.0, nodes * pip.makespan_s / 3600.0);
  std::printf("  peak concurrency   %10d    %10d tasks\n",
              seq.peak_concurrency, pip.peak_concurrency);
  std::printf("  idle fraction      %9.1f%%    %9.1f%%\n",
              100 * seq.idle_fraction, 100 * pip.idle_fraction);
  std::printf("\n  cross-iteration pipelining cuts the campaign makespan by "
              "%.1f%%\n", 100 * reduction);

  std::printf("\npaper cross-checks: ~40-50M docks/hour sustained (here: "
              "%.3g docks/hour during S1); the production campaign consumed "
              "2.5M node-hours over 3 months across its platforms — %.3g "
              "node-hours for %d iterations on %d nodes is the right order "
              "for a dozen targets with repeated refinement.\n",
              static_cast<double>(model.s1_docks) /
                  ((s1.gpu_seconds_per_ligand *
                    static_cast<double>(model.s1_docks) / (nodes * 6)) /
                   3600.0),
              nodes * seq.makespan_s / 3600.0, iterations, nodes);

  const std::string json_path = argc > 1 ? argv[1] : "BENCH_pr4.json";
  {
    std::ofstream f(json_path, std::ios::trunc);
    obs::json::Writer w(f);
    w.begin_object();
    w.kv("bench", "campaign_at_scale");
    w.kv("nodes", nodes);
    w.kv("iterations", iterations);
    w.kv("ml1_ligands_per_iteration", model.ml1_ligands);
    w.kv("s1_docks_per_iteration", static_cast<std::uint64_t>(model.s1_docks));
    w.kv("cg_ligands_per_iteration",
         static_cast<std::uint64_t>(model.cg_ligands));
    w.kv("fg_conformations_per_iteration",
         static_cast<std::uint64_t>(model.fg_conformations));
    w.key("sequential");
    w.begin_object();
    w.kv("makespan_seconds", seq.makespan_s);
    w.kv("tasks", static_cast<std::uint64_t>(seq.tasks));
    w.kv("peak_concurrency", seq.peak_concurrency);
    w.kv("idle_fraction", seq.idle_fraction);
    w.end_object();
    w.key("pipelined");
    w.begin_object();
    w.kv("makespan_seconds", pip.makespan_s);
    w.kv("tasks", static_cast<std::uint64_t>(pip.tasks));
    w.kv("peak_concurrency", pip.peak_concurrency);
    w.kv("idle_fraction", pip.idle_fraction);
    w.end_object();
    w.kv("makespan_reduction", reduction);
    w.end_object();
  }
  std::printf("  results JSON       %s\n", json_path.c_str());

  // ---- multi-target study: 4 heterogeneous targets, FIFO vs priority ----
  // Sec. 6.1.2 operating mode: several targets share one EnTK session and
  // one RAPTOR overlay. Heterogeneous per-target workloads (a rich lead
  // series docking millions, a stale one winding down) make the scheduling
  // discipline matter: FIFO lets per-GPU dock backfill starve the
  // whole-node CG/S2/FG ensemble waves that gate each campaign's tail.
  // Per-target shares model campaign reality: one rich lead series still
  // docking millions, two mid-stream targets, one winding down. Ensemble
  // waves are node-light (the paper's CG/S2/FG counts are small next to
  // the dock stream) but form a long serial chain per iteration — and in
  // sequential science mode that chain gates the target's next dock
  // stream, so starving it behind other targets' bulk docking compounds
  // across iterations.
  const int multi_nodes = 32;
  const int multi_iterations = 3;
  const double dock_s = s1.gpu_seconds_per_ligand;
  auto make_target = [&](double share) {
    stages::ScaleModel m;
    m.ml1_ligands = 2e7 * share;
    m.ml1_shards = multi_nodes * 6;
    m.ml1_gpu_seconds_per_ligand = ml1.gpu_seconds_per_ligand;
    m.s1_docks = static_cast<std::size_t>(4'500'000 * share);
    m.s1_chunk = 250;
    m.s1_gpu_seconds_per_ligand = dock_s;
    m.cg_ligands = std::max<std::size_t>(1, static_cast<std::size_t>(3 * share));
    m.cg_whole_nodes = 1;
    m.cg_seconds = cg.hours_per_ligand * 3600.0;
    m.s2_tasks = std::max(1, static_cast<int>(2 * share));
    m.s2_whole_nodes = 2;
    m.s2_seconds = s2.hours_per_ligand * 3600.0;
    m.fg_conformations = std::max<std::size_t>(1, static_cast<std::size_t>(2 * share));
    m.fg_whole_nodes = 2;
    m.fg_seconds = fg.hours_per_ligand * 3600.0;
    return m;
  };
  const std::vector<stages::ScaleModel> targets = {
      make_target(1.0), make_target(0.65), make_target(0.4),
      make_target(0.2)};

  const MultiRun fifo =
      run_multi_target(multi_nodes, multi_iterations, targets, false);
  const MultiRun prio =
      run_multi_target(multi_nodes, multi_iterations, targets, true);
  const double multi_reduction = 1.0 - prio.makespan_s / fifo.makespan_s;

  std::printf("\nfour heterogeneous targets, one shared graph + RAPTOR "
              "overlay, %d-node partition, %d sequential-science "
              "iterations:\n\n",
              multi_nodes, multi_iterations);
  std::printf("                            FIFO      priority\n");
  std::printf("  tasks executed     %10zu    %10zu\n", fifo.tasks, prio.tasks);
  std::printf("  makespan           %8.1f h    %8.1f h\n",
              fifo.makespan_s / 3600.0, prio.makespan_s / 3600.0);
  std::printf("  overlay docks      %10zu    %10zu\n", fifo.raptor.tasks,
              prio.raptor.tasks);
  std::printf("  overlay util       %9.1f%%    %9.1f%%\n",
              100 * fifo.raptor.worker_utilization,
              100 * prio.raptor.worker_utilization);
  std::printf("\n  critical-path priority cuts the co-scheduled campaign "
              "makespan by %.1f%%\n", 100 * multi_reduction);

  const std::string multi_json = argc > 2 ? argv[2] : "BENCH_pr8.json";
  {
    std::ofstream f(multi_json, std::ios::trunc);
    obs::json::Writer w(f);
    w.begin_object();
    w.kv("bench", "campaign_at_scale_multi_target");
    w.kv("nodes", multi_nodes);
    w.kv("iterations", multi_iterations);
    w.kv("targets", static_cast<std::uint64_t>(targets.size()));
    auto dump = [&w](const char* key, const MultiRun& r) {
      w.key(key);
      w.begin_object();
      w.kv("makespan_seconds", r.makespan_s);
      w.kv("tasks", static_cast<std::uint64_t>(r.tasks));
      w.kv("retries", static_cast<std::uint64_t>(r.retries));
      w.kv("raptor_tasks", static_cast<std::uint64_t>(r.raptor.tasks));
      w.kv("raptor_worker_utilization", r.raptor.worker_utilization);
      w.kv("raptor_load_imbalance", r.raptor.load_imbalance);
      w.end_object();
    };
    dump("fifo", fifo);
    dump("priority", prio);
    w.kv("makespan_reduction", multi_reduction);
    w.end_object();
  }
  std::printf("  results JSON       %s\n", multi_json.c_str());
  return 0;
}
