// Multi-target campaign engine tests: per-target science fingerprints are
// invariant to co-scheduling (number of targets sharing the backend, ready
// order, target policy, backend kind); graph run reports record per-node
// timings (RAPTOR overlay cases live in raptor_test.cpp).

#include <gtest/gtest.h>

#include <algorithm>
#include <string>
#include <vector>

#include "impeccable/core/campaign.hpp"
#include "impeccable/core/multi_campaign.hpp"
#include "impeccable/fe/esmacs.hpp"
#include "impeccable/hpc/machine.hpp"
#include "impeccable/rct/backend.hpp"
#include "impeccable/rct/entk.hpp"

#include "test_support.hpp"

namespace core = impeccable::core;
namespace fe = impeccable::fe;
namespace hpc = impeccable::hpc;
namespace rct = impeccable::rct;
namespace stages = impeccable::core::stages;

namespace {

core::ScienceConfig small_science(std::uint64_t library_seed) {
  core::ScienceConfig sci;
  sci.library_size = 30;
  sci.library_seed = library_seed;
  sci.iterations = 2;
  sci.bootstrap_docks = 10;
  sci.dock_top_fraction = 0.3;
  sci.cg_compounds = 2;
  sci.top_binders = 2;
  sci.outliers_per_binder = 1;
  sci.dock.runs = 1;
  sci.dock.lga.population = 10;
  sci.dock.lga.generations = 4;
  sci.esmacs_cg = fe::cg_config(0.25);
  sci.esmacs_cg.replicas = 2;
  sci.esmacs_fg = fe::fg_config(0.1);
  sci.esmacs_fg.replicas = 2;
  sci.surrogate.epochs = 2;
  sci.aae.epochs = 2;
  return sci;
}

core::ExecConfig small_exec() {
  core::ExecConfig exec;
  exec.seed = 17;
  exec.threads = 2;
  return exec;
}

core::Target target_a() { return core::Target::make("3CLPro-like", 99, 30, 17); }
core::Target target_b() { return core::Target::make("PLPro-like", 1234, 34, 19); }
core::Target target_c() { return core::Target::make("ADRP-like", 555, 28, 17); }

std::string standalone_fingerprint(core::Target target,
                                   const core::ScienceConfig& sci) {
  rct::SimBackend sim(hpc::test_machine(4));
  core::Campaign campaign(std::move(target), sci, small_exec());
  return campaign.run(sim).science_fingerprint();
}

}  // namespace

TEST(MultiCampaign, CoSchedulingPreservesEachTargetsScience) {
  // Each target's fingerprint on a shared priority-scheduled backend must be
  // bitwise identical to its own single-target run.
  const auto sci_a = small_science(2020);
  const auto sci_b = small_science(4040);
  const std::string solo_a = standalone_fingerprint(target_a(), sci_a);
  const std::string solo_b = standalone_fingerprint(target_b(), sci_b);

  core::HitRatePolicy policy(500.0);
  core::MultiCampaignOptions opts;  // kPriority + critical path by default
  opts.policy = &policy;
  core::MultiCampaign multi(small_exec(), opts);
  multi.add_target(target_a(), sci_a);
  multi.add_target(target_b(), sci_b);
  ASSERT_EQ(multi.target_count(), 2u);

  rct::SimBackend sim(hpc::test_machine(4));
  const auto out = multi.run(sim);
  ASSERT_EQ(out.reports.size(), 2u);
  EXPECT_EQ(out.targets[0], "3CLPro-like");
  EXPECT_EQ(out.targets[1], "PLPro-like");
  EXPECT_EQ(out.reports[0].science_fingerprint(), solo_a);
  EXPECT_EQ(out.reports[1].science_fingerprint(), solo_b);
  // The shared graph ran every node of both campaigns: 5 stages x 2
  // iterations x 2 targets.
  EXPECT_EQ(out.graph.nodes.size(), 20u);
  EXPECT_EQ(out.graph.failed(), 0u);
}

TEST(MultiCampaign, FingerprintInvariantToPolicyOrderAndCohort) {
  // Same target A, three very different schedules: FIFO two-target cohort,
  // priority three-target cohort with a policy, and its own solo run. All
  // three fingerprints identical — scheduling is science-neutral.
  const auto sci = small_science(2020);
  const std::string solo = standalone_fingerprint(target_a(), sci);

  core::MultiCampaignOptions fifo;
  fifo.ready_order = rct::AppManagerOptions::ReadyOrder::kFifo;
  core::MultiCampaign two(small_exec(), fifo);
  two.add_target(target_a(), sci);
  two.add_target(target_b(), small_science(4040));
  rct::SimBackend sim2(hpc::test_machine(4));
  EXPECT_EQ(two.run(sim2).reports[0].science_fingerprint(), solo);

  core::HitRatePolicy policy(900.0);
  core::MultiCampaignOptions prio;
  prio.policy = &policy;
  core::MultiCampaign three(small_exec(), prio);
  three.add_target(target_c(), small_science(8080));
  three.add_target(target_a(), sci);
  three.add_target(target_b(), small_science(4040));
  rct::SimBackend sim3(hpc::test_machine(4));
  EXPECT_EQ(three.run(sim3).reports[1].science_fingerprint(), solo);
}

TEST(MultiCampaign, LocalBackendMatchesSimBackend) {
  // The shared run is deterministic on real threads too (this is the test
  // the TSan lane leans on for the multi label).
  const auto sci_a = small_science(2020);
  const auto sci_b = small_science(4040);

  core::MultiCampaign on_sim(small_exec());
  on_sim.add_target(target_a(), sci_a);
  on_sim.add_target(target_b(), sci_b);
  rct::SimBackend sim(hpc::test_machine(4));
  const auto sim_out = on_sim.run(sim);

  core::MultiCampaign on_local(small_exec());
  on_local.add_target(target_a(), sci_a);
  on_local.add_target(target_b(), sci_b);
  const auto local_out = on_local.run();  // LocalBackend, exec.threads = 2

  ASSERT_EQ(sim_out.reports.size(), local_out.reports.size());
  for (std::size_t i = 0; i < sim_out.reports.size(); ++i)
    EXPECT_EQ(sim_out.reports[i].science_fingerprint(),
              local_out.reports[i].science_fingerprint());
}

TEST(MultiCampaign, VirtualTargetsRunThroughOneGraph) {
  // Heterogeneous ScaleModel targets co-scheduled on the DES machine; the
  // priority schedule must not be slower than FIFO on the same workload.
  auto make = [](double cg_seconds, std::size_t docks) {
    stages::ScaleModel m;
    m.ml1_ligands = 4000;
    m.ml1_shards = 2;
    m.ml1_gpu_seconds_per_ligand = 1e-3;
    m.s1_docks = docks;
    m.s1_chunk = 500;
    m.s1_gpu_seconds_per_ligand = 0.02;
    m.cg_ligands = 6;
    m.cg_whole_nodes = 1;
    m.cg_seconds = cg_seconds;
    m.s2_tasks = 2;
    m.s2_whole_nodes = 1;
    m.s2_seconds = 60.0;
    m.fg_conformations = 4;
    m.fg_whole_nodes = 2;
    m.fg_seconds = 120.0;
    return m;
  };

  auto run_mode = [&](rct::AppManagerOptions::ReadyOrder order) {
    core::ExecConfig exec = small_exec();
    exec.pipeline_iterations = true;
    core::MultiCampaignOptions opts;
    opts.ready_order = order;
    core::MultiCampaign multi(exec, opts);
    multi.add_virtual_target("heavy-cg", 2, make(900.0, 2000));
    multi.add_virtual_target("dock-bound", 2, make(300.0, 8000));
    rct::SimBackend sim(hpc::test_machine(2));
    return multi.run(sim);
  };

  const auto fifo = run_mode(rct::AppManagerOptions::ReadyOrder::kFifo);
  const auto prio = run_mode(rct::AppManagerOptions::ReadyOrder::kPriority);
  EXPECT_EQ(fifo.graph.failed(), 0u);
  EXPECT_EQ(prio.graph.failed(), 0u);
  EXPECT_EQ(fifo.graph.completed(), prio.graph.completed());
  EXPECT_GT(fifo.graph.makespan, 0.0);
  EXPECT_GT(prio.graph.makespan, 0.0);
  // Priority nodes carry their ScaleModel-derived tails in the report.
  double max_priority = 0.0;
  for (const auto& n : prio.graph.nodes)
    max_priority = std::max(max_priority, n.priority);
  EXPECT_GT(max_priority, 0.0);
  for (const auto& n : fifo.graph.nodes) EXPECT_EQ(n.priority, 0.0);
}

TEST(GraphRunReport, RecordsNodeTimingsAndBacksDeprecatedAccessors) {
  rct::SimBackend sim(hpc::test_machine(2));
  rct::AppManager mgr(sim, {.stage_transition_overhead = 0.5});

  rct::StageGraph g;
  auto node = [](const std::string& name, double dur) {
    rct::StageNode n;
    n.name = name;
    n.pipeline = "p";
    n.tasks.push_back(sim_task(name + "-t", dur));
    return n;
  };
  const auto a = g.add(node("a", 1.0));
  g.set_priority(a, 3.0);
  g.add(node("b", 2.0), {a});
  EXPECT_THROW(g.set_priority(99, 1.0), std::out_of_range);

  const auto report = mgr.run_graph(std::move(g));
  ASSERT_EQ(report.nodes.size(), 2u);
  EXPECT_EQ(report.nodes[0].name, "a");
  EXPECT_EQ(report.nodes[0].priority, 3.0);
  EXPECT_EQ(report.nodes[0].tasks, 1u);
  EXPECT_GE(report.nodes[0].ready_wait(), 0.0);
  // b became ready when a's post_exec ran, then waited out the transition
  // overhead before launching.
  EXPECT_NEAR(report.nodes[1].ready, report.nodes[0].end, 1e-9);
  EXPECT_NEAR(report.nodes[1].ready_wait(), 0.5, 1e-9);
  // 1s + 2s of work, the 0.5s transition, and the SimBackend's 0.05s
  // per-task launch overhead twice.
  EXPECT_NEAR(report.makespan, 3.6, 1e-9);
  EXPECT_NEAR(report.makespan, report.results.back().end_time, 1e-12);
  EXPECT_EQ(report.completed(), 2u);
  EXPECT_EQ(report.failed(), 0u);

  // Histogram covers every node once.
  std::size_t binned = 0;
  for (const auto& [edge, count] : report.ready_wait_histogram()) binned += count;
  EXPECT_EQ(binned, report.nodes.size());

  EXPECT_EQ(report.results.front().name, "a-t");
  EXPECT_EQ(report.results.back().name, "b-t");

  // The manager keeps no state between runs: a second run on it reports
  // only its own work, and the first report stays intact.
  rct::StageGraph g2;
  g2.add(node("c", 1.0));
  const auto second = mgr.run_graph(std::move(g2));
  ASSERT_EQ(second.results.size(), 1u);
  EXPECT_EQ(second.results.front().name, "c-t");
  EXPECT_EQ(second.nodes.size(), 1u);
  EXPECT_EQ(second.retries, 0u);
  EXPECT_EQ(report.completed(), 2u);
}
