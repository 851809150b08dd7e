// HPC substrate + RCT infrastructure tests: DES determinism, cluster
// placement/queueing/utilization, flop accounting, both execution backends,
// and EnTK pipelines with adaptivity (RAPTOR lives in raptor_test.cpp).

#include <gtest/gtest.h>

#include <atomic>
#include <cmath>

#include "impeccable/hpc/cluster.hpp"
#include "impeccable/hpc/des.hpp"
#include "impeccable/hpc/flops.hpp"
#include "impeccable/hpc/machine.hpp"
#include "impeccable/rct/backend.hpp"
#include "impeccable/rct/entk.hpp"

namespace hpc = impeccable::hpc;
namespace rct = impeccable::rct;

// ---------------------------------------------------------------- Simulator

TEST(Des, EventsRunInTimeOrder) {
  hpc::Simulator sim;
  std::vector<int> order;
  sim.schedule_at(5.0, [&] { order.push_back(3); });
  sim.schedule_at(1.0, [&] { order.push_back(1); });
  sim.schedule_at(3.0, [&] { order.push_back(2); });
  sim.run();
  EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
  EXPECT_DOUBLE_EQ(sim.now(), 5.0);
}

TEST(Des, TiesBreakByInsertionOrder) {
  hpc::Simulator sim;
  std::vector<int> order;
  for (int i = 0; i < 5; ++i)
    sim.schedule_at(1.0, [&order, i] { order.push_back(i); });
  sim.run();
  EXPECT_EQ(order, (std::vector<int>{0, 1, 2, 3, 4}));
}

TEST(Des, CallbacksCanScheduleMore) {
  hpc::Simulator sim;
  int count = 0;
  std::function<void()> tick = [&] {
    if (++count < 10) sim.schedule_in(1.0, tick);
  };
  sim.schedule_in(1.0, tick);
  sim.run();
  EXPECT_EQ(count, 10);
  EXPECT_DOUBLE_EQ(sim.now(), 10.0);
}

TEST(Des, RejectsPastEvents) {
  hpc::Simulator sim;
  sim.schedule_at(5.0, [] {});
  sim.run();
  EXPECT_THROW(sim.schedule_at(1.0, [] {}), std::invalid_argument);
}

TEST(Des, RunUntilStopsAtBoundary) {
  hpc::Simulator sim;
  int fired = 0;
  sim.schedule_at(1.0, [&] { ++fired; });
  sim.schedule_at(10.0, [&] { ++fired; });
  sim.run_until(5.0);
  EXPECT_EQ(fired, 1);
  EXPECT_DOUBLE_EQ(sim.now(), 5.0);
}

// ---------------------------------------------------------------- Cluster

TEST(Cluster, PlacesWithinCapacityAndQueuesBeyond) {
  hpc::Simulator sim;
  hpc::ClusterSim cluster(sim, hpc::test_machine(1));  // 6 GPUs
  int started = 0;
  std::vector<hpc::Placement> placements;
  for (int i = 0; i < 8; ++i) {
    cluster.submit({1, 1, 0}, [&](const hpc::Placement& p) {
      ++started;
      placements.push_back(p);
    });
  }
  sim.run();
  EXPECT_EQ(started, 6);  // only 6 GPUs
  EXPECT_EQ(cluster.queued(), 2u);
  // Releasing lets the queue drain.
  cluster.release({1, 1, 0}, placements[0]);
  cluster.release({1, 1, 0}, placements[1]);
  sim.run();
  EXPECT_EQ(started, 8);
  EXPECT_EQ(cluster.queued(), 0u);
}

TEST(Cluster, WholeNodeAllocation) {
  hpc::Simulator sim;
  hpc::ClusterSim cluster(sim, hpc::test_machine(4));
  hpc::Placement got;
  cluster.submit({0, 0, 3}, [&](const hpc::Placement& p) { got = p; });
  sim.run();
  EXPECT_EQ(got.node_count, 3);
  EXPECT_EQ(got.gpus, 18);
  EXPECT_EQ(cluster.busy_gpus(), 18);
  cluster.release({0, 0, 3}, got);
  EXPECT_EQ(cluster.busy_gpus(), 0);
}

TEST(Cluster, RejectsOversizedRequests) {
  hpc::Simulator sim;
  hpc::ClusterSim cluster(sim, hpc::test_machine(2));
  EXPECT_THROW(cluster.submit({1, 7, 0}, [](const hpc::Placement&) {}),
               std::invalid_argument);
  EXPECT_THROW(cluster.submit({0, 0, 3}, [](const hpc::Placement&) {}),
               std::invalid_argument);
}

TEST(Cluster, RejectsZeroResourceRequests) {
  hpc::Simulator sim;
  hpc::ClusterSim cluster(sim, hpc::test_machine(1));
  // A slot-less request could start on a saturated machine, where the
  // queue scan stops early, so submit refuses it outright.
  EXPECT_THROW(cluster.submit({0, 0, 0}, [](const hpc::Placement&) {}),
               std::invalid_argument);
  EXPECT_EQ(cluster.queued(), 0u);
  // Whole-node requests carry no per-slot counts and stay valid.
  int started = 0;
  cluster.submit({0, 0, 1}, [&](const hpc::Placement&) { ++started; });
  sim.run();
  EXPECT_EQ(started, 1);
}

TEST(Cluster, UtilizationTimeSeriesTracksLoad) {
  hpc::Simulator sim;
  hpc::ClusterSim cluster(sim, hpc::test_machine(1));
  // Occupy all 6 GPUs from t=0 to t=10.
  std::vector<hpc::Placement> ps(6);
  for (int i = 0; i < 6; ++i) {
    cluster.submit({1, 1, 0}, [&, i](const hpc::Placement& p) {
      ps[static_cast<std::size_t>(i)] = p;
      sim.schedule_at(10.0, [&, i] { cluster.release({1, 1, 0}, ps[static_cast<std::size_t>(i)]); });
    });
  }
  sim.run();
  EXPECT_NEAR(cluster.mean_gpu_utilization(0.0, 10.0), 1.0, 1e-9);
  EXPECT_NEAR(cluster.mean_gpu_utilization(10.0, 20.0), 0.0, 1e-9);
  EXPECT_NEAR(cluster.mean_gpu_utilization(0.0, 20.0), 0.5, 1e-9);
}

// ---------------------------------------------------------------- Flops

TEST(Flops, TallyAndRates) {
  hpc::FlopCounter fc;
  fc.add("S1", 1000);
  fc.add("S1", 500);
  fc.add("ML1", 2000);
  EXPECT_EQ(fc.total("S1"), 1500u);
  EXPECT_EQ(fc.total("none"), 0u);
  EXPECT_EQ(fc.grand_total(), 3500u);
  EXPECT_DOUBLE_EQ(hpc::FlopCounter::tflops(2e12, 2.0), 1.0);
  EXPECT_DOUBLE_EQ(hpc::FlopCounter::tflops(1e12, 0.0), 0.0);
  fc.reset();
  EXPECT_EQ(fc.grand_total(), 0u);
}

// ---------------------------------------------------------------- SimBackend

TEST(SimBackend, ExecutesTasksInVirtualTime) {
  rct::SimBackend backend(hpc::test_machine(1));
  std::vector<rct::TaskResult> results;
  for (int i = 0; i < 3; ++i) {
    rct::TaskDescription t;
    t.name = "t";
    t.name += std::to_string(i);
    t.gpus = 1;
    t.duration = 10.0;
    backend.submit(t, [&](const rct::TaskResult& r) { results.push_back(r); });
  }
  backend.drain();
  ASSERT_EQ(results.size(), 3u);
  // All three fit concurrently on 6 GPUs: end ~ overhead + 10.
  for (const auto& r : results) {
    EXPECT_TRUE(r.ok);
    EXPECT_NEAR(r.end_time, 10.05, 1e-9);
  }
}

TEST(SimBackend, SerializesWhenResourcesAreScarce) {
  hpc::MachineSpec one = hpc::test_machine(1);
  one.gpus_per_node = 1;
  rct::SimBackend backend(one);
  std::vector<double> ends;
  for (int i = 0; i < 3; ++i) {
    rct::TaskDescription t;
    t.gpus = 1;
    t.duration = 5.0;
    backend.submit(t, [&](const rct::TaskResult& r) { ends.push_back(r.end_time); });
  }
  backend.drain();
  ASSERT_EQ(ends.size(), 3u);
  std::sort(ends.begin(), ends.end());
  EXPECT_GT(ends[1], ends[0] + 4.9);
  EXPECT_GT(ends[2], ends[1] + 4.9);
}

TEST(SimBackend, RunsPayloadAndReportsFailure) {
  rct::SimBackend backend(hpc::test_machine(1));
  bool ran = false;
  rct::TaskDescription ok;
  ok.payload = [&] { ran = true; };
  rct::TaskDescription bad;
  bad.payload = [] { throw std::runtime_error("sim boom"); };
  rct::TaskResult rok, rbad;
  backend.submit(ok, [&](const rct::TaskResult& r) { rok = r; });
  backend.submit(bad, [&](const rct::TaskResult& r) { rbad = r; });
  backend.drain();
  EXPECT_TRUE(ran);
  EXPECT_TRUE(rok.ok);
  EXPECT_FALSE(rbad.ok);
  EXPECT_EQ(rbad.error, "sim boom");
}

// ---------------------------------------------------------------- LocalBackend

TEST(LocalBackend, ExecutesPayloadsConcurrently) {
  rct::LocalBackend backend(4);
  std::atomic<int> count{0};
  for (int i = 0; i < 20; ++i) {
    rct::TaskDescription t;
    t.payload = [&] { count.fetch_add(1); };
    backend.submit(t, [](const rct::TaskResult&) {});
  }
  backend.drain();
  EXPECT_EQ(count.load(), 20);
}

TEST(LocalBackend, ReportsExceptionsAsFailures) {
  rct::LocalBackend backend(2);
  rct::TaskResult seen;
  rct::TaskDescription t;
  t.name = "boom";
  t.payload = [] { throw std::runtime_error("local boom"); };
  backend.submit(t, [&](const rct::TaskResult& r) { seen = r; });
  backend.drain();
  EXPECT_FALSE(seen.ok);
  EXPECT_EQ(seen.error, "local boom");
  EXPECT_EQ(seen.name, "boom");
}

// ---------------------------------------------------------------- EnTK

namespace {

rct::TaskDescription sim_task(const std::string& name, double duration,
                              int gpus = 1) {
  rct::TaskDescription t;
  t.name = name;
  t.gpus = gpus;
  t.duration = duration;
  return t;
}

}  // namespace

TEST(Entk, StagesRunSequentiallyTasksConcurrently) {
  rct::SimBackend backend(hpc::test_machine(2));
  rct::AppManager mgr(backend, {.stage_transition_overhead = 1.0});

  rct::StageGraph g;
  const auto s1 = g.add({.name = "s1",
                         .pipeline = "p",
                         .tasks = {sim_task("a", 10), sim_task("b", 10)}});
  g.add({.name = "s2", .pipeline = "p", .tasks = {sim_task("c", 5)}}, {s1});

  const auto results = mgr.run_graph(std::move(g)).results;
  ASSERT_EQ(results.size(), 3u);
  double end_a = 0, start_c = 1e18;
  for (const auto& r : results) {
    if (r.name == "a" || r.name == "b") end_a = std::max(end_a, r.end_time);
    if (r.name == "c") start_c = r.start_time;
  }
  // Stage 2 starts only after stage 1 + transition overhead.
  EXPECT_GE(start_c, end_a + 1.0 - 1e-9);
}

TEST(Entk, PipelinesProgressIndependently) {
  rct::SimBackend backend(hpc::test_machine(4));
  rct::AppManager mgr(backend, {.stage_transition_overhead = 0.0});

  rct::StageGraph g;
  const auto f1 =
      g.add({.name = "f1", .pipeline = "fast", .tasks = {sim_task("f", 1)}});
  g.add({.name = "f2", .pipeline = "fast", .tasks = {sim_task("g", 1)}}, {f1});
  g.add({.name = "s1", .pipeline = "slow", .tasks = {sim_task("s", 50)}});

  const auto results = mgr.run_graph(std::move(g)).results;
  double g_end = 0, s_end = 0;
  for (const auto& r : results) {
    if (r.name == "g") g_end = r.end_time;
    if (r.name == "s") s_end = r.end_time;
  }
  // The fast pipeline's second stage finishes long before the slow one —
  // "each pipeline can progress at its own pace".
  EXPECT_LT(g_end, s_end);
}

TEST(Entk, PostExecAdaptivityAppendsStages) {
  rct::SimBackend backend(hpc::test_machine(1));
  rct::AppManager mgr(backend, {.stage_transition_overhead = 0.0});

  // Each post_exec appends the next stage after the node that just ran.
  int rounds = 0;
  rct::NodeId tail = rct::kNoNode;
  std::function<void(rct::StageGraph&)> extend = [&](rct::StageGraph& g) {
    if (++rounds < 3)
      tail = g.add({.name = "adaptive" + std::to_string(rounds),
                    .pipeline = "adaptive",
                    .tasks = {sim_task("r" + std::to_string(rounds), 1)},
                    .post_exec = extend},
                   {tail});
  };

  rct::StageGraph g;
  tail = g.add({.name = "seed",
                .pipeline = "adaptive",
                .tasks = {sim_task("r0", 1)},
                .post_exec = extend});
  const auto results = mgr.run_graph(std::move(g)).results;
  EXPECT_EQ(rounds, 3);
  EXPECT_EQ(results.size(), 3u);  // r0, r1, r2
}

TEST(Entk, HeterogeneousTasksMixInOneStage) {
  rct::SimBackend backend(hpc::test_machine(4));
  rct::AppManager mgr(backend);
  rct::TaskDescription gpu = sim_task("gpu", 5, 1);
  rct::TaskDescription cpu;
  cpu.name = "cpu";
  cpu.cpus = 8;
  cpu.duration = 5;
  rct::TaskDescription mpi;
  mpi.name = "mpi";
  mpi.whole_nodes = 2;
  mpi.duration = 5;
  rct::StageGraph g;
  g.add({.name = "mix", .pipeline = "hetero", .tasks = {gpu, cpu, mpi}});
  const auto report = mgr.run_graph(std::move(g));
  EXPECT_EQ(report.results.size(), 3u);
  for (const auto& r : report.results) EXPECT_TRUE(r.ok);
  EXPECT_EQ(report.failed(), 0u);
}

TEST(Entk, WorksOnLocalBackendWithRealPayloads) {
  rct::LocalBackend backend(3);
  rct::AppManager mgr(backend);
  std::atomic<int> stage1{0}, stage2{0};
  rct::StageNode s1{.name = "s1", .pipeline = "local"};
  for (int i = 0; i < 6; ++i) {
    rct::TaskDescription t;
    t.name = "w";
    t.name += std::to_string(i);
    t.payload = [&] { stage1.fetch_add(1); };
    s1.tasks.push_back(std::move(t));
  }
  rct::StageNode s2{.name = "s2", .pipeline = "local"};
  rct::TaskDescription t2;
  t2.name = "check";
  t2.payload = [&] { stage2.store(stage1.load()); };
  s2.tasks.push_back(std::move(t2));
  rct::StageGraph g;
  const auto first = g.add(std::move(s1));
  g.add(std::move(s2), {first});
  mgr.run_graph(std::move(g));
  // Stage barrier: the check task observed all six stage-1 tasks done.
  EXPECT_EQ(stage2.load(), 6);
}
