// HPC substrate + RCT infrastructure tests: DES determinism, cluster
// placement/queueing/utilization, flop accounting, both execution backends,
// pilot walltime, EnTK pipelines with adaptivity and retries, and the
// session profiler (RAPTOR lives in raptor_test.cpp).

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <cmath>
#include <filesystem>
#include <fstream>

#include "impeccable/hpc/cluster.hpp"
#include "impeccable/hpc/des.hpp"
#include "impeccable/hpc/flops.hpp"
#include "impeccable/hpc/machine.hpp"
#include "impeccable/obs/recorder.hpp"
#include "impeccable/rct/backend.hpp"
#include "impeccable/rct/entk.hpp"
#include "impeccable/rct/profiler.hpp"

#include "test_support.hpp"

namespace hpc = impeccable::hpc;
namespace rct = impeccable::rct;
namespace obs = impeccable::obs;

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

TEST(DesEdge, ProcessedCounterAndRunUntilResume) {
  hpc::Simulator sim;
  int hits = 0;
  for (int i = 1; i <= 5; ++i)
    sim.schedule_at(i, [&] { ++hits; });
  sim.run_until(2.5);
  EXPECT_EQ(hits, 2);
  EXPECT_EQ(sim.processed(), 2u);
  sim.run();
  EXPECT_EQ(hits, 5);
  EXPECT_EQ(sim.processed(), 5u);
}

TEST(MiscMachine, SpecsExposeTotals) {
  const auto s = hpc::summit(10);
  EXPECT_EQ(s.total_gpus(), 60);
  EXPECT_EQ(s.total_cores(), 420);
  const auto f = hpc::frontera(3);
  EXPECT_EQ(f.total_gpus(), 0);
  EXPECT_EQ(f.total_cores(), 168);
}

// ------------------------------------------------------------ pilot walltime

TEST(PilotWalltime, LongTaskDiesAtBoundaryAndRetrySucceedsAfterSplit) {
  rct::SimBackendOptions sopts;
  sopts.pilot_walltime = 10.0;
  sopts.task_overhead = 0.0;
  rct::SimBackend backend(hpc::test_machine(1), sopts);

  rct::TaskDescription t;
  t.name = "long";
  t.gpus = 1;
  t.duration = 25.0;  // spans three allocations
  std::vector<rct::TaskResult> results;
  backend.submit(t, [&](const rct::TaskResult& r) { results.push_back(r); });
  backend.drain();
  ASSERT_EQ(results.size(), 1u);
  EXPECT_FALSE(results[0].ok);
  EXPECT_EQ(results[0].error, "pilot walltime");
  EXPECT_NEAR(results[0].end_time, 10.0, 1e-9);
  EXPECT_GE(backend.pilot_generation(), 2);
}

TEST(PilotWalltime, ShortTasksSurviveAcrossGenerations) {
  rct::SimBackendOptions sopts;
  sopts.pilot_walltime = 20.0;
  sopts.task_overhead = 0.0;
  rct::SimBackend backend(hpc::test_machine(1), sopts);

  // 12 tasks x 5 s on 6 GPUs: two waves fit in the first pilot; later
  // submissions land in the second.
  int ok = 0, killed = 0;
  for (int i = 0; i < 30; ++i) {
    rct::TaskDescription t;
    t.gpus = 1;
    t.duration = 5.0;
    backend.submit(t, [&](const rct::TaskResult& r) {
      if (r.ok) ++ok;
      else ++killed;
    });
  }
  backend.drain();
  EXPECT_EQ(ok + killed, 30);
  EXPECT_GT(ok, 20);  // most tasks fit within boundaries
}

TEST(PilotWalltime, AppManagerRetriesAcrossPilots) {
  // A task whose duration fits a pilot but that starts mid-allocation gets
  // killed once and then succeeds in the next pilot via EnTK retry.
  rct::SimBackendOptions sopts;
  sopts.pilot_walltime = 10.0;
  sopts.task_overhead = 0.0;
  rct::SimBackend backend(hpc::test_machine(1), sopts);
  rct::AppManagerOptions mopts;
  mopts.max_retries = 3;
  mopts.stage_transition_overhead = 0.0;
  rct::AppManager mgr(backend, mopts);

  rct::TaskDescription blocker;  // occupies the pilot for 6 s first
  blocker.name = "blocker";
  blocker.gpus = 6;
  blocker.whole_nodes = 1;
  blocker.duration = 6.0;
  rct::TaskDescription work;  // 8 s: dies at t=10, succeeds on retry
  work.name = "work";
  work.gpus = 1;
  work.duration = 8.0;
  rct::StageGraph g;
  const auto s1 =
      g.add({.name = "s1", .pipeline = "walltime", .tasks = {blocker}});
  g.add({.name = "s2", .pipeline = "walltime", .tasks = {work}}, {s1});

  const auto report = mgr.run_graph(std::move(g));
  ASSERT_EQ(report.results.size(), 2u);
  for (const auto& r : report.results)
    EXPECT_TRUE(r.ok) << r.name << ": " << r.error;
  EXPECT_EQ(report.retries, 1u);
}

// -------------------------------------------------------------- EnTK retries

TEST(MiscEntk, MakespanAndEmptyPipelines) {
  rct::SimBackend backend(hpc::test_machine(1));
  rct::AppManager mgr(backend);
  // An empty graph and a graph of one task-less node both complete trivially.
  EXPECT_TRUE(mgr.run_graph({}).results.empty());
  rct::StageGraph g;
  g.add({.name = "nothing", .pipeline = "empty"});
  const auto report = mgr.run_graph(std::move(g));
  EXPECT_TRUE(report.results.empty());
  EXPECT_EQ(report.failed(), 0u);
}

TEST(MiscEntk, TaskStateNames) {
  EXPECT_STREQ(rct::to_string(rct::TaskState::New), "NEW");
  EXPECT_STREQ(rct::to_string(rct::TaskState::Done), "DONE");
  EXPECT_STREQ(rct::to_string(rct::TaskState::Failed), "FAILED");
}

TEST(EntkRetries, FlakyTaskEventuallySucceeds) {
  rct::LocalBackend backend(2);
  rct::AppManagerOptions opts;
  opts.max_retries = 3;
  rct::AppManager mgr(backend, opts);

  std::atomic<int> attempts{0};
  rct::TaskDescription t;
  t.name = "flaky";
  t.payload = [&] {
    if (attempts.fetch_add(1) < 2) throw std::runtime_error("transient");
  };
  rct::StageGraph g;
  g.add({.name = "s", .pipeline = "flaky", .tasks = {t}});
  const auto report = mgr.run_graph(std::move(g));
  ASSERT_EQ(report.results.size(), 1u);
  EXPECT_TRUE(report.results[0].ok);
  EXPECT_EQ(attempts.load(), 3);
  EXPECT_EQ(report.retries, 2u);
  EXPECT_EQ(report.failed(), 0u);
}

TEST(EntkRetries, PermanentFailureIsRecordedAfterBudget) {
  rct::LocalBackend backend(2);
  rct::AppManagerOptions opts;
  opts.max_retries = 2;
  rct::AppManager mgr(backend, opts);

  std::atomic<int> attempts{0};
  rct::TaskDescription t;
  t.name = "dead";
  t.payload = [&] {
    attempts.fetch_add(1);
    throw std::runtime_error("permanent");
  };
  rct::StageGraph g;
  g.add({.name = "s", .pipeline = "dead", .tasks = {t}});
  const auto report = mgr.run_graph(std::move(g));
  ASSERT_EQ(report.results.size(), 1u);
  EXPECT_FALSE(report.results[0].ok);
  EXPECT_EQ(attempts.load(), 3);  // 1 + 2 retries
  EXPECT_EQ(report.failed(), 1u);
}

TEST(EntkRetries, NoRetriesByDefault) {
  rct::LocalBackend backend(1);
  rct::AppManager mgr(backend);
  std::atomic<int> attempts{0};
  rct::TaskDescription t;
  t.payload = [&] {
    attempts.fetch_add(1);
    throw std::runtime_error("x");
  };
  rct::StageGraph g;
  g.add({.name = "s", .pipeline = "d", .tasks = {t}});
  mgr.run_graph(std::move(g));
  EXPECT_EQ(attempts.load(), 1);
}

// ------------------------------------------------------------------ profiler

TEST(Profiler, RecordsSubmitStartEnd) {
  obs::Recorder rec;
  rct::SimBackend backend(hpc::test_machine(1));
  backend.set_recorder(&rec);

  for (int i = 0; i < 8; ++i) {  // 8 tasks on 6 GPUs -> 2 must queue
    rct::TaskDescription t;
    t.name = "t";
    t.name += std::to_string(i);
    t.gpus = 1;
    t.duration = 5.0;
    backend.submit(t, [](const rct::TaskResult&) {});
  }
  backend.drain();

  const auto prof = rct::SessionProfile::from_trace(rec.snapshot());
  ASSERT_EQ(prof.tasks.size(), 8u);
  for (const auto& r : prof.tasks) {
    EXPECT_GE(r.start_time, r.submit_time);
    EXPECT_GT(r.end_time, r.start_time);
    EXPECT_TRUE(r.ok);
  }
  // Two tasks waited for a slot.
  int waited = 0;
  for (const auto& r : prof.tasks)
    if (r.queue_wait() > 1.0) ++waited;
  EXPECT_EQ(waited, 2);
  EXPECT_EQ(prof.peak_concurrency(), 6);
  EXPECT_NEAR(prof.makespan(), 10.1, 0.2);
}

TEST(Profiler, ConcurrencyTimelineAndIdleFraction) {
  obs::Recorder rec;
  rct::SimBackend backend(hpc::test_machine(2));
  backend.set_recorder(&rec);
  rct::AppManager mgr(backend, {.stage_transition_overhead = 10.0});

  rct::TaskDescription a;
  a.name = "a";
  a.gpus = 1;
  a.duration = 10.0;
  rct::TaskDescription b = a;
  b.name = "b";
  rct::StageGraph g;
  const auto s1 = g.add({.name = "s1", .pipeline = "two-stage", .tasks = {a}});
  g.add({.name = "s2", .pipeline = "two-stage", .tasks = {b}}, {s1});
  mgr.run_graph(std::move(g));

  const auto prof = rct::SessionProfile::from_trace(rec.snapshot());
  ASSERT_EQ(prof.tasks.size(), 2u);
  // The 10 s stage gap shows up as idle time.
  EXPECT_GT(prof.idle_fraction(), 0.2);
  const auto timeline = prof.concurrency_timeline(30);
  EXPECT_EQ(timeline.size(), 30u);
  const int peak = *std::max_element(timeline.begin(), timeline.end());
  EXPECT_EQ(peak, 1);
  // Some middle bucket must be empty (the transition).
  EXPECT_TRUE(std::find(timeline.begin() + 5, timeline.end() - 5, 0) !=
              timeline.end() - 5);
}

TEST(Profiler, WorksOnLocalBackend) {
  obs::Recorder rec;
  rct::LocalBackend backend(2);
  backend.set_recorder(&rec);
  rct::TaskDescription t;
  t.name = "work";
  t.payload = [] {
    volatile double acc = 0;
    for (int i = 0; i < 100000; ++i) acc = acc + i;
  };
  backend.submit(t, [](const rct::TaskResult&) {});
  backend.drain();
  const auto prof = rct::SessionProfile::from_trace(rec.snapshot());
  ASSERT_EQ(prof.tasks.size(), 1u);
  EXPECT_GE(prof.tasks[0].runtime(), 0.0);
  EXPECT_GE(prof.mean_queue_wait(), 0.0);
}

TEST(Profiler, EmptyProfileIsSafe) {
  obs::Recorder rec;
  rct::SimBackend backend(hpc::test_machine(1));
  backend.set_recorder(&rec);
  const auto prof = rct::SessionProfile::from_trace(rec.snapshot());
  EXPECT_EQ(prof.makespan(), 0.0);
  EXPECT_EQ(prof.peak_concurrency(), 0);
  EXPECT_EQ(prof.idle_fraction(), 0.0);
  EXPECT_TRUE(prof.concurrency_timeline(5) ==
              std::vector<int>({0, 0, 0, 0, 0}));
}

TEST(ProfileCsv, WritesOneRowPerTask) {
  obs::Recorder rec;
  rct::SimBackend backend(hpc::test_machine(1));
  backend.set_recorder(&rec);
  for (int i = 0; i < 3; ++i) {
    rct::TaskDescription t;
    t.name = "t";
    t.name += std::to_string(i);
    t.gpus = 1;
    t.duration = 2.0;
    backend.submit(t, [](const rct::TaskResult&) {});
  }
  backend.drain();

  const auto path = std::filesystem::temp_directory_path() / "imp_profile.csv";
  rct::SessionProfile::from_trace(rec.snapshot()).write_csv(path.string());
  std::ifstream f(path);
  std::string line;
  int rows = 0;
  std::getline(f, line);
  EXPECT_EQ(line,
            "name,submit,start,end,queue_wait,runtime,ok,cpus,gpus,"
            "whole_nodes,error");
  while (std::getline(f, line))
    if (!line.empty()) ++rows;
  EXPECT_EQ(rows, 3);
  std::filesystem::remove(path);
}
