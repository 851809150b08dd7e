// RAPTOR overlay tests (Sec. 6.1.2): run_raptor throughput, balance and
// scaling on the DES machine; worker fault tolerance; edge cases and
// zero-safe stats; and RaptorBackend on the live task path — bulking,
// per-member fan-out, AppManager retries, requeues, and real payloads on a
// LocalBackend.

#include <gtest/gtest.h>

#include <atomic>
#include <cmath>
#include <memory>
#include <stdexcept>
#include <string>
#include <vector>

#include "impeccable/hpc/machine.hpp"
#include "impeccable/rct/backend.hpp"
#include "impeccable/rct/entk.hpp"
#include "impeccable/rct/raptor.hpp"

#include "test_support.hpp"

namespace hpc = impeccable::hpc;
namespace rct = impeccable::rct;

// -------------------------------------------------------------- run_raptor

TEST(Raptor, CompletesAllTasks) {
  const auto durations = rct::docking_durations(500, 0.4, 1);
  rct::RaptorOptions opts;
  opts.workers = 12;
  const auto stats = rct::run_raptor(opts, durations);
  EXPECT_EQ(stats.tasks, 500u);
  EXPECT_GT(stats.makespan, 0.0);
  EXPECT_GT(stats.throughput_per_hour, 0.0);
}

TEST(Raptor, UtilizationHighUnderLoad) {
  // Many bulks per worker (the production regime: millions of docks per
  // allocation) — demand-driven refill balances the heavy-tailed durations.
  const auto durations = rct::docking_durations(20000, 0.1, 2);
  rct::RaptorOptions opts;
  opts.workers = 24;
  const auto stats = rct::run_raptor(opts, durations);
  EXPECT_GT(stats.worker_utilization, 0.85);
  EXPECT_LT(stats.load_imbalance, 1.2);
}

TEST(Raptor, FewBulksPerWorkerDegradesBalance) {
  // The converse: bulk granularity dominates when each worker only sees one
  // or two bulks — documents why bulk size must stay small vs. tasks/worker.
  const auto durations = rct::docking_durations(2000, 0.1, 2);
  rct::RaptorOptions coarse;
  coarse.workers = 24;
  coarse.bulk_size = 64;
  rct::RaptorOptions fine = coarse;
  fine.bulk_size = 8;
  const auto a = rct::run_raptor(coarse, durations);
  const auto b = rct::run_raptor(fine, durations);
  EXPECT_GT(b.worker_utilization, a.worker_utilization);
}

TEST(Raptor, ThroughputScalesNearLinearly) {
  // Same per-worker load at two scales; throughput should roughly double.
  rct::RaptorOptions small;
  small.workers = 12;
  small.masters = 1;
  rct::RaptorOptions big = small;
  big.workers = 24;
  big.masters = 2;
  const auto d_small = rct::docking_durations(1200, 0.4, 3);
  const auto d_big = rct::docking_durations(2400, 0.4, 3);
  const auto s = rct::run_raptor(small, d_small);
  const auto b = rct::run_raptor(big, d_big);
  const double ratio = b.throughput_per_hour / s.throughput_per_hour;
  EXPECT_GT(ratio, 1.7);
  EXPECT_LT(ratio, 2.3);
}

TEST(Raptor, SingleMasterSaturatesManyWorkers) {
  // With a slow master and many workers, adding a second master must help.
  rct::RaptorOptions one;
  one.workers = 256;
  one.masters = 1;
  one.bulk_size = 4;
  one.bulk_overhead = 5e-3;
  rct::RaptorOptions two = one;
  two.masters = 8;
  const auto durations = rct::docking_durations(20000, 0.05, 4);
  const auto a = rct::run_raptor(one, durations);
  const auto b = rct::run_raptor(two, durations);
  EXPECT_GT(b.throughput_per_hour, a.throughput_per_hour * 1.5);
}

TEST(Raptor, RejectsBadConfig) {
  EXPECT_THROW(rct::run_raptor({.masters = 0}, {1.0}), std::invalid_argument);
  rct::RaptorOptions bad;
  bad.masters = 4;
  bad.workers = 2;
  EXPECT_THROW(rct::run_raptor(bad, {1.0}), std::invalid_argument);
  // Zero-size bulks would never drain the buffer: rejected, not hung.
  EXPECT_THROW(rct::run_raptor({.bulk_size = 0}, {1.0}), std::invalid_argument);
  // The overlay enforces both, whatever backend it decorates.
  rct::SimBackend sim(hpc::test_machine(1));
  EXPECT_THROW({ rct::RaptorBackend r(sim, bad); }, std::invalid_argument);
  EXPECT_THROW({ rct::RaptorBackend r(sim, {.bulk_size = 0}); },
               std::invalid_argument);
}

TEST(Raptor, DurationsAreHeavyTailed) {
  const auto d = rct::docking_durations(20000, 1.0, 5);
  double mean = 0, mx = 0;
  for (double x : d) {
    mean += x;
    mx = std::max(mx, x);
  }
  mean /= static_cast<double>(d.size());
  EXPECT_NEAR(mean, 1.0, 0.3);
  EXPECT_GT(mx, 4.0 * mean);  // the long tail exists
}

// --------------------------------------------------------- worker failures

TEST(RaptorFailures, AllTasksCompleteDespiteWorkerDeaths) {
  const auto durations = rct::docking_durations(4000, 0.2, 8);
  rct::RaptorOptions opts;
  opts.workers = 16;
  opts.bulk_size = 16;
  opts.worker_failure_rate = 0.02;
  const auto stats = rct::run_raptor(opts, durations);
  EXPECT_EQ(stats.tasks, durations.size());
  EXPECT_GT(stats.workers_failed, 0);
  EXPECT_GE(stats.bulks_requeued,
            static_cast<std::size_t>(stats.workers_failed));
  EXPECT_LT(stats.workers_failed, 16);  // some workers survive
}

TEST(RaptorFailures, ThroughputDegradesGracefully) {
  const auto durations = rct::docking_durations(4000, 0.2, 9);
  rct::RaptorOptions healthy;
  healthy.workers = 16;
  healthy.bulk_size = 16;
  rct::RaptorOptions flaky = healthy;
  flaky.worker_failure_rate = 0.01;
  const auto a = rct::run_raptor(healthy, durations);
  const auto b = rct::run_raptor(flaky, durations);
  EXPECT_EQ(a.tasks, b.tasks);
  EXPECT_LE(b.throughput_per_hour, a.throughput_per_hour);
  // Losing a few workers must not collapse throughput.
  EXPECT_GT(b.throughput_per_hour, 0.3 * a.throughput_per_hour);
}

TEST(RaptorFailures, ZeroRateReproducesBaseline) {
  const auto durations = rct::docking_durations(1000, 0.2, 10);
  rct::RaptorOptions opts;
  opts.workers = 8;
  const auto a = rct::run_raptor(opts, durations);
  opts.worker_failure_rate = 0.0;
  const auto b = rct::run_raptor(opts, durations);
  EXPECT_DOUBLE_EQ(a.makespan, b.makespan);
  EXPECT_EQ(a.workers_failed, 0);
  EXPECT_EQ(a.bulks_requeued, 0u);
}

// -------------------------------------------------------------- edge cases

TEST(RaptorEdge, SingleWorkerSingleMaster) {
  const std::vector<double> durations(50, 0.1);
  rct::RaptorOptions opts;
  opts.workers = 1;
  opts.masters = 1;
  opts.bulk_size = 8;
  const auto stats = rct::run_raptor(opts, durations);
  EXPECT_EQ(stats.tasks, 50u);
  // Serial execution: makespan >= total work.
  EXPECT_GE(stats.makespan, 5.0 - 1e-9);
  EXPECT_NEAR(stats.load_imbalance, 1.0, 1e-9);
}

TEST(RaptorEdge, EmptyWorkloadIsSafe) {
  rct::RaptorOptions opts;
  opts.workers = 4;
  const auto stats = rct::run_raptor(opts, {});
  EXPECT_EQ(stats.tasks, 0u);
  EXPECT_EQ(stats.makespan, 0.0);
}

TEST(RaptorStats, EmptyWorkloadYieldsCleanZeros) {
  // Regression: derived metrics divided by makespan / worker mean and went
  // NaN on empty workloads.
  const rct::RaptorStats stats = rct::run_raptor({}, {});
  EXPECT_EQ(stats.tasks, 0u);
  EXPECT_EQ(stats.makespan, 0.0);
  EXPECT_EQ(stats.throughput_per_hour, 0.0);
  EXPECT_EQ(stats.worker_utilization, 0.0);
  EXPECT_EQ(stats.load_imbalance, 0.0);
  EXPECT_FALSE(std::isnan(stats.throughput_per_hour));

  rct::RaptorStats zero;
  zero.worker_busy = {0.0, 0.0};
  zero.finalize_derived();  // all-idle overlay: mean busy is zero
  EXPECT_EQ(zero.worker_utilization, 0.0);
  EXPECT_EQ(zero.load_imbalance, 0.0);

  rct::RaptorStats no_workers;
  no_workers.tasks = 5;
  no_workers.makespan = 2.0;
  no_workers.finalize_derived();  // empty worker set
  EXPECT_GT(no_workers.throughput_per_hour, 0.0);
  EXPECT_EQ(no_workers.worker_utilization, 0.0);
}

// ----------------------------------------------------------- RaptorBackend

TEST(RaptorBackend, BulksRoutedTasksAndFansOutResults) {
  rct::SimBackend sim(hpc::test_machine(2));
  rct::RaptorOptions ropts;
  ropts.masters = 1;
  ropts.workers = 3;
  ropts.bulk_size = 4;
  rct::RaptorBackend raptor(sim, ropts);

  std::vector<rct::TaskResult> results;
  for (int i = 0; i < 10; ++i)
    raptor.submit(sim_task("dock-" + std::to_string(i), 0.5),
                  [&results](const rct::TaskResult& r) { results.push_back(r); });
  // Unrouted names pass straight through.
  bool ml_done = false;
  raptor.submit(sim_task("ml1-train", 1.0),
                [&ml_done](const rct::TaskResult& r) { ml_done = r.ok; });
  raptor.drain();

  ASSERT_EQ(results.size(), 10u);
  for (const auto& r : results) {
    EXPECT_TRUE(r.ok) << r.name << ": " << r.error;
    EXPECT_GT(r.end_time, 0.0);
  }
  EXPECT_TRUE(ml_done);

  const rct::RaptorStats stats = raptor.stats();
  EXPECT_EQ(stats.tasks, 10u);  // the ml1 task never touched the overlay
  EXPECT_GT(stats.makespan, 0.0);
  EXPECT_GT(stats.worker_utilization, 0.0);
  EXPECT_LE(stats.worker_utilization, 1.0 + 1e-9);
  ASSERT_EQ(stats.worker_busy.size(), 3u);
}

TEST(RaptorBackend, MemberFailureFailsOnlyThatMember) {
  rct::SimBackend sim(hpc::test_machine(1));
  rct::RaptorOptions ropts;
  ropts.bulk_size = 8;  // all three members share one bulk
  rct::RaptorBackend raptor(sim, ropts);

  std::vector<rct::TaskResult> results;
  auto record = [&results](const rct::TaskResult& r) { results.push_back(r); };
  auto failing = sim_task("dock-bad", 0.2);
  failing.payload = [] { throw std::runtime_error("pose rejected"); };
  raptor.submit(sim_task("dock-a", 0.2), record);
  raptor.submit(std::move(failing), record);
  raptor.submit(sim_task("dock-b", 0.2), record);
  raptor.drain();

  ASSERT_EQ(results.size(), 3u);
  std::size_t failed = 0;
  for (const auto& r : results) {
    if (r.name == "dock-bad") {
      EXPECT_FALSE(r.ok);
      EXPECT_NE(r.error.find("pose rejected"), std::string::npos);
      ++failed;
    } else {
      EXPECT_TRUE(r.ok) << r.error;
    }
  }
  EXPECT_EQ(failed, 1u);
}

TEST(RaptorBackend, RetriedMembersReenterBulking) {
  // A member that fails once is resubmitted by AppManager and must succeed
  // through the overlay on the second attempt.
  rct::SimBackend sim(hpc::test_machine(1));
  rct::RaptorOptions ropts;
  ropts.bulk_size = 4;
  rct::RaptorBackend raptor(sim, ropts);
  rct::AppManager mgr(raptor, {.max_retries = 1});

  auto flaky_calls = std::make_shared<std::atomic<int>>(0);
  rct::StageGraph g;
  rct::StageNode n;
  n.name = "s1";
  n.pipeline = "iteration-0";
  for (int i = 0; i < 3; ++i) n.tasks.push_back(sim_task("dock-" + std::to_string(i), 0.3));
  rct::TaskDescription flaky = sim_task("dock-flaky", 0.3);
  flaky.payload = [flaky_calls] {
    if (flaky_calls->fetch_add(1) == 0) throw std::runtime_error("transient");
  };
  n.tasks.push_back(std::move(flaky));
  g.add(std::move(n));

  const auto report = mgr.run_graph(std::move(g));
  EXPECT_EQ(report.retries, 1u);
  EXPECT_EQ(report.failed(), 0u);
  EXPECT_EQ(report.completed(), 4u);
  EXPECT_EQ(flaky_calls->load(), 2);
  EXPECT_EQ(raptor.stats().tasks, 4u);  // retry attempt re-bulked; failed
                                        // first attempt is not counted done
}

TEST(RaptorBackend, WorkerFailuresRequeueBulks) {
  rct::SimBackend sim(hpc::test_machine(2));
  rct::RaptorOptions ropts;
  ropts.workers = 4;
  ropts.bulk_size = 2;
  ropts.worker_failure_rate = 0.5;
  ropts.failure_seed = 7;
  rct::RaptorBackend raptor(sim, ropts);

  std::size_t done = 0;
  for (int i = 0; i < 16; ++i)
    raptor.submit(sim_task("dock-" + std::to_string(i), 0.4),
                  [&done](const rct::TaskResult& r) { done += r.ok ? 1 : 0; });
  raptor.drain();

  EXPECT_EQ(done, 16u);  // requeues lose time, never tasks
  const auto stats = raptor.stats();
  EXPECT_EQ(stats.tasks, 16u);
  EXPECT_GT(stats.bulks_requeued, 0u);
  EXPECT_GT(stats.workers_failed, 0);
}

TEST(RaptorBackend, RunsRealPayloadsOnLocalBackend) {
  // Off the single-threaded SimBackend: flushes, dispatches and bulks run as
  // pool jobs while the test thread is still submitting, and members fan
  // out from worker threads.
  rct::LocalBackend local(2);
  rct::RaptorBackend raptor(local, {.workers = 2, .bulk_size = 4});
  std::vector<std::atomic<int>> runs(41);
  std::atomic<int> results{0}, ok{0};
  for (int i = 0; i < 41; ++i) {
    // 40 overlay requests (10 bulks, more than the 4-bulk prefetch window)
    // plus one pass-through task.
    auto t = sim_task(i < 40 ? "dock-" + std::to_string(i) : "ml1-train", 0.0);
    t.payload = [&runs, i] { runs[static_cast<std::size_t>(i)].fetch_add(1); };
    raptor.submit(std::move(t), [&results, &ok](const rct::TaskResult& r) {
      ok.fetch_add(r.ok ? 1 : 0);
      results.fetch_add(1);
    });
  }
  raptor.drain();

  for (const auto& n : runs) EXPECT_EQ(n.load(), 1);
  EXPECT_EQ(results.load(), 41);
  EXPECT_EQ(ok.load(), 41);
  EXPECT_EQ(raptor.stats().tasks, 40u);
}
