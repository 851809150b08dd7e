// StageGraph engine tests: dependency semantics (diamonds, cross-pipeline
// edges), lazy task construction, serialized post_exec adaptivity, retry
// propagation, transition-overhead timing, and LocalBackend concurrency.

#include <gtest/gtest.h>

#include <atomic>
#include <mutex>
#include <string>
#include <vector>

#include "impeccable/hpc/machine.hpp"
#include "impeccable/obs/recorder.hpp"
#include "impeccable/rct/backend.hpp"
#include "impeccable/rct/entk.hpp"

namespace hpc = impeccable::hpc;
namespace obs = impeccable::obs;
namespace rct = impeccable::rct;

namespace {

rct::TaskDescription sim_task(const std::string& name, double duration,
                              int gpus = 1) {
  rct::TaskDescription t;
  t.name = name;
  t.gpus = gpus;
  t.duration = duration;
  return t;
}

rct::StageNode node_of(const std::string& name,
                       std::vector<rct::TaskDescription> tasks,
                       std::function<void(rct::StageGraph&)> post = nullptr) {
  rct::StageNode n;
  n.name = name;
  n.pipeline = "test";
  n.tasks = std::move(tasks);
  n.post_exec = std::move(post);
  return n;
}

}  // namespace

TEST(StageGraph, RejectsForwardDependencies) {
  rct::StageGraph g;
  const auto a = g.add(node_of("a", {sim_task("a", 1)}));
  EXPECT_THROW(g.add(node_of("b", {}), {a + 1}), std::invalid_argument);
  EXPECT_THROW(g.add(node_of("c", {}), {rct::kNoNode}), std::invalid_argument);
  EXPECT_EQ(g.size(), 1u);
}

TEST(StageGraph, DiamondDependenciesJoinBeforeTheSink) {
  // a -> {b, c} -> d: b and c overlap; d starts only after both merged.
  rct::SimBackend backend(hpc::test_machine(4));
  rct::AppManager mgr(backend, {.stage_transition_overhead = 0.0});

  std::vector<std::string> merge_order;
  rct::StageGraph g;
  auto track = [&](const char* tag) {
    return [&merge_order, tag](rct::StageGraph&) { merge_order.push_back(tag); };
  };
  const auto a = g.add(node_of("a", {sim_task("a", 1)}, track("a")));
  const auto b = g.add(node_of("b", {sim_task("b", 10)}, track("b")), {a});
  const auto c = g.add(node_of("c", {sim_task("c", 2)}, track("c")), {a});
  g.add(node_of("d", {sim_task("d", 1)}, track("d")), {b, c});

  const auto results = mgr.run_graph(std::move(g)).results;
  ASSERT_EQ(results.size(), 4u);
  double b_start = 0, c_start = 0, bc_end = 0, d_start = 1e18;
  for (const auto& r : results) {
    if (r.name == "b") b_start = r.start_time;
    if (r.name == "c") c_start = r.start_time;
    if (r.name == "b" || r.name == "c") bc_end = std::max(bc_end, r.end_time);
    if (r.name == "d") d_start = r.start_time;
  }
  // The two middle branches start together (both ready when `a` merged)...
  EXPECT_NEAR(b_start, c_start, 1e-9);
  // ...and the sink waits for the slower one.
  EXPECT_GE(d_start, bc_end - 1e-9);
  ASSERT_EQ(merge_order.size(), 4u);
  EXPECT_EQ(merge_order.front(), "a");
  EXPECT_EQ(merge_order.back(), "d");
}

TEST(StageGraph, LazyBuildRunsAfterDependenciesMerged) {
  // The dependent node's task list is derived from upstream post_exec
  // output — the graph equivalent of adaptive stage construction.
  rct::SimBackend backend(hpc::test_machine(2));
  rct::AppManager mgr(backend, {.stage_transition_overhead = 0.0});

  int produced = 0;
  rct::StageGraph g;
  const auto src = g.add(node_of("src", {sim_task("seed", 1)},
                                 [&](rct::StageGraph&) { produced = 3; }));
  rct::StageNode consumer;
  consumer.name = "consumer";
  consumer.pipeline = "test";
  consumer.build = [&] {
    std::vector<rct::TaskDescription> tasks;
    for (int i = 0; i < produced; ++i)
      tasks.push_back(sim_task("job" + std::to_string(i), 1));
    return tasks;
  };
  g.add(std::move(consumer), {src});

  const auto results = mgr.run_graph(std::move(g)).results;
  EXPECT_EQ(results.size(), 4u);  // seed + 3 built jobs
}

TEST(StageGraph, PostExecAppendsNodesDuringExecution) {
  rct::SimBackend backend(hpc::test_machine(1));
  rct::AppManager mgr(backend, {.stage_transition_overhead = 0.0});

  int rounds = 0;
  std::function<void(rct::StageGraph&)> extend = [&](rct::StageGraph& g) {
    if (++rounds < 4) {
      // Chain after the node just finished (== current last node).
      const rct::NodeId prev = g.size() - 1;
      g.add(node_of("r" + std::to_string(rounds),
                    {sim_task("r" + std::to_string(rounds), 1)}, extend),
            {prev});
    }
  };
  rct::StageGraph g;
  g.add(node_of("r0", {sim_task("r0", 1)}, extend));
  const auto results = mgr.run_graph(std::move(g)).results;
  EXPECT_EQ(rounds, 4);
  EXPECT_EQ(results.size(), 4u);
}

TEST(StageGraph, EmptyNodesCompleteAndUnblockDependents) {
  rct::SimBackend backend(hpc::test_machine(1));
  rct::AppManager mgr(backend, {.stage_transition_overhead = 0.0});
  bool merged = false;
  rct::StageGraph g;
  const auto a = g.add(node_of("empty", {}));
  g.add(node_of("after", {sim_task("t", 1)},
                [&](rct::StageGraph&) { merged = true; }),
        {a});
  const auto results = mgr.run_graph(std::move(g)).results;
  EXPECT_TRUE(merged);
  EXPECT_EQ(results.size(), 1u);  // the empty node records no results
}

TEST(StageGraph, FailedTasksRetryThenPropagate) {
  rct::SimBackend backend(hpc::test_machine(1));
  rct::AppManager mgr(backend, {.max_retries = 2});

  int attempts = 0;
  bool downstream_ran = false;
  rct::TaskDescription flaky;
  flaky.name = "flaky";
  flaky.gpus = 1;
  flaky.duration = 1.0;
  flaky.payload = [&] {
    if (++attempts < 3) throw std::runtime_error("transient");
  };
  rct::StageGraph g;
  const auto a = g.add(node_of("flaky-stage", {flaky}));
  g.add(node_of("after", {sim_task("after", 1)},
                [&](rct::StageGraph&) { downstream_ran = true; }),
        {a});
  const auto report = mgr.run_graph(std::move(g));

  EXPECT_EQ(attempts, 3);  // two retries, third attempt succeeds
  EXPECT_EQ(report.retries, 2u);
  EXPECT_EQ(report.failed(), 0u);
  EXPECT_TRUE(downstream_ran);
  EXPECT_EQ(report.results.size(), 2u);

  // Retries exhausted: the failure is recorded and the graph still drains.
  rct::TaskDescription doomed;
  doomed.name = "doomed";
  doomed.gpus = 1;
  doomed.duration = 1.0;
  doomed.payload = [] { throw std::runtime_error("permanent"); };
  rct::AppManager mgr2(backend, {.max_retries = 1});
  rct::StageGraph g2;
  const auto d = g2.add(node_of("doomed-stage", {doomed}));
  bool after_failure = false;
  g2.add(node_of("after", {sim_task("after", 1)},
                 [&](rct::StageGraph&) { after_failure = true; }),
         {d});
  const auto report2 = mgr2.run_graph(std::move(g2));
  EXPECT_EQ(report2.retries, 1u);
  EXPECT_EQ(report2.failed(), 1u);
  EXPECT_TRUE(after_failure);
}

TEST(StageGraph, TransitionOverheadOnlyOnDependentNodes) {
  rct::SimBackend backend(hpc::test_machine(2));
  rct::AppManager mgr(backend, {.stage_transition_overhead = 5.0});
  rct::StageGraph g;
  const auto a = g.add(node_of("root", {sim_task("root", 1)}));
  g.add(node_of("child", {sim_task("child", 1)}), {a});
  const auto results = mgr.run_graph(std::move(g)).results;
  double root_start = 1e18, root_end = 0, child_start = 1e18;
  for (const auto& r : results) {
    if (r.name == "root") root_start = r.start_time, root_end = r.end_time;
    if (r.name == "child") child_start = r.start_time;
  }
  EXPECT_LT(root_start, 1.0);  // roots start immediately
  EXPECT_GE(child_start, root_end + 5.0 - 1e-9);
}

TEST(StageGraph, CrossPipelineEdgeThrottlesTheFastPipeline) {
  // Two chains; the second chain's head depends on the first chain's head —
  // the shape of the campaign's cross-iteration feedback edge.
  rct::SimBackend backend(hpc::test_machine(4));
  rct::AppManager mgr(backend, {.stage_transition_overhead = 0.0});
  rct::StageGraph g;
  const auto a0 = g.add(node_of("a0", {sim_task("a0", 10)}));
  g.add(node_of("a1", {sim_task("a1", 1)}), {a0});
  const auto b0 = g.add(node_of("b0", {sim_task("b0", 1)}), {a0});
  g.add(node_of("b1", {sim_task("b1", 1)}), {b0});
  const auto results = mgr.run_graph(std::move(g)).results;
  double a0_end = 0, b0_start = 1e18;
  for (const auto& r : results) {
    if (r.name == "a0") a0_end = r.end_time;
    if (r.name == "b0") b0_start = r.start_time;
  }
  EXPECT_GE(b0_start, a0_end - 1e-9);
}

TEST(StageGraph, EmitsStageSpansPerNode) {
  obs::Recorder rec;
  rct::SimBackend backend(hpc::test_machine(2));
  backend.set_recorder(&rec);
  rct::AppManager mgr(backend, {.stage_transition_overhead = 0.0});
  rct::StageGraph g;
  const auto a = g.add(node_of("alpha", {sim_task("t1", 1)}));
  g.add(node_of("beta", {sim_task("t2", 1), sim_task("t3", 1)}), {a});
  mgr.run_graph(std::move(g));

  const auto trace = rec.take();
  int stage_spans = 0;
  for (const auto& s : trace.spans) {
    if (std::string(s.category) != obs::cat::kStage) continue;
    ++stage_spans;
    EXPECT_TRUE(s.name == "alpha" || s.name == "beta");
    bool has_pipeline = false, has_tasks = false;
    for (const auto& arg : s.args) {
      if (arg.key == "pipeline") has_pipeline = arg.str == "test";
      if (arg.key == "tasks") has_tasks = true;
    }
    EXPECT_TRUE(has_pipeline);
    EXPECT_TRUE(has_tasks);
  }
  EXPECT_EQ(stage_spans, 2);
}

TEST(StageGraph, LocalBackendRunsIndependentNodesConcurrently) {
  rct::LocalBackend backend(4);
  rct::AppManager mgr(backend, {.stage_transition_overhead = 0.0});

  std::atomic<int> merges{0};
  std::mutex mu;
  std::vector<int> order;
  rct::StageGraph g;
  for (int n = 0; n < 8; ++n) {
    rct::StageNode node;
    node.name = "n";
    node.name += std::to_string(n);
    node.pipeline = "concurrent";
    for (int i = 0; i < 4; ++i) {
      rct::TaskDescription t;
      t.name = node.name + "-t" + std::to_string(i);
      t.payload = [] {};
      node.tasks.push_back(std::move(t));
    }
    node.post_exec = [&, n](rct::StageGraph&) {
      // Serialized post_exec: no two merges interleave, so unsynchronized
      // reads/writes of `order` are safe by construction (TSan-verified).
      merges.fetch_add(1);
      std::lock_guard lock(mu);
      order.push_back(n);
    };
    g.add(std::move(node));
  }
  const auto results = mgr.run_graph(std::move(g)).results;
  EXPECT_EQ(results.size(), 32u);
  EXPECT_EQ(merges.load(), 8);
  EXPECT_EQ(order.size(), 8u);
}

TEST(StageGraph, PstRunIsTheLinearChainSpecialCase) {
  // A PST pipeline is a chain of nodes, each depending on its predecessor;
  // EnTK's adaptive append is a post_exec that add()s the next node after
  // itself. Stage order, adaptivity and transition overheads all hold.
  rct::SimBackend backend(hpc::test_machine(2));
  rct::AppManager mgr(backend, {.stage_transition_overhead = 1.0});
  int rounds = 0;
  rct::NodeId tail = rct::kNoNode;
  std::function<void(rct::StageGraph&)> extend = [&](rct::StageGraph& g) {
    if (++rounds < 3)
      tail = g.add(node_of("adaptive",
                           {sim_task("r" + std::to_string(rounds), 1)}, extend),
                   {tail});
  };
  rct::StageGraph g;
  tail = g.add(node_of("seed", {sim_task("r0", 1)}, extend));
  const auto results = mgr.run_graph(std::move(g)).results;
  EXPECT_EQ(rounds, 3);
  ASSERT_EQ(results.size(), 3u);
  // Later stages pay the transition overhead each.
  double prev_end = 0.0;
  for (const auto& r : results) {
    if (prev_end > 0.0) {
      EXPECT_GE(r.start_time, prev_end + 1.0 - 1e-9);
    }
    prev_end = r.end_time;
  }
}

TEST(StageGraph, DeterministicOnSimBackendAcrossRuns) {
  auto run_once = [] {
    rct::SimBackend backend(hpc::test_machine(2));
    rct::AppManager mgr(backend, {.stage_transition_overhead = 0.5});
    rct::StageGraph g;
    const auto a = g.add(node_of("a", {sim_task("a", 2)}));
    const auto b = g.add(node_of("b", {sim_task("b", 3)}), {a});
    const auto c = g.add(node_of("c", {sim_task("c", 5)}), {a});
    g.add(node_of("d", {sim_task("d", 1)}), {b, c});
    const auto results = mgr.run_graph(std::move(g)).results;
    std::vector<std::pair<std::string, double>> out;
    for (const auto& r : results) out.emplace_back(r.name, r.end_time);
    return out;
  };
  EXPECT_EQ(run_once(), run_once());
}

TEST(StageGraph, PriorityOrderLaunchesCriticalBranchFirst) {
  // Diamond a -> {b, c} -> d on a one-node machine where each branch takes
  // the whole GPU set: b and c become ready in the same instant, and the
  // drain order decides who runs first. Under kFifo insertion order wins;
  // under kPriority the higher-priority branch preempts it.
  auto run_mode = [](rct::AppManagerOptions::ReadyOrder order) {
    rct::SimBackend backend(hpc::test_machine(1));
    rct::AppManager mgr(backend, {.stage_transition_overhead = 0.0,
                                  .ready_order = order});
    rct::StageGraph g;
    const auto a = g.add(node_of("a", {sim_task("a", 1)}));
    const auto b = g.add(node_of("b", {sim_task("b", 4, /*gpus=*/6)}), {a});
    const auto c = g.add(node_of("c", {sim_task("c", 2, /*gpus=*/6)}), {a});
    g.add(node_of("d", {sim_task("d", 1)}), {b, c});
    g.set_priority(b, 1.0);
    g.set_priority(c, 5.0);
    EXPECT_EQ(g.priority(b), 1.0);
    double b_start = 0, c_start = 0;
    const auto report = mgr.run_graph(std::move(g));
    for (const auto& r : report.results) {
      if (r.name == "b") b_start = r.start_time;
      if (r.name == "c") c_start = r.start_time;
    }
    return std::make_pair(b_start, c_start);
  };

  const auto [fifo_b, fifo_c] = run_mode(rct::AppManagerOptions::ReadyOrder::kFifo);
  EXPECT_LT(fifo_b, fifo_c);  // historical order: b was inserted first
  const auto [prio_b, prio_c] =
      run_mode(rct::AppManagerOptions::ReadyOrder::kPriority);
  EXPECT_LT(prio_c, prio_b);  // priority inverts the same-instant wave
}

TEST(StageGraph, AllZeroPrioritiesDegenerateToFifo) {
  // kPriority with default (zero) node priorities must reproduce kFifo
  // timings exactly — the stable sort keeps arrival order within a level.
  auto run_mode = [](rct::AppManagerOptions::ReadyOrder order) {
    rct::SimBackend backend(hpc::test_machine(1));
    rct::AppManager mgr(backend, {.stage_transition_overhead = 0.5,
                                  .ready_order = order});
    rct::StageGraph g;
    const auto a = g.add(node_of("a", {sim_task("a", 2)}));
    const auto b = g.add(node_of("b", {sim_task("b", 3, 6)}), {a});
    const auto c = g.add(node_of("c", {sim_task("c", 5, 6)}), {a});
    g.add(node_of("d", {sim_task("d", 1)}), {b, c});
    std::vector<std::pair<std::string, double>> out;
    const auto report = mgr.run_graph(std::move(g));
    for (const auto& r : report.results) out.emplace_back(r.name, r.end_time);
    return out;
  };
  EXPECT_EQ(run_mode(rct::AppManagerOptions::ReadyOrder::kFifo),
            run_mode(rct::AppManagerOptions::ReadyOrder::kPriority));
}
