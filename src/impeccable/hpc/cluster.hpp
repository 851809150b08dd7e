#pragma once
// Discrete-event cluster: nodes with CPU/GPU slots, FIFO-backfill placement,
// and a utilization recorder (the Fig. 7 time series).

#include <cstdint>
#include <deque>
#include <functional>
#include <string>
#include <vector>

#include "impeccable/hpc/des.hpp"
#include "impeccable/hpc/machine.hpp"

namespace impeccable::hpc {

/// A resource request for one simulated task.
struct SlotRequest {
  int cpus = 1;
  int gpus = 0;
  /// If > 0 the request claims this many whole nodes (multi-node MPI tasks,
  /// e.g. the AutoDock-GPU "single task running on several thousand nodes").
  int whole_nodes = 0;
  /// Queue priority: the pending queue is kept ordered by priority
  /// (descending), arrival order within a priority level. All-zero priorities
  /// reproduce the original pure-FIFO backfill exactly.
  double priority = 0.0;
};

/// Where a request landed (whole-node requests use first_node/node_count).
struct Placement {
  int first_node = -1;
  int node_count = 0;
  int cpus = 0;
  int gpus = 0;
};

/// One point of the utilization time series.
struct UtilizationSample {
  double time = 0.0;
  double gpu_busy_fraction = 0.0;
  double cpu_busy_fraction = 0.0;
};

/// Simulated cluster bound to a Simulator clock.
///
/// submit() places the request now if resources allow, otherwise queues it
/// in priority order (FIFO within a priority level); when a running task
/// releases resources the queue is re-scanned in order (backfill: later
/// tasks may start if earlier ones do not fit). A blocked whole-node request
/// additionally *reserves* the nodes closest to draining: requests of
/// strictly lower priority may not backfill onto them, so ensemble waves are
/// never starved by a stream of single-GPU work. Within one priority level
/// nothing is reserved — all-zero priorities reproduce the original
/// pure-FIFO aggressive backfill exactly. `on_start` fires when placed; the
/// caller schedules its own completion and must call release().
class ClusterSim {
 public:
  ClusterSim(Simulator& sim, const MachineSpec& machine);

  using StartCallback = std::function<void(const Placement&)>;

  /// Throws std::invalid_argument for a request that can never fit, or a
  /// single-node request for neither a CPU nor a GPU.
  void submit(const SlotRequest& req, StartCallback on_start);
  void release(const SlotRequest& req, const Placement& where);

  const MachineSpec& machine() const { return machine_; }
  Simulator& simulator() { return sim_; }

  int busy_gpus() const { return busy_gpus_; }
  int busy_cpus() const { return busy_cpus_; }
  std::size_t queued() const { return queue_.size(); }

  /// Complete utilization history (one sample per allocation change).
  const std::vector<UtilizationSample>& utilization() const { return series_; }

  /// Time-weighted mean GPU utilization over [t0, t1].
  double mean_gpu_utilization(double t0, double t1) const;

 private:
  struct Node {
    int free_cpus = 0;
    int free_gpus = 0;
  };
  struct Pending {
    SlotRequest req;
    StartCallback on_start;
  };

  /// Place `req` if it fits. When `forbidden` is non-null, nodes flagged in
  /// it are treated as unavailable (reserved for a blocked higher-priority
  /// request upstream in the queue scan).
  bool try_place(const SlotRequest& req, Placement& out,
                 const std::vector<char>* forbidden = nullptr);
  /// Reserve the `count` unreserved nodes closest to fully free (fewest
  /// busy slots) for a blocked whole-node request.
  void reserve_draining_nodes(int count, std::vector<char>& reserved) const;
  void drain_queue();
  /// Refresh node `node`'s bit in open_.
  void mark(std::size_t node);
  /// No CPU or GPU free anywhere (and the machine has some).
  bool saturated() const;
  void record();

  Simulator& sim_;
  MachineSpec machine_;
  std::vector<Node> nodes_;
  std::vector<std::uint64_t> open_;  ///< bit i: node i has a free CPU or GPU
  std::deque<Pending> queue_;
  int busy_gpus_ = 0;
  int busy_cpus_ = 0;
  std::vector<UtilizationSample> series_;
};

}  // namespace impeccable::hpc
