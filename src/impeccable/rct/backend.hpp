#pragma once
// Execution backends — the RADICAL-Pilot role: acquire resources once, then
// schedule many heterogeneous tasks onto them without touching the batch
// system (Sec. 5.2.2).
//
//  * SimBackend   — discrete-event simulation on a ClusterSim; deterministic
//                   virtual time; powers the scale benches (Fig. 7, Tab. 2/3).
//  * LocalBackend — a ThreadPool on the host; real payload execution; powers
//                   the examples and the integrated campaign.

#include <chrono>
#include <functional>
#include <memory>

#include "impeccable/common/thread_pool.hpp"
#include "impeccable/hpc/cluster.hpp"
#include "impeccable/obs/recorder.hpp"
#include "impeccable/rct/task.hpp"

namespace impeccable::rct {

class ExecutionBackend {
 public:
  virtual ~ExecutionBackend() = default;

  using CompletionCallback = std::function<void(const TaskResult&)>;

  /// Submit one task; `on_complete` fires when it finishes (possibly on a
  /// worker thread for LocalBackend, inside the event loop for SimBackend).
  virtual void submit(TaskDescription task, CompletionCallback on_complete) = 0;

  /// Run `fn` after `delay` seconds of backend time (0 = as soon as
  /// possible). Used for stage-transition overheads.
  virtual void after(double delay, std::function<void()> fn) = 0;

  /// Block (or run the event loop) until all submitted work has finished,
  /// including work submitted from completion callbacks.
  virtual void drain() = 0;

  /// Current backend clock in seconds.
  virtual double now() = 0;

  /// Pool payloads use for intra-task parallelism (GEMM row panels, LGA
  /// runs, MD replicas): MultiCampaign::run installs it as the process
  /// compute pool (common::ComputePoolScope) for the whole run. Null for
  /// backends with no real compute resources, e.g. SimBackend.
  virtual common::ThreadPool* compute_pool() { return nullptr; }

  /// Attach a span recorder: the backend emits one cat::kTask span per task
  /// (name, submit/start/end on this backend's clock, resources, failure)
  /// and higher layers (AppManager stage spans) record through it too.
  /// Attaching wires the recorder's clock to now(), so SimBackend traces are
  /// in virtual time and LocalBackend traces in wall time, one schema.
  /// Null (the default) disables task tracing and restores the previously
  /// attached recorder's own clock. Not owned: the recorder must outlive
  /// recorded activity, and a recorder still used after this backend dies
  /// must be detached first. Attach and detach while no spans are live
  /// (Recorder::set_clock is not synchronized).
  virtual void set_recorder(obs::Recorder* rec);
  obs::Recorder* recorder() const { return recorder_; }

 protected:
  /// Emit the cat::kTask span for one finished task (no-op without a
  /// recorder). `submit_time` is when submit() was called on this clock.
  void record_task(const TaskResult& result, double submit_time, int cpus,
                   int gpus, int whole_nodes);

  obs::Recorder* recorder_ = nullptr;
};

struct SimBackendOptions {
  /// Fixed per-task launch overhead (scheduler + launch method), seconds.
  double task_overhead = 0.05;
  /// Pilot walltime: the batch allocation expires every `pilot_walltime`
  /// seconds of virtual time, killing whatever is still running (reported as
  /// ok=false, error="pilot walltime"); the next pilot starts immediately
  /// with the same resources. 0 = unlimited. Combine with AppManager
  /// max_retries to model campaigns spanning many allocations.
  double pilot_walltime = 0.0;
};

/// Discrete-event backend over a simulated cluster.
class SimBackend : public ExecutionBackend {
 public:
  explicit SimBackend(const hpc::MachineSpec& machine,
                      const SimBackendOptions& opts = {});

  void submit(TaskDescription task, CompletionCallback on_complete) override;
  void after(double delay, std::function<void()> fn) override;
  void drain() override;
  double now() override { return sim_.now(); }

  hpc::ClusterSim& cluster() { return cluster_; }
  hpc::Simulator& simulator() { return sim_; }
  /// Pilot allocations consumed so far (>= 1 once anything ran).
  int pilot_generation() const { return pilot_generation_; }

 private:
  struct Running {
    hpc::SlotRequest request;
    hpc::Placement placement;
    TaskResult result;
    std::shared_ptr<CompletionCallback> callback;
    double submit_time = 0.0;  ///< virtual time of the submit() call
    bool finished = false;     ///< set by completion or walltime kill
  };

  void ensure_walltime_event();

  hpc::Simulator sim_;
  hpc::ClusterSim cluster_;
  SimBackendOptions opts_;
  std::vector<std::shared_ptr<Running>> running_;  ///< walltime runs only
  double next_walltime_ = 0.0;
  bool walltime_scheduled_ = false;
  int pilot_generation_ = 1;
};

/// Thread-pool backend executing real payloads.
class LocalBackend : public ExecutionBackend {
 public:
  explicit LocalBackend(std::size_t threads = 0);

  void submit(TaskDescription task, CompletionCallback on_complete) override;
  void after(double delay, std::function<void()> fn) override;
  void drain() override;
  double now() override;

  common::ThreadPool& pool() { return pool_; }
  common::ThreadPool* compute_pool() override { return &pool_; }

 private:
  common::ThreadPool pool_;
  std::chrono::steady_clock::time_point epoch_;
};

}  // namespace impeccable::rct
