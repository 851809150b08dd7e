#pragma once
// RAPTOR — the RAdical-Pilot Task OveRlay (Sec. 6.1.2, Fig. 3).
//
// A master/worker overlay built for very high-throughput, very short tasks
// (docking calls), expressed as an ExecutionBackend decorator. Tasks whose
// name starts with "dock" (per-ligand "dock-*" requests, S1's
// "dock-chunk-*" shards) are coalesced into *bulks*, limiting communication
// frequency: one bulk becomes one aggregated task on the inner backend —
// duration the sum of its members, priority their maximum, one worker-sized
// (1 CPU + 1 GPU) resource request — and its completion fans back out into
// per-member TaskResults, so AppManager retry/merge logic never sees the
// overlay. Everything else passes straight through.
//
// Masters serialize dispatch: bulks go to the masters round-robin and each
// costs its master bulk_overhead + kRaptorPerRequestOverhead · size of
// service time, so one master saturates at high worker counts and several
// masters restore near-linear scaling. At most workers × kRaptorPrefetch
// bulks are in flight (the prefetch window hides dispatch latency); the
// rest are held until a completion frees a slot, and admitted bulks queue
// for the inner backend's shared worker slots. Load balance is reported
// over modeled worker lanes: each dispatched bulk is charged to the
// least-loaded lane (the one free soonest).
//
// A per-member failure (payload threw) fails only that member; an inner
// task failure (e.g. a pilot-walltime kill) fails every member of the bulk
// — either way the members resurface individually and re-enter bulking when
// AppManager resubmits them. The seeded worker-failure model charges half
// the bulk's work to its lane and requeues the whole bulk (results of a
// dead executor are lost); a worker death does not shrink the overlay's
// capacity.
//
// run_raptor() runs the scaling study on the same overlay, over a
// SimBackend of one single-GPU node per worker, fed from a duration list.

#include <cstdint>
#include <deque>
#include <functional>
#include <iosfwd>
#include <memory>
#include <queue>
#include <string>
#include <utility>
#include <vector>

#include "impeccable/common/lockdep.hpp"
#include "impeccable/common/rng.hpp"
#include "impeccable/rct/backend.hpp"

namespace impeccable::rct {

/// In-flight bulks per worker (prefetch depth hiding dispatch latency).
inline constexpr int kRaptorPrefetch = 2;
/// Master-side service time per request inside a bulk, seconds.
inline constexpr double kRaptorPerRequestOverhead = 2e-5;

struct RaptorOptions {
  int masters = 1;
  int workers = 6;           ///< total workers (one GPU each on Summit)
  int bulk_size = 64;        ///< requests per dispatch message
  /// Master-side service time per dispatched bulk (serialization, IPC).
  double bulk_overhead = 2e-3;
  /// Probability that a worker dies while executing a bulk (node failures,
  /// OOM-killed executors). The bulk is requeued — tasks are never lost,
  /// throughput degrades gracefully.
  double worker_failure_rate = 0.0;
  std::uint64_t failure_seed = 0xfa11;
};

struct RaptorStats {
  std::size_t tasks = 0;
  double makespan = 0.0;            ///< virtual seconds
  double throughput_per_hour = 0.0; ///< tasks per hour
  double worker_utilization = 0.0;  ///< busy time / (workers * makespan)
  double load_imbalance = 0.0;      ///< max worker busy / mean worker busy
  std::vector<double> worker_busy;  ///< per-worker busy seconds
  int workers_failed = 0;
  std::size_t bulks_requeued = 0;

  /// One JSON object (obs::json writer — deterministic doubles).
  void to_json(std::ostream& os) const;

  /// Recompute the derived metrics (throughput_per_hour, worker_utilization,
  /// load_imbalance) from tasks / makespan / worker_busy. A zero makespan,
  /// an empty worker set, or an all-idle overlay yields clean zeros instead
  /// of NaN/Inf — an empty workload must produce an all-zero report.
  void finalize_derived();
};

/// ExecutionBackend decorator that maps "dock*" tasks into RAPTOR bulks.
class RaptorBackend : public ExecutionBackend {
 public:
  /// Throws std::invalid_argument unless 1 <= masters <= workers and
  /// bulk_size >= 1.
  explicit RaptorBackend(ExecutionBackend& inner,
                         const RaptorOptions& opts = {});

  void submit(TaskDescription task, CompletionCallback on_complete) override;
  void after(double delay, std::function<void()> fn) override;
  void drain() override;
  double now() override;
  common::ThreadPool* compute_pool() override;
  /// Attaches to both layers: the inner backend emits the per-bulk
  /// cat::kTask spans, this adapter emits cat::kRaptor bulk spans and the
  /// raptor.{requests,bulks,requeued} counters.
  void set_recorder(obs::Recorder* rec) override;

  /// Overlay statistics over everything routed so far. makespan is the
  /// first-dispatch → last-completion window; derived metrics go through
  /// RaptorStats::finalize_derived (zero-safe on an empty overlay).
  RaptorStats stats() const;

 private:
  struct Request {
    TaskDescription task;
    CompletionCallback done;
    bool ok = true;
    std::string error;
  };
  struct Bulk {
    std::uint64_t id = 0;
    std::vector<Request> members;
    double work = 0.0;        ///< sum of member durations
    double priority = 0.0;    ///< max member priority
    int lane = 0;             ///< modeled worker lane (stats bucket)
    double dispatched = 0.0;  ///< backend time the master released it
  };
  /// (free-at time, lane): the min-heap top is the least-loaded lane.
  using LaneSlot = std::pair<double, int>;

  /// Drain the coalescing buffer into bulks (trailing partial included) and
  /// launch each one. Runs as a zero-delay event so every same-instant
  /// submission lands in the same flush.
  void flush();
  /// Admit the bulk into the prefetch window, or hold it until a completion
  /// frees a slot.
  void launch(std::shared_ptr<Bulk> bulk);
  /// Serialize the master service time, pick the bulk's lane and submit the
  /// aggregate inner task once the master releases it.
  void dispatch(std::shared_ptr<Bulk> bulk);
  void submit_bulk(const std::shared_ptr<Bulk>& bulk);
  void on_bulk_done(std::shared_ptr<Bulk> bulk, const TaskResult& result);

  ExecutionBackend& inner_;
  RaptorOptions opts_;

  mutable common::OrderedMutex<common::lockrank::RaptorOverlay> mu_;
  std::vector<Request> buffer_;
  bool flush_scheduled_ = false;
  std::deque<std::shared_ptr<Bulk>> held_;  ///< beyond the prefetch window
  std::vector<double> master_busy_until_;
  std::priority_queue<LaneSlot, std::vector<LaneSlot>, std::greater<>>
      lane_free_at_;
  std::vector<double> lane_busy_;  ///< per modeled worker busy seconds
  int in_flight_ = 0;
  std::uint64_t bulk_counter_ = 0;
  std::size_t requests_done_ = 0;
  double first_dispatch_ = -1.0;
  double last_completion_ = 0.0;
  int workers_failed_ = 0;
  std::size_t bulks_requeued_ = 0;
  common::Rng failure_rng_;
};

/// Execute `durations` (seconds per request) as "dock" tasks through a
/// RaptorBackend over a fresh SimBackend of `opts.workers` nodes × 1 GPU ×
/// 1 core with no launch overhead. Requests are fed lazily — workers ×
/// kRaptorPrefetch × bulk_size outstanding, each completion submitting the
/// next — so memory stays bounded by the prefetch window, not the workload.
RaptorStats run_raptor(const RaptorOptions& opts,
                       const std::vector<double>& durations);

/// Generate a heavy-tailed docking-duration workload: log-normal body with
/// an occasional long-tail ligand ("the duration of the docking computation
/// varies significantly ... the long tail poses a challenge").
std::vector<double> docking_durations(std::size_t count, double mean_seconds,
                                      std::uint64_t seed);

}  // namespace impeccable::rct
