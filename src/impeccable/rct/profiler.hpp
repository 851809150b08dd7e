#pragma once
// Execution profiling — the RADICAL-analytics role: per-task timestamps
// (submit / start / end), queue-wait statistics, a concurrency timeline and
// utilization/overhead summaries. The paper's Fig. 7 and its overhead-
// invariance claim are exactly the kind of analysis these records support.
//
// Since the obs:: redesign this is a VIEW over span traces, not a separate
// recording channel: backends emit one obs::cat::kTask span per task and
// SessionProfile::from_trace() reconstructs the per-task records from a
// flushed obs::Trace. To profile a run, attach a recorder to the backend
// (ExecutionBackend::set_recorder, which also puts the recorder on the
// backend clock), run, detach, and read
// SessionProfile::from_trace(rec.snapshot()).

#include <iosfwd>
#include <string>
#include <vector>

namespace impeccable::obs {
struct Trace;
}  // namespace impeccable::obs

namespace impeccable::rct {

struct TaskRecord {
  std::string name;
  double submit_time = 0.0;
  double start_time = 0.0;
  double end_time = 0.0;
  bool ok = true;
  int cpus = 0;
  int gpus = 0;
  int whole_nodes = 0;    ///< whole-node request (exclusive MD-style tasks)
  std::string error;      ///< failure reason, e.g. "pilot walltime"

  double queue_wait() const { return start_time - submit_time; }
  double runtime() const { return end_time - start_time; }
};

struct SessionProfile {
  std::vector<TaskRecord> tasks;

  /// Rebuild per-task records from the cat::kTask spans of a flushed trace.
  /// Whole-node tasks that requested no explicit GPUs report the node's GPU
  /// complement (6/node, Summit) so utilization math keeps working.
  static SessionProfile from_trace(const obs::Trace& trace);

  /// Dump one row per task (name, submit, start, end, wait, runtime, ok,
  /// resources, error) for external plotting — the RADICAL-analytics export.
  void write_csv(const std::string& path) const;

  /// Machine-readable summary + per-task rows as one JSON object.
  void to_json(std::ostream& os) const;

  double makespan() const;
  double mean_queue_wait() const;
  double total_task_runtime() const;
  /// Peak number of concurrently executing tasks.
  int peak_concurrency() const;
  /// Concurrency sampled at `buckets` uniform instants across the makespan.
  std::vector<int> concurrency_timeline(int buckets) const;
  /// Fraction of the makespan during which nothing executed (the "light
  /// vertical areas" of Fig. 7).
  double idle_fraction() const;
};

}  // namespace impeccable::rct
