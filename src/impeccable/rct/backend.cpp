#include "impeccable/rct/backend.hpp"

#include <algorithm>
#include <chrono>
#include <cmath>

namespace impeccable::rct {

const char* to_string(TaskState s) {
  switch (s) {
    case TaskState::New: return "NEW";
    case TaskState::Scheduled: return "SCHEDULED";
    case TaskState::Executing: return "EXECUTING";
    case TaskState::Done: return "DONE";
    case TaskState::Failed: return "FAILED";
  }
  return "?";
}

// ---------------------------------------------------- ExecutionBackend (obs)

void ExecutionBackend::set_recorder(obs::Recorder* rec) {
  if (recorder_ && recorder_ != rec) recorder_->set_clock({});
  recorder_ = rec;
  if (rec) rec->set_clock([this] { return now(); });
}

void ExecutionBackend::record_task(const TaskResult& result,
                                   double submit_time, int cpus, int gpus,
                                   int whole_nodes) {
  if (!recorder_) return;
  obs::SpanRecord rec;
  rec.category = obs::cat::kTask;
  rec.name = result.name;
  rec.start = result.start_time;
  rec.end = result.end_time;
  rec.arg("submit", submit_time);
  rec.arg("cpus", static_cast<double>(cpus));
  rec.arg("gpus", static_cast<double>(gpus));
  rec.arg("whole_nodes", static_cast<double>(whole_nodes));
  rec.arg("ok", result.ok ? 1.0 : 0.0);
  if (!result.error.empty()) rec.arg("error", result.error);
  recorder_->emit(std::move(rec));
}

// ---------------------------------------------------------------- SimBackend

SimBackend::SimBackend(const hpc::MachineSpec& machine,
                       const SimBackendOptions& opts)
    : cluster_(sim_, machine), opts_(opts) {}

void SimBackend::submit(TaskDescription task, CompletionCallback on_complete) {
  hpc::SlotRequest req{task.cpus, task.gpus, task.whole_nodes, task.priority};
  const double submitted = sim_.now();
  auto shared = std::make_shared<TaskDescription>(std::move(task));
  auto cb = std::make_shared<CompletionCallback>(std::move(on_complete));
  cluster_.submit(req, [this, req, submitted, shared,
                        cb](const hpc::Placement& where) {
    auto run = std::make_shared<Running>();
    run->request = req;
    run->placement = where;
    run->callback = cb;
    run->submit_time = submitted;
    run->result.name = shared->name;
    run->result.start_time = sim_.now();
    if (shared->payload) {
      try {
        shared->payload();
      } catch (const std::exception& e) {
        run->result.ok = false;
        run->result.error = e.what();
      }
    }
    // Only a walltime boundary needs the running set; without one, keeping
    // it would cost an O(running) erase per completion.
    if (opts_.pilot_walltime > 0.0) {
      running_.push_back(run);
      ensure_walltime_event();
    }

    const double runtime = opts_.task_overhead + shared->duration;
    sim_.schedule_in(runtime, [this, run] {
      if (run->finished) return;  // killed by a walltime boundary
      run->finished = true;
      run->result.end_time = sim_.now();
      cluster_.release(run->request, run->placement);
      if (opts_.pilot_walltime > 0.0) std::erase(running_, run);
      record_task(run->result, run->submit_time, run->request.cpus,
                  run->request.gpus, run->request.whole_nodes);
      (*run->callback)(run->result);
    });
  });
}

void SimBackend::ensure_walltime_event() {
  if (opts_.pilot_walltime <= 0.0 || walltime_scheduled_) return;
  // The next allocation boundary strictly after now.
  const double boundary =
      (std::floor(sim_.now() / opts_.pilot_walltime) + 1.0) * opts_.pilot_walltime;
  next_walltime_ = boundary;
  walltime_scheduled_ = true;
  sim_.schedule_at(boundary, [this] {
    walltime_scheduled_ = false;
    ++pilot_generation_;
    // Kill everything still running: the allocation expired.
    auto victims = running_;
    running_.clear();
    for (const auto& run : victims) {
      if (run->finished) continue;
      run->finished = true;
      run->result.ok = false;
      run->result.error = "pilot walltime";
      run->result.end_time = sim_.now();
      cluster_.release(run->request, run->placement);
      record_task(run->result, run->submit_time, run->request.cpus,
                  run->request.gpus, run->request.whole_nodes);
      (*run->callback)(run->result);
    }
    // Tasks (re)submitted by the callbacks re-arm the next boundary via
    // ensure_walltime_event().
  });
}

void SimBackend::after(double delay, std::function<void()> fn) {
  sim_.schedule_in(delay, std::move(fn));
}

void SimBackend::drain() { sim_.run(); }

// -------------------------------------------------------------- LocalBackend

LocalBackend::LocalBackend(std::size_t threads)
    : pool_(threads), epoch_(std::chrono::steady_clock::now()) {}

double LocalBackend::now() {
  return std::chrono::duration<double>(std::chrono::steady_clock::now() - epoch_)
      .count();
}

void LocalBackend::submit(TaskDescription task, CompletionCallback on_complete) {
  const double submitted = now();
  auto shared = std::make_shared<TaskDescription>(std::move(task));
  auto cb = std::make_shared<CompletionCallback>(std::move(on_complete));
  pool_.submit([this, submitted, shared, cb] {
    TaskResult result;
    result.name = shared->name;
    result.start_time = now();
    if (shared->payload) {
      try {
        shared->payload();
      } catch (const std::exception& e) {
        result.ok = false;
        result.error = e.what();
      }
    }
    result.end_time = now();
    record_task(result, submitted, shared->cpus, shared->gpus,
                shared->whole_nodes);
    (*cb)(result);
  });
}

void LocalBackend::after(double delay, std::function<void()> fn) {
  // Delays model scheduler overheads; locally they are negligible — run the
  // continuation as a pool job immediately.
  (void)delay;
  pool_.submit(std::move(fn));
}

void LocalBackend::drain() { pool_.wait_idle(); }

}  // namespace impeccable::rct
