#include "impeccable/rct/raptor.hpp"

#include <algorithm>
#include <cmath>
#include <ostream>
#include <stdexcept>

#include "impeccable/hpc/machine.hpp"
#include "impeccable/obs/json.hpp"

namespace impeccable::rct {

void RaptorStats::to_json(std::ostream& os) const {
  obs::json::Writer w(os);
  w.begin_object();
  w.kv("tasks", static_cast<std::uint64_t>(tasks));
  w.kv("makespan", makespan);
  w.kv("throughput_per_hour", throughput_per_hour);
  w.kv("worker_utilization", worker_utilization);
  w.kv("load_imbalance", load_imbalance);
  w.kv("workers", static_cast<std::uint64_t>(worker_busy.size()));
  w.kv("workers_failed", workers_failed);
  w.kv("bulks_requeued", static_cast<std::uint64_t>(bulks_requeued));
  w.end_object();
}

void RaptorStats::finalize_derived() {
  throughput_per_hour =
      makespan > 0 ? static_cast<double>(tasks) / makespan * 3600.0 : 0.0;
  double total_busy = 0.0, max_busy = 0.0;
  for (double b : worker_busy) {
    total_busy += b;
    max_busy = std::max(max_busy, b);
  }
  const double denom = makespan * static_cast<double>(worker_busy.size());
  worker_utilization = denom > 0 ? total_busy / denom : 0.0;
  const double mean_busy =
      worker_busy.empty() ? 0.0
                          : total_busy / static_cast<double>(worker_busy.size());
  load_imbalance = mean_busy > 0 ? max_busy / mean_busy : 0.0;
}

// ------------------------------------------------------------- RaptorBackend

RaptorBackend::RaptorBackend(ExecutionBackend& inner, const RaptorOptions& opts)
    : inner_(inner), opts_(opts), failure_rng_(opts.failure_seed) {
  if (opts_.masters < 1 || opts_.workers < 1)
    throw std::invalid_argument("RaptorBackend: need at least one master/worker");
  if (opts_.workers < opts_.masters)
    throw std::invalid_argument("RaptorBackend: fewer workers than masters");
  if (opts_.bulk_size < 1)
    throw std::invalid_argument("RaptorBackend: bulk_size must be >= 1");
  master_busy_until_.assign(static_cast<std::size_t>(opts_.masters), 0.0);
  lane_busy_.assign(static_cast<std::size_t>(opts_.workers), 0.0);
  for (int lane = 0; lane < opts_.workers; ++lane) lane_free_at_.push({0.0, lane});
  recorder_ = inner_.recorder();
}

void RaptorBackend::submit(TaskDescription task, CompletionCallback on_complete) {
  if (!task.name.starts_with("dock")) {
    inner_.submit(std::move(task), std::move(on_complete));
    return;
  }
  bool need_flush = false;
  {
    std::lock_guard lock(mu_);
    Request req;
    req.task = std::move(task);
    req.done = std::move(on_complete);
    buffer_.push_back(std::move(req));
    need_flush = !flush_scheduled_;
    flush_scheduled_ = true;
  }
  // One zero-delay flush event coalesces every same-instant submission
  // (a whole S1 wave, possibly across targets) into consecutive bulks.
  if (need_flush) inner_.after(0.0, [this] { flush(); });
}

void RaptorBackend::flush() {
  std::vector<std::shared_ptr<Bulk>> formed;
  {
    std::lock_guard lock(mu_);
    flush_scheduled_ = false;
    const std::size_t size = static_cast<std::size_t>(opts_.bulk_size);
    for (std::size_t at = 0; at < buffer_.size(); at += size) {
      auto bulk = std::make_shared<Bulk>();
      bulk->id = bulk_counter_++;
      const std::size_t end = std::min(buffer_.size(), at + size);
      for (std::size_t i = at; i < end; ++i) {
        bulk->work += buffer_[i].task.duration;
        bulk->priority = std::max(bulk->priority, buffer_[i].task.priority);
        bulk->members.push_back(std::move(buffer_[i]));
      }
      formed.push_back(std::move(bulk));
    }
    buffer_.clear();
  }
  for (auto& bulk : formed) launch(std::move(bulk));
}

void RaptorBackend::launch(std::shared_ptr<Bulk> bulk) {
  {
    std::lock_guard lock(mu_);
    if (in_flight_ >= opts_.workers * kRaptorPrefetch) {
      held_.push_back(std::move(bulk));
      return;
    }
    ++in_flight_;
  }
  dispatch(std::move(bulk));
}

void RaptorBackend::dispatch(std::shared_ptr<Bulk> bulk) {
  double delay = 0.0;
  {
    std::lock_guard lock(mu_);
    const double service =
        opts_.bulk_overhead +
        kRaptorPerRequestOverhead * static_cast<double>(bulk->members.size());
    const std::size_t m = static_cast<std::size_t>(
        bulk->id % static_cast<std::uint64_t>(opts_.masters));
    const double now_s = inner_.now();
    // The master serializes its dispatches: service starts when it frees up.
    const double done_at = std::max(master_busy_until_[m], now_s) + service;
    master_busy_until_[m] = done_at;
    delay = done_at - now_s;
    // Least-loaded lane: the one whose modeled work runs out soonest.
    auto [free_at, lane] = lane_free_at_.top();
    lane_free_at_.pop();
    lane_free_at_.push({std::max(free_at, done_at) + bulk->work, lane});
    bulk->lane = lane;
    bulk->dispatched = done_at;
    if (first_dispatch_ < 0.0) first_dispatch_ = done_at;
  }
  inner_.after(delay, [this, bulk = std::move(bulk)] { submit_bulk(bulk); });
}

void RaptorBackend::submit_bulk(const std::shared_ptr<Bulk>& bulk) {
  TaskDescription task;
  task.name = "raptor-bulk-" + std::to_string(bulk->id);
  task.cpus = 1;  // one overlay worker = one GPU-holding executor
  task.gpus = 1;
  task.duration = bulk->work;
  task.priority = bulk->priority;
  task.payload = [bulk] {
    // The worker executes the bulk's requests back to back; one member
    // throwing fails that member only, not the bulk.
    for (Request& r : bulk->members) {
      r.ok = true;
      r.error.clear();
      if (!r.task.payload) continue;
      try {
        r.task.payload();
      } catch (const std::exception& e) {
        r.ok = false;
        r.error = e.what();
      }
    }
  };
  inner_.submit(std::move(task), [this, bulk](const TaskResult& result) {
    on_bulk_done(bulk, result);
  });
}

void RaptorBackend::on_bulk_done(std::shared_ptr<Bulk> bulk,
                                 const TaskResult& result) {
  if (result.ok && opts_.worker_failure_rate > 0.0) {
    bool dies = false;
    {
      std::lock_guard lock(mu_);
      dies = failure_rng_.bernoulli(opts_.worker_failure_rate);
      if (dies) {
        // The modeled worker died halfway through: charge the lost half and
        // re-execute the whole bulk (results of a dead executor are lost).
        ++workers_failed_;
        ++bulks_requeued_;
        lane_busy_[static_cast<std::size_t>(bulk->lane)] += 0.5 * bulk->work;
      }
    }
    if (dies) {
      if (obs::Recorder* rec = recorder())
        rec->metrics().counter("raptor.requeued").add(1);
      dispatch(std::move(bulk));  // keeps its prefetch-window slot
      return;
    }
  }

  std::shared_ptr<Bulk> next;
  {
    std::lock_guard lock(mu_);
    if (result.ok) {
      lane_busy_[static_cast<std::size_t>(bulk->lane)] += bulk->work;
      for (const Request& r : bulk->members) requests_done_ += r.ok ? 1 : 0;
    }
    last_completion_ = std::max(last_completion_, result.end_time);
    --in_flight_;
    if (!held_.empty()) {
      next = std::move(held_.front());
      held_.pop_front();
      ++in_flight_;
    }
  }

  if (obs::Recorder* rec = recorder()) {
    obs::SpanRecord span;
    span.category = obs::cat::kRaptor;
    span.name = "raptor-bulk";
    span.start = bulk->dispatched;
    span.end = result.end_time;
    span.arg("requests", static_cast<double>(bulk->members.size()));
    span.arg("work", bulk->work);
    span.arg("lane", static_cast<double>(bulk->lane));
    span.arg("priority", bulk->priority);
    rec->emit(std::move(span));
    rec->metrics().counter("raptor.bulks").add(1);
    rec->metrics().counter("raptor.requests").add(bulk->members.size());
  }

  // Fan the aggregate result back out: AppManager sees per-member results
  // and its retry logic resubmits failures, which then re-enter bulking.
  for (Request& r : bulk->members) {
    TaskResult member;
    member.name = r.task.name;
    member.ok = result.ok && r.ok;
    member.error = result.ok ? r.error : result.error;
    member.start_time = result.start_time;
    member.end_time = result.end_time;
    r.done(member);
  }

  if (next) dispatch(std::move(next));
}

void RaptorBackend::after(double delay, std::function<void()> fn) {
  inner_.after(delay, std::move(fn));
}

void RaptorBackend::drain() { inner_.drain(); }

double RaptorBackend::now() { return inner_.now(); }

common::ThreadPool* RaptorBackend::compute_pool() {
  return inner_.compute_pool();
}

void RaptorBackend::set_recorder(obs::Recorder* rec) {
  recorder_ = rec;
  inner_.set_recorder(rec);
}

RaptorStats RaptorBackend::stats() const {
  std::lock_guard lock(mu_);
  RaptorStats s;
  s.tasks = requests_done_;
  s.makespan = first_dispatch_ >= 0.0 ? last_completion_ - first_dispatch_ : 0.0;
  s.worker_busy = lane_busy_;
  s.workers_failed = workers_failed_;
  s.bulks_requeued = bulks_requeued_;
  s.finalize_derived();
  return s;
}

// ---------------------------------------------------------------- run_raptor

RaptorStats run_raptor(const RaptorOptions& opts,
                       const std::vector<double>& durations) {
  hpc::MachineSpec machine;
  machine.name = "raptor-workers";
  machine.nodes = std::max(opts.workers, 1);  // RaptorBackend rejects < 1
  machine.gpus_per_node = 1;
  machine.cores_per_node = 1;
  SimBackend sim(machine, {.task_overhead = 0.0});
  RaptorBackend raptor(sim, opts);

  // Each member completion submits the next request inside the same event,
  // so the requests refilling a finished bulk coalesce into one new bulk.
  std::size_t next = 0;
  std::function<void()> feed = [&] {
    if (next >= durations.size()) return;
    TaskDescription task;
    task.name = "dock";
    task.duration = durations[next++];
    raptor.submit(std::move(task), [&feed](const TaskResult&) { feed(); });
  };
  const std::size_t window = static_cast<std::size_t>(opts.workers) *
                             kRaptorPrefetch *
                             static_cast<std::size_t>(opts.bulk_size);
  for (std::size_t i = 0; i < std::min(window, durations.size()); ++i) feed();
  raptor.drain();
  return raptor.stats();
}

std::vector<double> docking_durations(std::size_t count, double mean_seconds,
                                      std::uint64_t seed) {
  common::Rng rng(seed);
  std::vector<double> out;
  out.reserve(count);
  // Log-normal with sigma=0.6 around the mean, plus a 2% long tail of
  // 5-15x ligands (highly flexible compounds).
  const double sigma = 0.6;
  const double mu = std::log(mean_seconds) - 0.5 * sigma * sigma;
  for (std::size_t i = 0; i < count; ++i) {
    double d = std::exp(rng.gauss(mu, sigma));
    if (rng.bernoulli(0.02)) d *= rng.uniform(5.0, 15.0);
    out.push_back(d);
  }
  return out;
}

}  // namespace impeccable::rct
