#include "impeccable/common/thread_pool.hpp"

#include <algorithm>
#include <stdexcept>

#include "impeccable/common/obs_hooks.hpp"

namespace impeccable::common {

namespace {

/// Identifies the pool (and worker slot) the current thread belongs to, so
/// submit() from inside a task lands on the local deque.
struct TlsSlot {
  ThreadPool* pool = nullptr;
  std::size_t id = 0;
};
thread_local TlsSlot tls_slot;

// Job-bracket hooks (see obs_hooks.hpp). Written once at observability
// setup, read per job with acquire so a worker that sees begin also sees
// the matching end.
std::atomic<JobHookBegin> g_job_begin{nullptr};
std::atomic<JobHookEnd> g_job_end{nullptr};

std::atomic<ThreadPool*> g_compute_pool{nullptr};

}  // namespace

void set_pool_job_hooks(JobHookBegin begin, JobHookEnd end) {
  g_job_end.store(end, std::memory_order_release);
  g_job_begin.store(begin, std::memory_order_release);
}

ThreadPool* set_compute_pool(ThreadPool* pool) {
  return g_compute_pool.exchange(pool);
}

ThreadPool* compute_pool() { return g_compute_pool.load(); }

ThreadPool::ThreadPool(std::size_t threads) {
  if (threads == 0)
    threads = std::max<std::size_t>(1, std::thread::hardware_concurrency());
  queues_.reserve(threads);
  for (std::size_t i = 0; i < threads; ++i)
    queues_.push_back(std::make_unique<Worker>());
  workers_.reserve(threads);
  for (std::size_t i = 0; i < threads; ++i)
    workers_.emplace_back([this, i] { worker_loop(i); });
}

ThreadPool::~ThreadPool() { shutdown(); }

void ThreadPool::shutdown() {
  bool expected = false;
  if (!stopping_.compare_exchange_strong(expected, true)) return;
  {
    std::lock_guard lk(sleep_mu_);
  }
  sleep_cv_.notify_all();
  for (auto& w : workers_)
    if (w.joinable()) w.join();
}

void ThreadPool::enqueue(std::function<void()> job) {
  if (!try_enqueue(std::move(job)))
    throw std::runtime_error("ThreadPool: submit after stop");
}

bool ThreadPool::try_enqueue(std::function<void()> job) {
  if (stopping_.load()) return false;
  unfinished_.fetch_add(1);
  if (tls_slot.pool == this) {
    Worker& self = *queues_[tls_slot.id];
    std::lock_guard lk(self.mu);
    self.jobs.push_back(std::move(job));
  } else {
    std::lock_guard lk(global_mu_);
    global_.push_back(std::move(job));
  }
  wake_one();
  return true;
}

void ThreadPool::wake_one() {
  if (sleepers_.load() > 0) {
    std::lock_guard lk(sleep_mu_);
    sleep_cv_.notify_one();
  }
}

void ThreadPool::finish_one() {
  if (unfinished_.fetch_sub(1) == 1) {
    std::lock_guard lk(idle_mu_);
    idle_cv_.notify_all();
  }
}

bool ThreadPool::take_any(std::size_t id, std::function<void()>& out,
                          bool* stole) {
  *stole = false;
  // 1. Own deque, back first (LIFO — most recently pushed, cache-hot).
  {
    Worker& self = *queues_[id];
    std::lock_guard lk(self.mu);
    if (!self.jobs.empty()) {
      out = std::move(self.jobs.back());
      self.jobs.pop_back();
      return true;
    }
  }
  // 2. Global overflow queue, front (FIFO).
  {
    std::lock_guard lk(global_mu_);
    if (!global_.empty()) {
      out = std::move(global_.front());
      global_.pop_front();
      return true;
    }
  }
  // 3. Steal from a victim's front (FIFO — oldest, coarsest work).
  const std::size_t n = queues_.size();
  for (std::size_t k = 1; k < n; ++k) {
    Worker& victim = *queues_[(id + k) % n];
    std::lock_guard lk(victim.mu);
    if (!victim.jobs.empty()) {
      out = std::move(victim.jobs.front());
      victim.jobs.pop_front();
      *stole = true;
      return true;
    }
  }
  return false;
}

bool ThreadPool::has_work() {
  {
    std::lock_guard lk(global_mu_);
    if (!global_.empty()) return true;
  }
  for (auto& q : queues_) {
    std::lock_guard lk(q->mu);
    if (!q->jobs.empty()) return true;
  }
  return false;
}

void ThreadPool::worker_loop(std::size_t id) {
  tls_slot = {this, id};
  Worker& self = *queues_[id];
  for (;;) {
    std::function<void()> job;
    bool stole = false;
    if (take_any(id, job, &stole)) {
      self.executed.fetch_add(1, std::memory_order_relaxed);
      if (stole) self.stolen.fetch_add(1, std::memory_order_relaxed);
      if (JobHookBegin begin = g_job_begin.load(std::memory_order_acquire)) {
        void* cookie = begin(stole);
        job();
        if (JobHookEnd end = g_job_end.load(std::memory_order_acquire))
          end(cookie);
      } else {
        job();
      }
      job = nullptr;  // release captures before finish_one wakes wait_idle
      finish_one();
      continue;
    }
    std::unique_lock lk(sleep_mu_);
    sleepers_.fetch_add(1);
    // Recheck under sleep_mu_: pairs with try_enqueue's push-then-load so a
    // job published after our failed take_any cannot be missed.
    if (has_work()) {
      sleepers_.fetch_sub(1);
      continue;
    }
    if (stopping_.load()) {
      sleepers_.fetch_sub(1);
      return;  // stopping and fully drained
    }
    self.parked.fetch_add(1, std::memory_order_relaxed);
    sleep_cv_.wait(lk);
    sleepers_.fetch_sub(1);
  }
}

void ThreadPool::wait_idle() {
  std::unique_lock lk(idle_mu_);
  idle_cv_.wait(lk, [this] { return unfinished_.load() == 0; });
}

std::vector<ThreadPool::WorkerCounters> ThreadPool::worker_counters() const {
  std::vector<WorkerCounters> out;
  out.reserve(queues_.size());
  for (const auto& q : queues_)
    out.push_back({q->executed.load(std::memory_order_relaxed),
                   q->stolen.load(std::memory_order_relaxed),
                   q->parked.load(std::memory_order_relaxed)});
  return out;
}

std::size_t ThreadPool::default_grain(std::size_t n) const {
  // Aim for ~8 chunks per worker: enough slack for stealing to balance load,
  // few enough that the per-chunk dispenser cost stays negligible.
  return std::max<std::size_t>(1, n / (8 * std::max<std::size_t>(1, size())));
}

void ThreadPool::drain_pfor(detail::PforState& st) {
  for (;;) {
    const std::size_t lo = st.next.fetch_add(st.grain);
    if (lo >= st.end) break;
    const std::size_t hi = std::min(st.end, lo + st.grain);
    std::size_t fail_at = lo;
    std::exception_ptr err;
    try {
      st.run_range(st.ctx, lo, hi, &fail_at);
    } catch (...) {
      err = std::current_exception();
    }
    if (err) {
      std::lock_guard lk(st.mu);
      if (fail_at < st.first_error_index) {
        st.first_error_index = fail_at;
        st.first_error = std::move(err);
      }
      // Drop this thread's reference under the lock, before completion is
      // signalled: the caller must be the exception's last owner, ordered
      // through `mu` rather than only through the exception's refcount.
      err = nullptr;
    }
    if (st.chunks_done.fetch_add(1) + 1 == st.chunks_total) {
      std::lock_guard lk(st.mu);
      st.cv.notify_all();
    }
  }
}

void ThreadPool::run_pfor(const std::shared_ptr<detail::PforState>& st) {
  // Helper tickets: bounded by worker count, not chunk count. Each ticket
  // drains the shared dispenser; tickets that run after completion observe
  // an exhausted dispenser and return without touching the (dead) body.
  const std::size_t tickets = std::min(size(), st->chunks_total - 1);
  for (std::size_t t = 0; t < tickets; ++t) {
    if (!try_enqueue([st] { drain_pfor(*st); })) break;  // pool stopping
  }
  drain_pfor(*st);
  std::exception_ptr err;
  {
    std::unique_lock lk(st->mu);
    st->cv.wait(lk, [&] {
      return st->chunks_done.load() == st->chunks_total;
    });
    // Take the error out of the shared state: helper tickets that outlive
    // this call still hold the state and must not release the exception.
    err = std::move(st->first_error);
  }
  if (err) std::rethrow_exception(err);
}

}  // namespace impeccable::common
