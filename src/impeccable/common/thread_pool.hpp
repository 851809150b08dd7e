#pragma once
// Work-stealing worker pool + grain-aware parallel_for.
//
// This is the "real compute" execution substrate: ensemble MD replicas,
// GA docking runs, GEMM row panels and NN training batches run as pool jobs,
// mirroring the node-level OpenMP/thread parallelism the paper's engines use
// on Summit. Library kernels never take a pool argument: they fan out through
// common::parallel_for(begin, end, body) over the one installed compute pool
// (ComputePoolScope), and the runtime decides which pool that is.
//
// Architecture (execution engine v2):
//  * one deque per worker (LIFO for the owner — cache-hot, depth-first) plus
//    a global overflow queue for external submitters;
//  * idle workers steal from the FRONT of victim deques (FIFO — oldest,
//    largest-granularity work first) and park on a condvar when the whole
//    pool is empty;
//  * parallel_for is templated on the body (no std::function funneling) and
//    chunk-granular: callers pick a `grain`, workers grab chunks from an
//    atomic dispenser, and the calling thread participates, which makes
//    nested parallel_for from inside a pool task deadlock-free.
//
// Determinism contract: parallel_for(begin, end, body) invokes body(i)
// exactly once per index, regardless of pool size or stealing order. Callers
// that write only to disjoint, index-addressed slots therefore produce
// bit-identical results with 1 or N threads. Exceptions are deterministic
// too: there is no cross-chunk cancellation — every chunk runs, in order, up
// to its own first failing iteration — and the exception thrown from the
// LOWEST failing index overall is the one propagated.

#include <atomic>
#include <condition_variable>
#include <cstddef>
#include <cstdint>
#include <deque>
#include <functional>
#include <future>
#include <memory>
#include <mutex>
#include <thread>
#include <vector>

#include "impeccable/common/lockdep.hpp"

namespace impeccable::common {

namespace detail {

/// Shared control block of one parallel_for: an atomic chunk dispenser plus
/// completion tracking. Heap-allocated (shared_ptr) so helper tickets that
/// run after the loop finished can still observe the drained dispenser.
struct PforState {
  std::atomic<std::size_t> next{0};      ///< next chunk start index
  std::size_t end = 0;
  std::size_t grain = 1;
  std::size_t chunks_total = 0;
  /// Type-erased chunk runner; `fail_at` receives the index being executed
  /// so the catch site knows which iteration threw.
  void (*run_range)(void* ctx, std::size_t lo, std::size_t hi,
                    std::size_t* fail_at) = nullptr;
  void* ctx = nullptr;  ///< the body; only dereferenced while chunks remain

  std::atomic<std::size_t> chunks_done{0};
  common::OrderedMutex<common::lockrank::PoolPfor>
      mu;  ///< guards the exception slot and the completion condvar
  std::condition_variable_any cv;
  std::exception_ptr first_error;
  std::size_t first_error_index = ~std::size_t{0};
};

template <typename Body>
void run_range_thunk(void* ctx, std::size_t lo, std::size_t hi,
                     std::size_t* fail_at) {
  Body& body = *static_cast<Body*>(ctx);
  for (std::size_t i = lo; i < hi; ++i) {
    *fail_at = i;
    body(i);
  }
}

}  // namespace detail

class ThreadPool {
 public:
  /// threads == 0 selects hardware_concurrency() (at least 1).
  explicit ThreadPool(std::size_t threads = 0);
  ~ThreadPool();

  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  std::size_t size() const { return workers_.size(); }

  /// Enqueue a job; the returned future reports its value or exception.
  /// Submissions from inside a pool worker go to that worker's own deque
  /// (LIFO); external submissions go to the global overflow queue.
  template <typename F>
  auto submit(F&& f) -> std::future<std::invoke_result_t<F>> {
    using R = std::invoke_result_t<F>;
    auto task = std::make_shared<std::packaged_task<R()>>(std::forward<F>(f));
    std::future<R> fut = task->get_future();
    enqueue([task] { (*task)(); });
    return fut;
  }

  /// Block until every queued and running job has finished.
  void wait_idle();

  /// Per-worker observability counters (owner-thread writes, relaxed reads):
  /// jobs executed, jobs taken from a victim's deque, and condvar parks.
  struct WorkerCounters {
    std::uint64_t executed = 0;
    std::uint64_t stolen = 0;
    std::uint64_t parked = 0;
  };
  std::vector<WorkerCounters> worker_counters() const;

  /// Stop accepting new jobs, drain what is queued, and join the workers.
  /// Idempotent; the destructor calls it. submit() afterwards throws.
  void shutdown();

  /// Run body(i) for i in [begin, end), blocking until done. Work is handed
  /// out in chunks of `grain` indices (0 = pick automatically, ~8 chunks per
  /// worker); the caller participates, so nesting from inside a pool task is
  /// safe. The first exception (lowest iteration index) propagates.
  template <typename Body>
  void parallel_for(std::size_t begin, std::size_t end, Body&& body,
                    std::size_t grain = 0) {
    if (begin >= end) return;
    const std::size_t n = end - begin;
    if (grain == 0) grain = default_grain(n);
    using B = std::remove_reference_t<Body>;
    if (size() <= 1 || n <= grain) {
      // Serial fast path — same chunk runner, same iteration order.
      std::size_t fail_at = begin;
      detail::run_range_thunk<B>(const_cast<void*>(static_cast<const void*>(
                                     std::addressof(body))),
                                 begin, end, &fail_at);
      return;
    }
    auto st = std::make_shared<detail::PforState>();
    st->next.store(begin);
    st->end = end;
    st->grain = grain;
    st->chunks_total = (n + grain - 1) / grain;
    st->ctx = const_cast<void*>(static_cast<const void*>(std::addressof(body)));
    st->run_range = &detail::run_range_thunk<B>;
    run_pfor(st);
  }

 private:
  struct Worker {
    OrderedMutex<lockrank::PoolWorker> mu;
    std::deque<std::function<void()>> jobs;
    std::atomic<std::uint64_t> executed{0};
    std::atomic<std::uint64_t> stolen{0};
    std::atomic<std::uint64_t> parked{0};
  };

  void enqueue(std::function<void()> job);
  bool try_enqueue(std::function<void()> job);  ///< false once stopping
  void wake_one();
  void finish_one();
  void worker_loop(std::size_t id);
  bool take_any(std::size_t id, std::function<void()>& out, bool* stole);
  bool has_work();
  std::size_t default_grain(std::size_t n) const;

  /// Dispatch helper tickets, drain the dispenser on the calling thread,
  /// wait for in-flight chunks, rethrow the recorded first error.
  void run_pfor(const std::shared_ptr<detail::PforState>& st);
  static void drain_pfor(detail::PforState& st);

  std::vector<std::unique_ptr<Worker>> queues_;
  std::vector<std::thread> workers_;

  std::deque<std::function<void()>> global_;
  OrderedMutex<lockrank::PoolGlobal> global_mu_;

  OrderedMutex<lockrank::PoolSleep> sleep_mu_;
  std::condition_variable_any sleep_cv_;
  std::atomic<int> sleepers_{0};

  std::atomic<bool> stopping_{false};

  std::atomic<std::size_t> unfinished_{0};  ///< queued + running jobs
  OrderedMutex<lockrank::PoolIdle> idle_mu_;
  std::condition_variable_any idle_cv_;
};

/// Process-wide compute pool: the one pool every library kernel fans out
/// over (see parallel_for below). Defaults to nullptr (serial). Not owned;
/// the caller keeps the pool alive while it is installed. Install it with a
/// ComputePoolScope; set_compute_pool returns the previous pool.
ThreadPool* set_compute_pool(ThreadPool* pool);
ThreadPool* compute_pool();

/// Run body(i) for i in [begin, end), one index per chunk, on the installed
/// compute pool, or serially in index order when none is installed. This is
/// the library's one fan-out: GA docking runs, ESMACS/TIES replicas,
/// DeepDriveMD simulations, per-image inference, featurization and GEMM row
/// panels all go through it, so nesting (a GEMM inside a per-image job)
/// shares one set of workers. The determinism contract is the pool's: body
/// must write only index-addressed slots.
template <typename Body>
void parallel_for(std::size_t begin, std::size_t end, Body&& body) {
  if (ThreadPool* pool = compute_pool()) {
    pool->parallel_for(begin, end, std::forward<Body>(body), 1);
    return;
  }
  for (std::size_t i = begin; i < end; ++i) body(i);
}

/// Installs `pool` (or nullptr: serial) as the compute pool for one scope and
/// restores the previous one on every exit path, exceptions included.
class ComputePoolScope {
 public:
  explicit ComputePoolScope(ThreadPool* pool)
      : prev_(set_compute_pool(pool)) {}
  ~ComputePoolScope() { set_compute_pool(prev_); }
  ComputePoolScope(const ComputePoolScope&) = delete;
  ComputePoolScope& operator=(const ComputePoolScope&) = delete;

 private:
  ThreadPool* prev_;
};

}  // namespace impeccable::common
