#pragma once
// serve::InferenceServer — screening as a service.
//
// The paper runs ML1 as a campaign stage: score a chunk, move on. At the
// "millions of users" scale the surrogate is better run as a long-lived
// service (Clyde et al., arXiv 2106.07036): callers submit single ligands
// and the server amortizes them into model-sized batches. This is that
// front-end, in-process:
//
//  * Dynamic micro-batching. Per target, a worker coalesces queued
//    requests and flushes when either the adaptive batch target fills or
//    the oldest request has waited `deadline_us`, and at once when the
//    observed arrival rate (EWMA of submission gaps) cannot fill the
//    target before that deadline — so light load pays no batching wait
//    and heavy load runs at full batch efficiency. The batch target tracks
//    observed per-image model latency (EWMA) so half of the deadline is
//    spent computing.
//
//  * Sharded score cache. Requests carry a 128-bit content key; hits are
//    served from serve::ShardedScoreCache without touching the model, and
//    duplicate keys inside one batch run the model once. Served floats are
//    bitwise identical to a direct predict_batch.
//
//  * Admission control. Each target's queue has a capacity watermark.
//    kBlock applies backpressure (submit blocks until space: closed-loop
//    callers self-clock), kShed fails fast with Status::kShed so open-loop
//    overload keeps a bounded p99 instead of an unbounded queue.
//
//  * Per-target model registry. Each registered target id owns one
//    SurrogateModel, one cache, one queue and one worker thread; batching
//    never mixes targets.
//
// Clocking: all timing uses a steady monotonic clock relative to server
// construction (now(), seconds) — never the wall clock. Batches emit
// obs::Span(cat::kServe) records and per-batch histograms into the global
// recorder when one is installed; publish_metrics() snapshots counters
// into any obs::MetricsRegistry.

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <chrono>
#include <deque>
#include <future>
#include <map>
#include <memory>
#include <mutex>
#include <shared_mutex>
#include <string>
#include <string_view>
#include <thread>
#include <vector>

#include "impeccable/common/lockdep.hpp"
#include "impeccable/ml/surrogate.hpp"
#include "impeccable/serve/score_cache.hpp"

namespace impeccable::obs {
class MetricsRegistry;
}  // namespace impeccable::obs

namespace impeccable::serve {

enum class AdmissionPolicy {
  kBlock,  ///< submit() waits for queue space (caller backpressure)
  kShed,   ///< submit() fails fast with Status::kShed above the watermark
};

struct ServeOptions {
  int max_batch = 64;  ///< hard cap on requests per model forward
  int min_batch = 1;   ///< adaptive floor
  /// Latency budget: a queued request is flushed no later than this many
  /// microseconds after the oldest request in its batch was enqueued.
  double deadline_us = 2000.0;
  /// Admission watermark: queued (not yet flushed) requests per target.
  std::size_t queue_capacity = 1024;
  AdmissionPolicy admission = AdmissionPolicy::kBlock;
  CacheOptions cache;  ///< capacity 0 disables the score cache
};

enum class Status {
  kOk,
  kShed,  ///< rejected by admission control (or server shutdown/unregister)
};

struct Response {
  float score = 0.0f;
  Status status = Status::kOk;
  /// Server clock (now(), seconds) when the score was produced. Open-loop
  /// clients compute latency as done_time - scheduled send time without a
  /// per-request waiter thread.
  double done_time = 0.0;
};

struct Request {
  CacheKey key;       ///< content digest (see serve::key_of)
  chem::Image image;  ///< CNN input, SurrogateOptions-shaped
};

/// Per-target service counters (monotonic since registration).
struct TargetStats {
  std::uint64_t submitted = 0;
  std::uint64_t completed = 0;  ///< scored OK (cache or model)
  std::uint64_t shed = 0;
  std::uint64_t batches = 0;       ///< model flushes (cache-only included)
  std::uint64_t model_images = 0;  ///< images actually run through the CNN
  CacheStats cache;
  std::size_t queue_depth = 0;  ///< at snapshot time
  int flush_threshold = 0;      ///< current adaptive batch target
  double ewma_image_us = 0.0;   ///< smoothed per-image model latency
};

class InferenceServer {
 public:
  explicit InferenceServer(const ServeOptions& opts = {});
  ~InferenceServer();
  InferenceServer(const InferenceServer&) = delete;
  InferenceServer& operator=(const InferenceServer&) = delete;

  /// Register `id` and start its worker. Takes ownership of the model
  /// (must be trained/loaded already; the server never calls train()).
  /// Throws std::invalid_argument on a duplicate id or null model.
  void register_target(const std::string& id,
                       std::unique_ptr<ml::SurrogateModel> model);
  std::vector<std::string> targets() const;

  /// Queue one ligand for `target`. The future resolves with its score (or
  /// Status::kShed under kShed admission when the queue is above the
  /// watermark). Under kBlock this call blocks while the queue is full.
  /// Throws std::out_of_range for an unknown target.
  std::future<Response> submit(const std::string& target, Request req);

  /// Synchronous convenience: submit + wait; throws std::runtime_error if
  /// the request was shed.
  float score(const std::string& target, Request req);

  /// Stop draining queues (admission control stays live, so paused servers
  /// make watermark behavior deterministic — used by tests and drains).
  void pause();
  void resume();

  /// Seconds since server construction on a steady monotonic clock.
  double now() const;

  const ServeOptions& options() const { return opts_; }
  TargetStats stats(const std::string& target) const;

  /// Snapshot counters into gauges "<prefix>.<target>.submitted" etc.
  /// (gauges so repeated publishes overwrite instead of double-counting,
  /// matching ThreadPool::publish_metrics).
  void publish_metrics(obs::MetricsRegistry& metrics,
                       std::string_view prefix = "serve") const;

  /// Stop workers; queued-but-unflushed requests resolve as Status::kShed.
  /// Idempotent; the destructor calls it.
  void shutdown();

 private:
  struct Pending {
    Request req;
    std::promise<Response> promise;
    std::chrono::steady_clock::time_point enqueued;
  };

  struct Target {
    std::string id;
    std::unique_ptr<ml::SurrogateModel> model;
    ShardedScoreCache cache;

    mutable common::OrderedMutex<common::lockrank::ServeTarget>
        mu;  ///< guards queue, stats fields, and the cvs below
    std::condition_variable_any cv;        ///< worker wakeup
    std::condition_variable_any space_cv;  ///< blocked submitters (kBlock)
    std::deque<Pending> queue;
    std::thread worker;

    // Guarded by mu (worker updates between flushes, stats() reads).
    std::uint64_t submitted = 0, completed = 0, shed = 0;
    std::uint64_t batches = 0, model_images = 0;
    int flush_threshold = 1;
    double ewma_image_us = 0.0;
    /// Smoothed gap between submissions (0 until two have arrived) and
    /// the time of the last one: the worker's estimate of how soon a
    /// partial batch would fill.
    double ewma_gap_us = 0.0;
    std::chrono::steady_clock::time_point last_enqueued{};
  };

  /// Outcome of scoring one drained batch. Promises are fulfilled by the
  /// worker only after the target's counters absorbed the batch, so a
  /// caller that observed its future resolve also observes stats() that
  /// include its request.
  struct BatchResult {
    std::vector<Response> responses;  ///< parallel to the batch
    std::size_t model_images = 0;     ///< images actually run through the CNN
    double model_seconds = 0.0;
    std::exception_ptr error;  ///< forward failure: fail the whole flush
  };

  void worker_loop(Target& t);
  /// Score one drained batch (cache pass, deduped model pass).
  BatchResult process_batch(Target& t, std::vector<Pending>& batch);

  ServeOptions opts_;
  std::chrono::steady_clock::time_point epoch_;
  std::atomic<bool> stopping_{false};
  std::atomic<bool> paused_{false};

  mutable common::OrderedSharedMutex<common::lockrank::ServeRegistry>
      registry_mu_;  ///< guards targets_ map shape
  std::map<std::string, std::unique_ptr<Target>, std::less<>> targets_;
};

}  // namespace impeccable::serve
