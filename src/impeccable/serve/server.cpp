#include "impeccable/serve/server.hpp"

#include <algorithm>
#include <stdexcept>
#include <utility>

#include "impeccable/obs/metrics.hpp"
#include "impeccable/obs/recorder.hpp"

namespace impeccable::serve {

namespace {

/// Share of deadline_us the adaptive flush threshold aims to spend in the
/// model; the rest is left for queueing.
constexpr double kBatchBudgetFraction = 0.5;

std::chrono::steady_clock::duration to_duration(double microseconds) {
  return std::chrono::duration_cast<std::chrono::steady_clock::duration>(
      std::chrono::duration<double, std::micro>(std::max(0.0, microseconds)));
}

}  // namespace

InferenceServer::InferenceServer(const ServeOptions& opts)
    : opts_(opts), epoch_(std::chrono::steady_clock::now()) {
  opts_.max_batch = std::max(1, opts_.max_batch);
  opts_.min_batch = std::clamp(opts_.min_batch, 1, opts_.max_batch);
  opts_.queue_capacity = std::max<std::size_t>(1, opts_.queue_capacity);
}

InferenceServer::~InferenceServer() { shutdown(); }

double InferenceServer::now() const {
  return std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                       epoch_)
      .count();
}

void InferenceServer::register_target(
    const std::string& id, std::unique_ptr<ml::SurrogateModel> model) {
  if (!model)
    throw std::invalid_argument("InferenceServer::register_target: null model");
  if (stopping_.load())
    throw std::logic_error(
        "InferenceServer::register_target: server is shut down");
  auto target = std::make_unique<Target>();
  target->id = id;
  target->model = std::move(model);
  target->cache = ShardedScoreCache(opts_.cache);
  // Optimistic start: full batches until observed latency says otherwise
  // (the deadline bounds latency either way).
  target->flush_threshold = opts_.max_batch;

  std::unique_lock lk(registry_mu_);
  const auto [it, inserted] = targets_.try_emplace(id, std::move(target));
  if (!inserted)
    throw std::invalid_argument(
        "InferenceServer::register_target: duplicate target '" + id + "'");
  Target& t = *it->second;
  t.worker = std::thread([this, &t] { worker_loop(t); });
}

std::vector<std::string> InferenceServer::targets() const {
  std::shared_lock lk(registry_mu_);
  std::vector<std::string> out;
  out.reserve(targets_.size());
  for (const auto& [id, t] : targets_) out.push_back(id);
  return out;
}

std::future<Response> InferenceServer::submit(const std::string& target,
                                              Request req) {
  Target* t = nullptr;
  {
    std::shared_lock lk(registry_mu_);
    const auto it = targets_.find(target);
    if (it == targets_.end())
      throw std::out_of_range("InferenceServer::submit: unknown target '" +
                              target + "'");
    t = it->second.get();  // Target storage is stable under the unique_ptr
  }

  std::promise<Response> promise;
  std::future<Response> fut = promise.get_future();
  std::unique_lock lk(t->mu);
  ++t->submitted;
  auto shed_now = [&] {
    ++t->shed;
    promise.set_value({0.0f, Status::kShed, now()});
  };
  if (stopping_.load()) {
    shed_now();
    return fut;
  }
  if (t->queue.size() >= opts_.queue_capacity) {
    if (opts_.admission == AdmissionPolicy::kShed) {
      shed_now();
      return fut;
    }
    t->space_cv.wait(lk, [&] {
      return stopping_.load() || t->queue.size() < opts_.queue_capacity;
    });
    if (stopping_.load()) {
      shed_now();
      return fut;
    }
  }
  const auto enqueued = std::chrono::steady_clock::now();
  if (t->last_enqueued != std::chrono::steady_clock::time_point{}) {
    const double gap_us = std::chrono::duration<double, std::micro>(
                              enqueued - t->last_enqueued)
                              .count();
    t->ewma_gap_us = t->ewma_gap_us <= 0.0
                         ? gap_us
                         : 0.7 * t->ewma_gap_us + 0.3 * gap_us;
  }
  t->last_enqueued = enqueued;
  t->queue.push_back({std::move(req), std::move(promise), enqueued});
  lk.unlock();
  t->cv.notify_one();
  return fut;
}

float InferenceServer::score(const std::string& target, Request req) {
  const Response r = submit(target, std::move(req)).get();
  if (r.status != Status::kOk)
    throw std::runtime_error("InferenceServer::score: request shed on '" +
                             target + "'");
  return r.score;
}

void InferenceServer::pause() { paused_.store(true); }

void InferenceServer::resume() {
  paused_.store(false);
  std::shared_lock lk(registry_mu_);
  for (const auto& [id, t] : targets_) {
    // Acquire the target mutex once after the store: a worker that checked
    // its predicate before the store is guaranteed to be inside cv.wait by
    // the time we hold the lock, so the notify below cannot be lost.
    { std::lock_guard lk2(t->mu); }
    t->cv.notify_all();
  }
}

void InferenceServer::worker_loop(Target& t) {
  std::unique_lock lk(t.mu);
  for (;;) {
    t.cv.wait(lk, [&] {
      return stopping_.load() || (!paused_.load() && !t.queue.empty());
    });
    if (stopping_.load()) break;

    // Deadline-aware coalescing: sleep until the adaptive flush threshold
    // fills or the oldest queued request exhausts its latency budget — but
    // not for a batch the observed arrival rate cannot fill before then:
    // under light load that wait would buy no batching, only latency.
    const auto deadline = t.queue.front().enqueued + to_duration(opts_.deadline_us);
    const auto threshold = static_cast<std::size_t>(t.flush_threshold);
    t.cv.wait_until(lk, deadline, [&] {
      if (stopping_.load() || paused_.load() || t.queue.size() >= threshold)
        return true;
      const double missing = static_cast<double>(threshold - t.queue.size());
      return std::chrono::steady_clock::now() +
                 to_duration(missing * t.ewma_gap_us) >
             deadline;
    });
    if (stopping_.load()) break;
    if (paused_.load() || t.queue.empty()) continue;

    const std::size_t take =
        std::min(t.queue.size(), static_cast<std::size_t>(opts_.max_batch));
    std::vector<Pending> batch;
    batch.reserve(take);
    for (std::size_t i = 0; i < take; ++i) {
      batch.push_back(std::move(t.queue.front()));
      t.queue.pop_front();
    }
    if (opts_.admission == AdmissionPolicy::kBlock) t.space_cv.notify_all();
    lk.unlock();

    const BatchResult result = process_batch(t, batch);

    lk.lock();
    ++t.batches;
    if (!result.error) t.completed += batch.size();
    t.model_images += result.model_images;
    if (result.model_images > 0) {
      const double per_image_us = result.model_seconds * 1e6 /
                                  static_cast<double>(result.model_images);
      t.ewma_image_us = t.ewma_image_us <= 0.0
                            ? per_image_us
                            : 0.7 * t.ewma_image_us + 0.3 * per_image_us;
      // Size the next flush so its model time fits the deadline budget.
      const double budget_us = opts_.deadline_us * kBatchBudgetFraction;
      const double want = budget_us / std::max(t.ewma_image_us, 1e-3);
      t.flush_threshold =
          std::clamp(static_cast<int>(want), opts_.min_batch, opts_.max_batch);
    }
    lk.unlock();

    // Fulfill only after the counters absorbed the batch: a caller whose
    // future resolved can rely on stats() including its request.
    for (std::size_t i = 0; i < batch.size(); ++i) {
      if (result.error)
        batch[i].promise.set_exception(result.error);
      else
        batch[i].promise.set_value(result.responses[i]);
    }
    lk.lock();
  }
  // Shutdown: resolve whatever never flushed so no future dangles.
  while (!t.queue.empty()) {
    Pending p = std::move(t.queue.front());
    t.queue.pop_front();
    ++t.shed;
    p.promise.set_value({0.0f, Status::kShed, now()});
  }
  t.space_cv.notify_all();
}

InferenceServer::BatchResult InferenceServer::process_batch(
    Target& t, std::vector<Pending>& batch) {
  obs::Span span(obs::cat::kServe, "serve-batch", obs::global(), 0);
  span.arg("target", t.id);
  span.arg("requests", static_cast<double>(batch.size()));
  BatchResult out;
  try {
    std::vector<float> scores(batch.size(), 0.0f);
    std::vector<std::size_t> miss;  ///< batch indices the cache cannot serve
    /// key -> slot in `images`; duplicates inside one batch run once.
    std::map<CacheKey, std::size_t> unique_misses;
    std::vector<chem::Image> images;
    std::vector<std::size_t> image_slot(batch.size(), 0);
    for (std::size_t i = 0; i < batch.size(); ++i) {
      if (const auto hit = t.cache.lookup(batch[i].req.key)) {
        scores[i] = *hit;
        continue;
      }
      const auto [it, inserted] =
          unique_misses.try_emplace(batch[i].req.key, images.size());
      if (inserted) images.push_back(std::move(batch[i].req.image));
      image_slot[i] = it->second;
      miss.push_back(i);
    }

    std::vector<float> model_out;
    if (!images.empty()) {
      const auto t0 = std::chrono::steady_clock::now();
      model_out = t.model->predict_batch(images);
      out.model_seconds =
          std::chrono::duration<double>(std::chrono::steady_clock::now() - t0)
              .count();
    }
    for (const std::size_t i : miss) scores[i] = model_out[image_slot[i]];
    for (const auto& [key, slot] : unique_misses)
      t.cache.insert(key, model_out[slot]);

    const double done = now();
    out.responses.reserve(batch.size());
    for (const float s : scores) out.responses.push_back({s, Status::kOk, done});
    out.model_images = images.size();

    span.arg("model_images", static_cast<double>(images.size()));
    if (obs::Recorder* rec = obs::global()) {
      auto& m = rec->metrics();
      m.counter("serve.batches").add(1);
      m.counter("serve.requests").add(batch.size());
      m.counter("serve.model_images").add(images.size());
      m.histogram("serve.batch_requests", {1.0, 4096.0, 36})
          .observe(static_cast<double>(batch.size()));
      if (!images.empty())
        m.histogram("serve.model_us", {1.0, 1e7, 42})
            .observe(out.model_seconds * 1e6);
    }
  } catch (...) {
    // A failed forward (e.g. image/architecture shape mismatch) fails the
    // whole flush: every caller sees the error, the worker survives.
    out.error = std::current_exception();
  }
  return out;
}

TargetStats InferenceServer::stats(const std::string& target) const {
  std::shared_lock rlk(registry_mu_);
  const auto it = targets_.find(target);
  if (it == targets_.end())
    throw std::out_of_range("InferenceServer::stats: unknown target '" +
                            target + "'");
  const Target& t = *it->second;
  TargetStats out;
  std::lock_guard lk(t.mu);
  out.submitted = t.submitted;
  out.completed = t.completed;
  out.shed = t.shed;
  out.batches = t.batches;
  out.model_images = t.model_images;
  out.cache = t.cache.stats();
  out.queue_depth = t.queue.size();
  out.flush_threshold = t.flush_threshold;
  out.ewma_image_us = t.ewma_image_us;
  return out;
}

void InferenceServer::publish_metrics(obs::MetricsRegistry& metrics,
                                      std::string_view prefix) const {
  for (const std::string& id : targets()) {
    const TargetStats s = stats(id);
    const std::string base = std::string(prefix) + "." + id + ".";
    metrics.gauge(base + "submitted").set(static_cast<double>(s.submitted));
    metrics.gauge(base + "completed").set(static_cast<double>(s.completed));
    metrics.gauge(base + "shed").set(static_cast<double>(s.shed));
    metrics.gauge(base + "batches").set(static_cast<double>(s.batches));
    metrics.gauge(base + "model_images")
        .set(static_cast<double>(s.model_images));
    metrics.gauge(base + "cache_hits").set(static_cast<double>(s.cache.hits));
    metrics.gauge(base + "cache_misses")
        .set(static_cast<double>(s.cache.misses));
    metrics.gauge(base + "cache_evictions")
        .set(static_cast<double>(s.cache.evictions));
    metrics.gauge(base + "queue_depth")
        .set(static_cast<double>(s.queue_depth));
    metrics.gauge(base + "flush_threshold")
        .set(static_cast<double>(s.flush_threshold));
    metrics.gauge(base + "ewma_image_us").set(s.ewma_image_us);
  }
}

void InferenceServer::shutdown() {
  stopping_.store(true);
  std::vector<Target*> all;
  {
    std::shared_lock lk(registry_mu_);
    for (const auto& [id, t] : targets_) all.push_back(t.get());
  }
  for (Target* t : all) {
    // Acquire each target's mutex once after the store: any submitter that
    // locks it afterwards is guaranteed to observe stopping_ == true.
    { std::lock_guard lk(t->mu); }
    t->cv.notify_all();
    t->space_cv.notify_all();
  }
  for (Target* t : all)
    if (t->worker.joinable()) t->worker.join();
}

}  // namespace impeccable::serve
