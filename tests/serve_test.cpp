// Serving layer: sharded score cache, micro-batching inference server,
// admission control, and the synthetic load generators. The whole file runs
// under the tsan-concurrency preset (LABELS serve), so every test doubles as a
// race detector for the concurrent predict path.

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <future>
#include <memory>
#include <thread>
#include <vector>

#include "impeccable/chem/depiction.hpp"
#include "impeccable/chem/fingerprint.hpp"
#include "impeccable/chem/smiles.hpp"
#include "impeccable/ml/surrogate.hpp"
#include "impeccable/serve/loadgen.hpp"
#include "impeccable/serve/score_cache.hpp"
#include "impeccable/serve/server.hpp"

namespace impeccable {
namespace {

// Ten molecules with pairwise-distinct depictions. (Distinct SMILES is not
// enough: depiction maps N and O to the same channel, so e.g. phenol and
// aniline featurize byte-identically — and then sharing a cache entry is
// correct, since the CNN cannot tell them apart either.)
std::vector<chem::Image> test_images(std::size_t n) {
  const char* smiles[] = {"c1ccccc1", "CCCCCC", "Oc1ccccc1", "CCNCC",
                          "Cc1ccccc1", "CCCCO",  "c1ccncc1",  "CC(C)CC",
                          "CCCCCCCC",  "CC(C)CO"};
  std::vector<chem::Image> out;
  out.reserve(n);
  for (std::size_t i = 0; i < n; ++i)
    out.push_back(chem::depict(chem::parse_smiles(smiles[i % 10])));
  return out;
}

std::unique_ptr<ml::SurrogateModel> small_model(std::uint64_t seed = 77) {
  ml::SurrogateOptions opts;
  opts.seed = seed;  // deterministic weights; untrained is fine for serving
  return std::make_unique<ml::SurrogateModel>(opts);
}

serve::Request make_request(const chem::Image& image) {
  serve::Request req;
  req.image = image;
  req.key = serve::key_of(image);
  return req;
}

// ---------------------------------------------------------------- keys

TEST(CacheKey, ImageDigestIsContentIdentity) {
  const auto images = test_images(2);
  EXPECT_EQ(serve::key_of(images[0]), serve::key_of(images[0]));
  EXPECT_NE(serve::key_of(images[0]), serve::key_of(images[1]));

  chem::Image tweaked = images[0];
  tweaked.data[tweaked.data.size() / 2] += 1e-6f;
  EXPECT_NE(serve::key_of(images[0]), serve::key_of(tweaked));

  // Featurization identity, not molecule identity: N and O land in the same
  // depiction channel, so phenol and aniline share a key — and may share a
  // cache entry, because their CNN inputs (hence scores) are identical.
  EXPECT_EQ(serve::key_of(chem::depict(chem::parse_smiles("Oc1ccccc1"))),
            serve::key_of(chem::depict(chem::parse_smiles("Nc1ccccc1"))));
}

TEST(CacheKey, FingerprintDigestIsContentIdentity) {
  const auto a = chem::morgan_fingerprint(chem::parse_smiles("c1ccccc1"));
  const auto b = chem::morgan_fingerprint(chem::parse_smiles("CCCCCC"));
  EXPECT_EQ(serve::key_of(a), serve::key_of(a));
  EXPECT_NE(serve::key_of(a), serve::key_of(b));
}

// ---------------------------------------------------------------- cache

TEST(ScoreCache, LookupAfterInsertHitsAndCounts) {
  serve::ShardedScoreCache cache({4, 64});
  ASSERT_TRUE(cache.enabled());
  const serve::CacheKey k{1, 2};
  EXPECT_FALSE(cache.lookup(k).has_value());
  cache.insert(k, 0.25f);
  const auto hit = cache.lookup(k);
  ASSERT_TRUE(hit.has_value());
  EXPECT_EQ(*hit, 0.25f);

  const auto s = cache.stats();
  EXPECT_EQ(s.hits, 1u);
  EXPECT_EQ(s.misses, 1u);
  EXPECT_EQ(s.insertions, 1u);
  EXPECT_EQ(s.evictions, 0u);
  EXPECT_EQ(s.size, 1u);
  EXPECT_EQ(s.shards, 4u);
}

TEST(ScoreCache, ZeroCapacityDisablesCleanly) {
  serve::ShardedScoreCache cache({8, 0});
  EXPECT_FALSE(cache.enabled());
  cache.insert({1, 1}, 0.5f);  // dropped, not stored
  EXPECT_FALSE(cache.lookup({1, 1}).has_value());
  EXPECT_EQ(cache.stats().size, 0u);
  EXPECT_EQ(cache.stats().shards, 0u);
}

TEST(ScoreCache, EvictsLeastRecentlyUsedUnderCapacityPressure) {
  // Single shard so the LRU order is globally observable.
  serve::ShardedScoreCache cache({1, 3});
  ASSERT_EQ(cache.shard_capacity(), 3u);
  cache.insert({0, 0}, 0.0f);
  cache.insert({0, 1}, 1.0f);
  cache.insert({0, 2}, 2.0f);
  // Touch {0,0} so {0,1} becomes the LRU victim.
  ASSERT_TRUE(cache.lookup({0, 0}).has_value());
  cache.insert({0, 3}, 3.0f);

  EXPECT_TRUE(cache.lookup({0, 0}).has_value());
  EXPECT_FALSE(cache.lookup({0, 1}).has_value()) << "LRU entry must go first";
  EXPECT_TRUE(cache.lookup({0, 2}).has_value());
  EXPECT_TRUE(cache.lookup({0, 3}).has_value());
  const auto s = cache.stats();
  EXPECT_EQ(s.evictions, 1u);
  EXPECT_EQ(s.size, 3u);
}

TEST(ScoreCache, ReinsertRefreshesRecencyWithoutChangingScore) {
  serve::ShardedScoreCache cache({1, 2});
  cache.insert({0, 0}, 0.0f);
  cache.insert({0, 1}, 1.0f);
  cache.insert({0, 0}, 9.0f);  // refresh: score stays, recency moves
  cache.insert({0, 2}, 2.0f);  // evicts {0,1}, not the refreshed {0,0}

  const auto kept = cache.lookup({0, 0});
  ASSERT_TRUE(kept.has_value());
  EXPECT_EQ(*kept, 0.0f) << "cached scores are immutable on reinsert";
  EXPECT_FALSE(cache.lookup({0, 1}).has_value());
}

TEST(ScoreCache, ShardsEvictIndependently) {
  // Keys route by hi % shards: hi selects the shard directly.
  serve::ShardedScoreCache cache({2, 4});  // 2 entries per shard
  ASSERT_EQ(cache.shard_capacity(), 2u);
  ASSERT_NE(cache.shard_of({0, 0}), cache.shard_of({1, 0}));

  cache.insert({0, 0}, 0.0f);
  cache.insert({0, 1}, 0.1f);
  // Overflow shard 1 only; shard 0 residents must be untouched.
  for (std::uint64_t lo = 0; lo < 5; ++lo) cache.insert({1, lo}, 1.0f);

  EXPECT_TRUE(cache.lookup({0, 0}).has_value());
  EXPECT_TRUE(cache.lookup({0, 1}).has_value());
  EXPECT_EQ(cache.stats().evictions, 3u);
}

TEST(ScoreCache, ConcurrentMixedTrafficKeepsCountersConsistent) {
  serve::ShardedScoreCache cache({8, 256});
  constexpr int kThreads = 8, kOps = 500;
  std::vector<std::thread> pool;
  for (int t = 0; t < kThreads; ++t) {
    pool.emplace_back([&cache, t] {
      for (int i = 0; i < kOps; ++i) {
        const serve::CacheKey k{static_cast<std::uint64_t>(i % 32),
                                static_cast<std::uint64_t>(t % 2)};
        if (const auto hit = cache.lookup(k)) {
          EXPECT_EQ(*hit, static_cast<float>(k.hi));
        } else {
          cache.insert(k, static_cast<float>(k.hi));
        }
      }
    });
  }
  for (auto& th : pool) th.join();
  const auto s = cache.stats();
  EXPECT_EQ(s.hits + s.misses, static_cast<std::uint64_t>(kThreads * kOps));
  EXPECT_LE(s.size, 64u);  // 32 keys x 2 lo values
}

// ---------------------------------------------------------------- predict race

TEST(SurrogateConcurrency, ParallelPredictBatchIsRaceFreeAndDeterministic) {
  // The serving layer's core assumption (and the TSan lane's main
  // quarry): concurrent predict_batch calls on one const model neither race
  // nor perturb each other's outputs.
  const auto model = small_model();
  const auto images = test_images(12);
  const std::vector<float> expected = model->predict_batch(images);

  constexpr int kThreads = 8;
  std::vector<std::vector<float>> results(kThreads);
  std::vector<std::thread> pool;
  for (int t = 0; t < kThreads; ++t)
    pool.emplace_back(
        [&, t] { results[t] = model->predict_batch(images); });
  for (auto& th : pool) th.join();

  for (int t = 0; t < kThreads; ++t) {
    ASSERT_EQ(results[t].size(), expected.size());
    for (std::size_t i = 0; i < expected.size(); ++i)
      EXPECT_EQ(results[t][i], expected[i]) << "thread " << t << " image " << i;
  }
}

// ---------------------------------------------------------------- server

TEST(InferenceServer, ServedScoresBitwiseMatchDirectPredictBatch) {
  const auto images = test_images(10);
  const std::vector<float> direct = small_model()->predict_batch(images);

  for (const std::size_t cache_capacity : {std::size_t{0}, std::size_t{512}}) {
    serve::ServeOptions opts;
    opts.cache.capacity = cache_capacity;
    serve::InferenceServer server(opts);
    server.register_target("3clpro", small_model());

    // Two passes: the second is all cache hits when the cache is on.
    for (int pass = 0; pass < 2; ++pass)
      for (std::size_t i = 0; i < images.size(); ++i)
        EXPECT_EQ(server.score("3clpro", make_request(images[i])), direct[i])
            << "cache=" << cache_capacity << " pass=" << pass << " image=" << i;

    const auto s = server.stats("3clpro");
    EXPECT_EQ(s.completed, 2 * images.size());
    if (cache_capacity > 0) {
      EXPECT_EQ(s.cache.hits, images.size()) << "second pass must hit";
      EXPECT_EQ(s.model_images, images.size());
    } else {
      EXPECT_EQ(s.model_images, 2 * images.size());
    }
  }
}

TEST(InferenceServer, CoalescesQueuedRequestsIntoBatches) {
  serve::ServeOptions opts;
  opts.deadline_us = 50000.0;  // generous: queued work flushes together
  opts.cache.capacity = 0;     // misses must come from batching, not caching
  serve::InferenceServer server(opts);
  server.register_target("t", small_model());

  const auto images = test_images(10);
  server.pause();  // build up a queue so one flush sees all of them
  std::vector<std::future<serve::Response>> futs;
  for (int rep = 0; rep < 3; ++rep)
    for (const auto& img : images)
      futs.push_back(server.submit("t", make_request(img)));
  server.resume();
  for (auto& f : futs) EXPECT_EQ(f.get().status, serve::Status::kOk);

  const auto s = server.stats("t");
  EXPECT_EQ(s.completed, futs.size());
  EXPECT_EQ(s.batches, 1u) << "30 queued requests < max_batch: one flush";
  // Even with the cache disabled, in-batch dedupe runs each of the 10
  // distinct images once per flush.
  EXPECT_EQ(s.model_images, images.size());
  EXPECT_EQ(s.queue_depth, 0u);
}

TEST(InferenceServer, DeduplicatesIdenticalKeysWithinOneBatch) {
  serve::ServeOptions opts;
  opts.cache.capacity = 512;
  serve::InferenceServer server(opts);
  server.register_target("t", small_model());

  const auto images = test_images(1);
  server.pause();
  std::vector<std::future<serve::Response>> futs;
  for (int i = 0; i < 8; ++i)
    futs.push_back(server.submit("t", make_request(images[0])));
  server.resume();

  float first = 0.0f;
  for (std::size_t i = 0; i < futs.size(); ++i) {
    const auto r = futs[i].get();
    ASSERT_EQ(r.status, serve::Status::kOk);
    if (i == 0)
      first = r.score;
    else
      EXPECT_EQ(r.score, first);
  }
  // However the 8 duplicates split into batches, the model runs them once.
  EXPECT_EQ(server.stats("t").model_images, 1u);
}

TEST(InferenceServer, ShedPolicyFailsFastAboveWatermark) {
  serve::ServeOptions opts;
  opts.queue_capacity = 4;
  opts.admission = serve::AdmissionPolicy::kShed;
  serve::InferenceServer server(opts);
  server.register_target("t", small_model());

  const auto images = test_images(1);
  server.pause();  // nothing drains: the watermark is deterministic
  std::vector<std::future<serve::Response>> accepted;
  for (std::size_t i = 0; i < opts.queue_capacity; ++i)
    accepted.push_back(server.submit("t", make_request(images[0])));

  // Queue is at capacity: overload must resolve immediately as kShed.
  auto overload = server.submit("t", make_request(images[0]));
  EXPECT_EQ(overload.wait_for(std::chrono::seconds(0)),
            std::future_status::ready)
      << "shed must not block";
  EXPECT_EQ(overload.get().status, serve::Status::kShed);

  server.resume();
  for (auto& f : accepted) EXPECT_EQ(f.get().status, serve::Status::kOk);
  const auto s = server.stats("t");
  EXPECT_EQ(s.shed, 1u);
  EXPECT_EQ(s.completed, opts.queue_capacity);
}

TEST(InferenceServer, BlockPolicyAppliesBackpressureThenAdmits) {
  serve::ServeOptions opts;
  opts.queue_capacity = 2;
  opts.admission = serve::AdmissionPolicy::kBlock;
  serve::InferenceServer server(opts);
  server.register_target("t", small_model());

  const auto images = test_images(1);
  server.pause();
  std::vector<std::future<serve::Response>> futs;
  for (std::size_t i = 0; i < opts.queue_capacity; ++i)
    futs.push_back(server.submit("t", make_request(images[0])));

  // The next submit must block until the worker drains space.
  std::atomic<bool> admitted{false};
  std::thread blocked([&] {
    futs.push_back(server.submit("t", make_request(images[0])));
    admitted.store(true);
  });
  std::this_thread::sleep_for(std::chrono::milliseconds(50));
  EXPECT_FALSE(admitted.load()) << "submit must block while queue is full";

  server.resume();
  blocked.join();
  EXPECT_TRUE(admitted.load());
  for (auto& f : futs) EXPECT_EQ(f.get().status, serve::Status::kOk);
  EXPECT_EQ(server.stats("t").shed, 0u);
}

TEST(InferenceServer, RegistryRoutesPerTargetAndRejectsBadIds) {
  serve::InferenceServer server;
  server.register_target("3clpro", small_model(1));
  server.register_target("plpro", small_model(2));  // different weights
  EXPECT_THROW(server.register_target("3clpro", small_model(3)),
               std::invalid_argument);
  EXPECT_THROW(server.register_target("null", nullptr), std::invalid_argument);
  EXPECT_EQ(server.targets(), (std::vector<std::string>{"3clpro", "plpro"}));

  const auto images = test_images(4);
  for (const auto& img : images) {
    const serve::Request req = make_request(img);
    EXPECT_NE(server.score("3clpro", req), server.score("plpro", req))
        << "targets must score with their own model";
  }
  EXPECT_THROW(server.submit("unknown", make_request(images[0])),
               std::out_of_range);
  EXPECT_THROW(server.stats("unknown"), std::out_of_range);
  EXPECT_EQ(server.stats("3clpro").completed, images.size());
  EXPECT_EQ(server.stats("plpro").completed, images.size());
}

TEST(InferenceServer, AdaptiveFlushThresholdStaysWithinConfiguredBand) {
  serve::ServeOptions opts;
  opts.min_batch = 2;
  opts.max_batch = 16;
  opts.deadline_us = 500.0;  // tight budget forces adaptation downward
  serve::InferenceServer server(opts);
  server.register_target("t", small_model());

  const auto images = test_images(8);
  for (int rep = 0; rep < 6; ++rep)
    for (const auto& img : images) server.score("t", make_request(img));

  const auto s = server.stats("t");
  EXPECT_GE(s.flush_threshold, opts.min_batch);
  EXPECT_LE(s.flush_threshold, opts.max_batch);
  EXPECT_GT(s.ewma_image_us, 0.0);
}

TEST(InferenceServer, SparseArrivalsFlushWithoutWaitingOutTheDeadline) {
  // A partial batch the arrival rate cannot fill before its deadline is
  // flushed at once. The first request, with no arrival history, waits out
  // the deadline; the second arrives more than a deadline later, so at the
  // observed rate the missing request would come too late to wait for.
  serve::ServeOptions opts;
  opts.max_batch = 2;  // threshold 2: a lone request is a partial batch
  opts.min_batch = 2;
  opts.deadline_us = 400000.0;
  opts.cache.capacity = 0;
  serve::InferenceServer server(opts);
  server.register_target("t", small_model());
  const auto images = test_images(2);

  const double t0 = server.now();
  const serve::Response first = server.submit("t", make_request(images[0])).get();
  EXPECT_GE(first.done_time - t0, 0.4) << "no arrival history: waits";

  const double t1 = server.now();
  const serve::Response second =
      server.submit("t", make_request(images[1])).get();
  EXPECT_EQ(second.status, serve::Status::kOk);
  EXPECT_LT(second.done_time - t1, 0.2)
      << "a request the rate cannot pair before the deadline flushes alone";
  EXPECT_EQ(server.stats("t").batches, 2u);
}

TEST(InferenceServer, ShutdownShedsQueuedWorkAndRefusesNewWork) {
  serve::InferenceServer server;
  server.register_target("t", small_model());
  const auto images = test_images(1);

  server.pause();
  auto queued = server.submit("t", make_request(images[0]));
  server.shutdown();
  EXPECT_EQ(queued.get().status, serve::Status::kShed);
  EXPECT_EQ(server.submit("t", make_request(images[0])).get().status,
            serve::Status::kShed);
  server.shutdown();  // idempotent
}

// Regression: resume() used to flip paused_ and notify without ever
// acquiring the target mutex, so a worker that had just evaluated its wait
// predicate (seeing paused == true) but not yet blocked could miss the
// notify and sleep forever — the queued request's future never resolved.
// resume() now publishes through each target's mutex (the shutdown()
// idiom), which makes the pause/submit/resume cycle airtight. Iterate to
// give the old interleaving many chances to bite.
TEST(InferenceServer, ResumeWakeupIsNeverLost) {
  serve::ServeOptions opts;
  opts.deadline_us = 1.0;  // flush immediately once awake
  opts.cache.capacity = 0;
  serve::InferenceServer server(opts);
  server.register_target("t", small_model());
  const auto images = test_images(1);

  for (int i = 0; i < 200; ++i) {
    server.pause();
    auto fut = server.submit("t", make_request(images[0]));
    server.resume();
    ASSERT_EQ(fut.wait_for(std::chrono::seconds(30)),
              std::future_status::ready)
        << "resume() wakeup lost on iteration " << i;
    EXPECT_EQ(fut.get().status, serve::Status::kOk);
  }
}

TEST(InferenceServer, ConcurrentSubmittersAcrossTargetsComplete) {
  serve::ServeOptions opts;
  opts.deadline_us = 200.0;
  serve::InferenceServer server(opts);
  server.register_target("a", small_model(1));
  server.register_target("b", small_model(2));

  const auto images = test_images(6);
  constexpr int kThreads = 6;
  std::atomic<int> ok{0};
  std::vector<std::thread> pool;
  for (int t = 0; t < kThreads; ++t) {
    pool.emplace_back([&, t] {
      const std::string target = (t % 2 == 0) ? "a" : "b";
      for (int i = 0; i < 20; ++i) {
        const auto r =
            server.submit(target, make_request(images[i % images.size()]))
                .get();
        if (r.status == serve::Status::kOk) ok.fetch_add(1);
      }
    });
  }
  for (auto& th : pool) th.join();
  EXPECT_EQ(ok.load(), kThreads * 20);
  EXPECT_EQ(server.stats("a").completed + server.stats("b").completed,
            static_cast<std::uint64_t>(kThreads * 20));
}

// ---------------------------------------------------------------- loadgen

TEST(LoadGen, WorkloadIsDeterministicAndHonorsRepeatFraction) {
  serve::WorkloadOptions opts;
  opts.unique_ligands = 32;
  opts.stream_length = 2000;
  opts.repeat_fraction = 0.9;
  opts.hot_set = 4;

  const auto a = serve::make_workload(opts);
  const auto b = serve::make_workload(opts);
  ASSERT_EQ(a.unique.size(), 32u);
  ASSERT_EQ(a.stream.size(), 2000u);
  EXPECT_EQ(a.stream, b.stream) << "same seed, same stream";
  for (std::size_t i = 0; i < a.unique.size(); ++i)
    EXPECT_EQ(a.unique[i].key, b.unique[i].key);

  std::size_t hot_hits = 0;
  for (const std::size_t idx : a.stream)
    if (idx < opts.hot_set) ++hot_hits;
  // 90% explicit repeats + uniform draws that land in the hot set by chance.
  EXPECT_GT(hot_hits, a.stream.size() * 8 / 10);

  serve::WorkloadOptions other = opts;
  other.seed ^= 0xff;
  EXPECT_NE(serve::make_workload(other).stream, a.stream);
}

TEST(LoadGen, ClosedLoopReportsCompletionsAndLatencies) {
  serve::InferenceServer server;
  server.register_target("t", small_model());

  serve::WorkloadOptions wopts;
  wopts.unique_ligands = 8;
  wopts.stream_length = 64;
  wopts.repeat_fraction = 0.5;
  const auto workload = serve::make_workload(wopts);

  serve::ClosedLoopOptions copts;
  copts.clients = 3;
  copts.requests_per_client = 16;
  const auto report = serve::run_closed_loop(server, "t", workload, copts);

  EXPECT_EQ(report.issued, 48u);
  EXPECT_EQ(report.completed, 48u);
  EXPECT_EQ(report.shed, 0u);
  EXPECT_GT(report.achieved_rps, 0.0);
  EXPECT_GT(report.p50_us, 0.0);
  EXPECT_LE(report.p50_us, report.p99_us);
  EXPECT_LE(report.p99_us, report.max_us * 1.2);  // bucket resolution slack
}

TEST(LoadGen, OpenLoopShedsUnderOverloadWithShedPolicy) {
  serve::ServeOptions opts;
  opts.queue_capacity = 4;
  opts.admission = serve::AdmissionPolicy::kShed;
  serve::InferenceServer server(opts);
  server.register_target("t", small_model());

  serve::WorkloadOptions wopts;
  wopts.unique_ligands = 8;
  wopts.stream_length = 64;
  const auto workload = serve::make_workload(wopts);

  server.pause();  // guaranteed overload: nothing drains while dispatching
  serve::OpenLoopOptions oopts;
  oopts.offered_rps = 5000.0;
  oopts.requests = 32;
  std::thread resumer([&] {
    std::this_thread::sleep_for(std::chrono::milliseconds(100));
    server.resume();
  });
  const auto report = serve::run_open_loop(server, "t", workload, oopts);
  resumer.join();

  EXPECT_EQ(report.issued, 32u);
  EXPECT_EQ(report.completed + report.shed, 32u);
  EXPECT_GT(report.shed, 0u) << "paused shed-mode server must reject overflow";
  EXPECT_GT(report.completed, 0u) << "watermark-admitted requests complete";
}

}  // namespace
}  // namespace impeccable
