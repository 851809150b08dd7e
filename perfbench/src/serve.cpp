// `serve` workload: one surrogate model behind serve::InferenceServer,
// driven open-loop at a fixed 300 requests/s (well under the capacity of
// one server worker), kShed admission, score cache on. About 75% of the
// requests are first-time ligands and 25% revisit a 16-ligand hot set, so
// the median and the p99 both sit on the model path. Latency runs from the
// scheduled send time; a shed or wrong response counts as slower than any
// limit. latency_ms is the p50. The p99 is reported by the traced run
// only (serve.p99_ms): on a shared host it follows the host's scheduling
// stalls more than the server (see NOTES.md).

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstring>
#include <future>
#include <limits>
#include <memory>

#include "bench.hpp"
#include "ledger.hpp"
#include "impeccable/chem/ligand_source.hpp"
#include "impeccable/common/rng.hpp"
#include "impeccable/ml/gemm.hpp"
#include "impeccable/ml/surrogate.hpp"
#include "impeccable/obs/recorder.hpp"
#include "impeccable/serve/server.hpp"

namespace perfbench {

namespace {

namespace chem = impeccable::chem;
namespace common = impeccable::common;
namespace ml = impeccable::ml;
namespace obs = impeccable::obs;
namespace serve = impeccable::serve;

constexpr double kRate = 300.0;  ///< offered requests per second
constexpr double kRepeatFraction = 0.25;
constexpr std::size_t kHot = 16;
constexpr std::size_t kWarmup = 150;  ///< requests before measuring
const char* const kTarget = "target";

/// Request content and its reference scores. Ligands [0, kHot) are the hot
/// set, [kHot, kHot + kWarmup) warm the server up, the rest are sent once.
struct Stream {
  std::vector<serve::Request> ligands;
  std::vector<float> reference;    ///< SurrogateModel::predict per ligand
  std::vector<std::size_t> order;  ///< measured requests, as ligand indices
};

Stream make_stream(std::uint64_t seed, std::size_t requests,
                   const ml::SurrogateOptions& mopts) {
  Stream s;
  common::Rng rng(seed ^ 0x5e77e5eedULL);
  std::size_t fresh = kHot + kWarmup;
  for (std::size_t k = 0; k < requests; ++k)
    s.order.push_back(rng.uniform() < kRepeatFraction ? rng.index(kHot)
                                                      : fresh++);
  chem::SourceOptions sopts;
  sopts.depiction.channels = mopts.channels;
  sopts.depiction.height = mopts.height;
  sopts.depiction.width = mopts.width;
  const chem::CompoundLibrary library = chem::generate_library("SRV", fresh, seed);
  const ml::SurrogateModel reference(mopts);
  // Depict in slices so only one copy of the request images is resident.
  constexpr std::size_t kSlice = 512;
  for (std::size_t b = 0; b < library.size(); b += kSlice) {
    const auto first = library.entries.begin() + static_cast<std::ptrdiff_t>(b);
    const chem::InMemorySource source(
        chem::CompoundLibrary{library.name,
                              {first, first + static_cast<std::ptrdiff_t>(std::min(
                                                  kSlice, library.size() - b))}},
        sopts);
    for (std::size_t i = 0; i < source.size(); ++i) {
      serve::Request req;
      req.image = source.image(i);
      req.key = serve::key_of(req.image);
      s.reference.push_back(reference.predict(req.image));
      s.ligands.push_back(std::move(req));
    }
  }
  return s;
}

struct Phase {
  std::vector<double> latency_ms;  ///< +inf for a shed or wrong response
  std::vector<double> late_ms;     ///< send time minus scheduled time
  std::size_t ok = 0;
  serve::TargetStats before, after;  ///< server counters around the phase
};

/// Send `order` open-loop at kRate and harvest every response.
Phase send(serve::InferenceServer& server, const Stream& s,
           const std::vector<std::size_t>& order, float corrupt) {
  Phase ph;
  std::vector<std::future<serve::Response>> futures;
  std::vector<double> scheduled;
  futures.reserve(order.size());
  const auto start_tp = std::chrono::steady_clock::now();
  const double start = server.now();
  for (std::size_t k = 0; k < order.size(); ++k) {
    const double offset = static_cast<double>(k) / kRate;
    const auto due =
        start_tp + std::chrono::duration_cast<std::chrono::steady_clock::duration>(
                       std::chrono::duration<double>(offset));
    // Spin instead of sleeping: a sleeping sender's wake-up can run
    // milliseconds late on a busy host, and that lateness would count as
    // server latency.
    while (std::chrono::steady_clock::now() < due) {
#if defined(__x86_64__) || defined(__i386__)
      __builtin_ia32_pause();
#endif
    }
    scheduled.push_back(start + offset);
    ph.late_ms.push_back(1e3 * (server.now() - scheduled.back()));
    futures.push_back(server.submit(kTarget, s.ligands[order[k]]));
  }
  for (std::size_t k = 0; k < order.size(); ++k) {
    const serve::Response resp = futures[k].get();
    const float want = s.reference[order[k]] + corrupt;
    const bool ok = resp.status == serve::Status::kOk &&
                    std::memcmp(&resp.score, &want, sizeof want) == 0;
    ph.ok += ok;
    ph.latency_ms.push_back(ok ? 1e3 * (resp.done_time - scheduled[k])
                               : std::numeric_limits<double>::infinity());
  }
  return ph;
}

/// A fresh server (cold cache) warmed up on its own ligands, then the
/// measured requests, recorded into `rec` when non-null.
Phase run_phase(const Stream& s, const ml::SurrogateOptions& mopts,
                obs::Recorder* rec, float corrupt) {
  serve::ServeOptions so;
  so.admission = serve::AdmissionPolicy::kShed;
  serve::InferenceServer server(so);
  server.register_target(kTarget, std::make_unique<ml::SurrogateModel>(mopts));
  std::vector<std::size_t> warmup(kWarmup);
  for (std::size_t i = 0; i < kWarmup; ++i) warmup[i] = kHot + i;
  send(server, s, warmup, corrupt);

  const serve::TargetStats before = server.stats(kTarget);
  Phase ph;
  if (rec) {
    obs::ScopedRecorder scoped(rec);
    ph = send(server, s, s.order, corrupt);
  } else {
    ph = send(server, s, s.order, corrupt);
  }
  ph.before = before;
  ph.after = server.stats(kTarget);
  server.shutdown();
  return ph;
}

}  // namespace

Result run_serve(const Args& args) {
  const ml::SurrogateOptions mopts;
  // The model runs on the server's worker thread alone; the load generator
  // is the second thread.
  const auto prev_pool = ml::set_compute_pool(nullptr);
  const double phase_s = args.trace ? args.seconds / 2 : args.seconds;
  const auto requests = static_cast<std::size_t>(std::ceil(kRate * phase_s));

  // Set-up: depict the workload, construct the model, reference scores.
  // About 5 s each, so timed one at a time, three times before measuring:
  // the measured phase is one continuous open-loop stream.
  Stream stream;
  SetupTimer setup(1, [&] {
    stream = Stream{};  // release the previous copy before measuring
    stream = make_stream(args.seed, requests, mopts);
  });
  setup.groups(3);
  // Self-test: a shifted reference must fail every request.
  const float corrupt = args.corrupt_reference ? 1e-3f : 0.0f;

  Result r = args.trace ? traced_result() : Result{};
  const auto check = [&](const Phase& ph) {
    r.attempted += ph.latency_ms.size();
    r.failed += ph.latency_ms.size() - ph.ok;
  };

  if (!args.trace) {
    const Phase ph = run_phase(stream, mopts, nullptr, corrupt);
    check(ph);
    set_end_to_end(r, percentile(ph.latency_ms, 0.50),
                   setup.median_s("serve set-ups"));
    ml::set_compute_pool(prev_pool);
    return r;
  }

  const Phase plain = run_phase(stream, mopts, nullptr, corrupt);
  check(plain);
  obs::Recorder rec;
  const Stopwatch sw;
  const Phase traced = run_phase(stream, mopts, &rec, corrupt);
  const UnitTime traced_time = sw.stop();
  check(traced);
  ml::set_compute_pool(prev_pool);

  const obs::Trace trace = rec.take();
  const Ledger led = analyze(trace, 0, 0.0, rec.now());
  print_ledger(led, stderr);
  set_layer_metrics(r, led, trace, rec.metrics());

  // Mean time a request waits before its batch starts: mean latency minus
  // the request-weighted mean batch duration.
  double batch_s = 0.0, batch_requests = 0.0;
  for (const obs::SpanRecord& sp : trace.spans) {
    if (sp.name != "serve-batch") continue;
    for (const obs::SpanArg& a : sp.args)
      if (a.key == "requests") {
        batch_s += sp.duration() * a.num;
        batch_requests += a.num;
      }
  }
  double mean_ms = 0.0;
  for (const double v : traced.latency_ms) mean_ms += v;
  mean_ms /= static_cast<double>(std::max<std::size_t>(1, traced.latency_ms.size()));
  const double batches = static_cast<double>(traced.after.batches - traced.before.batches);
  const double hits = static_cast<double>(traced.after.cache.hits - traced.before.cache.hits);
  const double misses =
      static_cast<double>(traced.after.cache.misses - traced.before.cache.misses);
  const std::size_t predicts = led.count("ml:surrogate-predict");
  r.set("serve.batches", batches, "count");
  r.set("serve.batch_size.mean",
        batches > 0 ? static_cast<double>(traced.latency_ms.size()) / batches : 0.0,
        "count");
  r.set("serve.model_ms",
        predicts ? 1e3 * led.self("ml:surrogate-predict") / static_cast<double>(predicts)
                 : 0.0,
        "ms");
  r.set("serve.queue_ms",
        mean_ms - (batch_requests > 0 ? 1e3 * batch_s / batch_requests : 0.0), "ms");
  r.set("serve.cache.hit_frac", hits + misses > 0 ? hits / (hits + misses) : 0.0,
        "frac");
  r.set("serve.shed", static_cast<double>(traced.after.shed - traced.before.shed),
        "count");
  r.set("serve.p99_ms", percentile(plain.latency_ms, 0.99), "ms");
  r.set("loadgen.late_ms", percentile(traced.late_ms, 0.99), "ms");
  r.set("proc.cpu_s", traced_time.cpu_s, "s");
  r.set("host.steal_frac",
        traced_time.steal_s / std::max(1e-9, traced_time.cpu_s + traced_time.steal_s),
        "frac");
  r.set("obs.overhead_frac",
        percentile(traced.latency_ms, 0.50) / percentile(plain.latency_ms, 0.50) - 1.0,
        "frac");
  return r;
}

}  // namespace perfbench
