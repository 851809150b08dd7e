// `campaign` workload: the full ML1 -> S1 -> S3-CG -> S2 -> S3-FG campaign,
// run sequentially on a benchmark-owned 2-worker LocalBackend with a
// per-iteration checkpoint. A run rotates over kLibraries compound
// libraries made from its seed. latency_ms is the time to a ranked set of
// leads: each library's median makespan, with time stolen by the hypervisor
// discounted (UnitTime::steal_free_s), averaged over the libraries.

#include <filesystem>
#include <memory>
#include <string>

#include "bench.hpp"
#include "ledger.hpp"
#include "impeccable/core/campaign.hpp"
#include "impeccable/obs/recorder.hpp"
#include "impeccable/rct/backend.hpp"

namespace perfbench {

namespace {

namespace core = impeccable::core;
namespace fe = impeccable::fe;
namespace obs = impeccable::obs;
namespace rct = impeccable::rct;

/// Libraries per run. The makespan moved by up to +-10% from one library
/// to the next while repeating within 2-4% on one library, so a run
/// averages over several.
constexpr std::size_t kLibraries = 4;

/// FNV-1a-64 of science_fingerprint() for each library of kPinnedSeed.
constexpr std::uint64_t kPinnedFingerprints[kLibraries] = {
    0xc6060daefaf10819ULL, 0x2c2550b1fa375330ULL, 0x971062cdd13b6d84ULL,
    0x979c0795433d3db5ULL};

std::uint64_t library_seed(std::uint64_t seed, std::size_t library) {
  return seed * kLibraries + library;
}

/// The examples/virtual_screening_campaign science config, with the
/// library grown from 120 to 400 so docking and ESMACS both carry a large
/// share of the makespan.
core::ScienceConfig science(std::uint64_t seed) {
  core::ScienceConfig sci;
  sci.library_size = 400;
  sci.library_seed = seed;
  sci.iterations = 2;
  sci.bootstrap_docks = 24;
  sci.dock_top_fraction = 0.20;
  sci.cg_compounds = 6;
  sci.top_binders = 2;
  sci.outliers_per_binder = 2;
  sci.dock.runs = 2;
  sci.dock.lga.population = 24;
  sci.dock.lga.generations = 10;
  sci.esmacs_cg = fe::cg_config(0.4);
  sci.esmacs_cg.replicas = 4;
  sci.esmacs_fg = fe::fg_config(0.15);
  sci.esmacs_fg.replicas = 6;
  sci.surrogate.epochs = 5;
  sci.aae.epochs = 5;
  return sci;
}

std::string checkpoint_path(const Args& a) { return a.workdir + "/campaign.ckpt"; }

core::ExecConfig exec(const Args& a, std::uint64_t seed,
                      obs::Recorder* recorder) {
  core::ExecConfig ex;
  ex.threads = kThreads;
  ex.seed = 0xca4'9a19ULL + seed;
  ex.checkpoint_path = checkpoint_path(a);
  ex.recorder = recorder;
  return ex;
}

core::Target make_target() {
  return core::Target::make("PLPro-like", /*seed=*/6209, 50, 23);
}

struct Run {
  UnitTime time;
  double window_t0 = 0.0, window_t1 = 0.0;  ///< backend clock
  std::uint64_t fingerprint = 0;
  core::CampaignReport report;
};

Run run_once(core::Campaign& campaign) {
  rct::LocalBackend backend(kThreads);
  Run r;
  const Stopwatch sw;
  r.window_t0 = backend.now();
  r.report = campaign.run(backend);
  r.window_t1 = backend.now();
  r.time = sw.stop();
  r.fingerprint = digest(r.report.science_fingerprint());
  return r;
}

void set_campaign_layers(Result& r, const Run& run, const obs::Trace& trace,
                         obs::Recorder& rec, const std::string& checkpoint) {
  const Ledger led = analyze(trace, kThreads, run.window_t0, run.window_t1);
  print_ledger(led, stderr);
  if (led.explained_frac < 0.95)
    std::fprintf(stderr, "ledger: FLAG campaign explained %.1f%% < 95%%\n",
                 100.0 * led.explained_frac);
  set_layer_metrics(r, led, trace, rec.metrics());

  const auto stage = [&](const char* name) {
    const auto it = led.stage_s.find(name);
    return it == led.stage_s.end() ? 0.0 : it->second;
  };
  r.set("core.stage.ml1_s", stage("ML1"), "s");
  r.set("core.stage.s1_s", stage("S1"), "s");
  r.set("core.stage.s3cg_s", stage("S3-CG"), "s");
  r.set("core.stage.s2_s", stage("S2"), "s");
  r.set("core.stage.s3fg_s", stage("S3-FG"), "s");
  std::error_code ec;
  const auto bytes = std::filesystem::file_size(checkpoint, ec);
  r.set("core.checkpoint.bytes", ec ? 0.0 : static_cast<double>(bytes), "B");

  const auto& tasks = run.report.profile.tasks;
  double failed = 0.0, retries = 0.0;
  for (std::size_t i = 0; i < tasks.size(); ++i) {
    if (tasks[i].ok) continue;
    failed += 1.0;
    for (std::size_t j = i + 1; j < tasks.size(); ++j)
      if (tasks[j].name == tasks[i].name) {  // resubmitted by the AppManager
        retries += 1.0;
        break;
      }
  }
  r.set("rct.tasks", static_cast<double>(tasks.size()), "count");
  r.set("rct.failed", failed, "count");
  r.set("rct.retries", retries, "count");
  r.set("rct.queue_wait_s", run.report.profile.mean_queue_wait(), "s");
  for (const auto& [component, flops] : run.report.flops->snapshot())
    r.set("flops." + component, static_cast<double>(flops), "flop");
}

}  // namespace

Result run_campaign(const Args& args) {
  // Set-up: build the target (receptor grid, MD protein) and one campaign
  // per library; about 60 ms, timed in groups of 4.
  std::vector<std::unique_ptr<core::Campaign>> campaigns;
  SetupTimer setup(4, [&] {
    campaigns.clear();
    const core::Target target = make_target();
    for (std::size_t j = 0; j < kLibraries; ++j) {
      const std::uint64_t seed = library_seed(args.seed, j);
      campaigns.push_back(std::make_unique<core::Campaign>(
          target, science(seed), exec(args, seed, nullptr)));
    }
  });
  setup.groups(2);

  // Correctness: a warm-up round over the libraries. The pinned seed must
  // reproduce the pinned fingerprints, and every later run of a library
  // must reproduce its warm-up.
  Result r = args.trace ? traced_result() : Result{};
  std::vector<std::uint64_t> expected(kLibraries);
  for (std::size_t j = 0; j < kLibraries; ++j) {
    const Run warm = run_once(*campaigns[j]);
    expected[j] = args.seed == kPinnedSeed ? kPinnedFingerprints[j] : warm.fingerprint;
    if (args.corrupt_reference) expected[j] ^= 1;
    std::fprintf(stderr, "campaign: seed %llu library %zu fingerprint %016llx\n",
                 static_cast<unsigned long long>(args.seed), j,
                 static_cast<unsigned long long>(warm.fingerprint));
    ++r.attempted;
    if (warm.fingerprint != expected[j]) ++r.failed;
  }
  const auto check = [&](const Run& run, std::size_t library) {
    ++r.attempted;
    if (run.fingerprint != expected[library]) ++r.failed;
  };

  const double start = now_s();
  if (!args.trace) {
    std::vector<std::vector<UnitTime>> runs(kLibraries);
    for (std::size_t k = 0; k < kLibraries || now_s() - start < args.seconds; ++k) {
      const std::size_t j = k % kLibraries;
      const Run run = run_once(*campaigns[j]);
      check(run, j);
      runs[j].push_back(run.time);
      setup.groups(2);
    }
    double mean_s = 0.0;
    for (std::size_t j = 0; j < kLibraries; ++j) {
      const std::string what = "campaign library " + std::to_string(j) + " makespans";
      mean_s += median_steal_free(runs[j], what.c_str()) / kLibraries;
    }
    set_end_to_end(r, 1e3 * mean_s, setup.median_s("campaign set-up groups"));
    return r;
  }

  // Traced: alternate untraced and traced runs (tracing overhead), and
  // build the ledger from the last traced run.
  const core::Target target = make_target();
  std::vector<UnitTime> plain, traced;
  std::unique_ptr<obs::Recorder> rec;
  Run last;
  for (std::size_t k = 0; traced.empty() || now_s() - start < args.seconds; ++k) {
    const std::size_t j = k % kLibraries;
    const Run run = run_once(*campaigns[j]);
    check(run, j);
    plain.push_back(run.time);

    rec = std::make_unique<obs::Recorder>();
    const std::uint64_t seed = library_seed(args.seed, j);
    core::Campaign probe(target, science(seed), exec(args, seed, rec.get()));
    last = run_once(probe);
    check(last, j);
    traced.push_back(last.time);
  }
  set_campaign_layers(r, last, rec->take(), *rec, checkpoint_path(args));
  set_run_metrics(r, plain, traced);
  return r;
}

}  // namespace perfbench
