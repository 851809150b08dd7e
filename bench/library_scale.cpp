// Out-of-core library at scale (Sec. 6.1.1): stream a 1e8-ligand on-disk
// LigandStore through the production ML1 path — windowed mmap featurization
// (parse -> depict), SurrogateModel::predict_batch, and external-memory
// streaming top-k — inside a simulated campaign (ScaleModel replay on the
// discrete-event backend), and demonstrate that peak RSS stays bounded (the
// acceptance gate is <= 2 GB) no matter how large the library is. The paper
// screens "about 126M ligands" per ML1 pass on Summit; this harness runs the
// same per-ligand code on one node by keeping the library on disk and the
// working set at O(window + top_k).
//
// A second phase re-runs a 50k-ligand campaign end to end under both library
// backends (InMemorySource vs MmapSource) and checks the science
// fingerprints are bitwise identical — the refactor's core guarantee, at a
// scale the unit suite cannot afford.
//
//   $ ./bench/library_scale [ligands] [fp_library] [out.json]
//     ligands     store size streamed through ML1   (default 100000000)
//     fp_library  fingerprint-equality library size (default 50000)
//     out.json    report path                       (default BENCH_pr9.json)

#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <string>

#include "impeccable/chem/ligand_source.hpp"
#include "impeccable/core/multi_campaign.hpp"
#include "impeccable/hpc/machine.hpp"
#include "impeccable/obs/json.hpp"
#include "impeccable/rct/backend.hpp"
#include "impeccable/rct/entk.hpp"

namespace chem = impeccable::chem;
namespace core = impeccable::core;
namespace fe = impeccable::fe;
namespace hpc = impeccable::hpc;
namespace ml = impeccable::ml;
namespace obs = impeccable::obs;
namespace rct = impeccable::rct;
namespace stages = impeccable::core::stages;

namespace {

double seconds_since(std::chrono::steady_clock::time_point t0) {
  return std::chrono::duration<double>(std::chrono::steady_clock::now() - t0)
      .count();
}

/// Peak resident set (VmHWM) in bytes, from /proc/self/status. Monotonic:
/// must be sampled right after the streaming phase, before any deliberately
/// in-memory work (the fingerprint phase materializes a 50k-image library).
std::size_t peak_rss_bytes() {
  std::ifstream f("/proc/self/status");
  std::string line;
  while (std::getline(f, line)) {
    if (line.rfind("VmHWM:", 0) != 0) continue;
    return std::strtoull(line.c_str() + 6, nullptr, 10) * 1024;
  }
  return 0;
}

/// Build (or reuse) a `count`-record store by tiling a pool of real
/// generated SMILES under distinct ids. Tiling keeps store construction
/// I/O-bound — the streaming phase still parses and depicts every record
/// individually, so the ML1 path sees `count` full featurizations.
chem::LigandStore build_store(const std::string& dir, std::size_t count) {
  {
    chem::LigandStore existing = chem::LigandStore::open(dir);
    if (existing.size() == count && existing.stats().shards_skipped == 0) {
      std::printf("store: reusing %zu ligands at %s\n", count, dir.c_str());
      return existing;
    }
  }
  std::filesystem::remove_all(dir);

  const std::size_t pool_size = std::min<std::size_t>(count, 200'000);
  const chem::CompoundLibrary pool =
      chem::generate_library("SCL", pool_size, 4242);

  const auto t0 = std::chrono::steady_clock::now();
  chem::StoreWriterOptions wopts;
  wopts.records_per_shard = 4'000'000;
  chem::LigandStoreWriter writer(dir, wopts);
  char id[32];
  for (std::size_t i = 0; i < count; ++i) {
    std::snprintf(id, sizeof id, "SCL-%09zu", i);
    writer.append(id, pool.entries[i % pool_size].smiles);
  }
  writer.finish();
  const double dt = seconds_since(t0);

  std::size_t bytes = 0;
  for (const auto& e : std::filesystem::directory_iterator(dir))
    bytes += e.file_size();
  std::printf("store: wrote %zu ligands, %.2f GB in %.1f s (%.3g records/s)\n",
              count, bytes / 1e9, dt, count / dt);
  return chem::LigandStore::open(dir);
}

}  // namespace

int main(int argc, char** argv) {
  const std::size_t ligands =
      argc > 1 ? std::strtoull(argv[1], nullptr, 10) : 100'000'000ULL;
  const std::size_t fp_library =
      argc > 2 ? std::strtoull(argv[2], nullptr, 10) : 50'000ULL;
  const std::string json_path = argc > 3 ? argv[3] : "BENCH_pr9.json";

  // ---- Phase 1: stream the full store through the real ML1 path. --------
  // A slim featurization (8x8 single-channel depictions, 2-filter CNN)
  // keeps the single-core run tractable; the code path — mmap window ->
  // parse -> depict -> predict_batch -> StreamingTopK -> madvise release —
  // is exactly the production one, and RSS behavior is what is under test.
  const auto store_dir =
      std::filesystem::temp_directory_path() / "impeccable_library_scale";
  chem::SourceOptions sopts;
  sopts.depiction.width = 8;
  sopts.depiction.height = 8;
  sopts.depiction.channels = 1;
  sopts.depiction.layout_iterations = 16;  // coarse layout for an 8x8 raster
  const chem::MmapSource source(build_store(store_dir.string(), ligands),
                                sopts);

  ml::SurrogateOptions mopts;
  mopts.width = 8;
  mopts.height = 8;
  mopts.channels = 1;
  mopts.base_filters = 2;
  const ml::SurrogateModel model(mopts);

  stages::ScaleModel scale;
  scale.ml1_ligands = static_cast<double>(ligands);
  scale.ml1_shards = 8;
  scale.ml1_gpu_seconds_per_ligand = 1e-5;
  scale.s1_docks = 1000;
  scale.s1_chunk = 500;
  scale.s1_gpu_seconds_per_ligand = 1e-3;
  scale.cg_ligands = 4;
  scale.cg_seconds = 600.0;
  scale.s2_tasks = 2;
  scale.s2_seconds = 600.0;
  scale.fg_conformations = 2;
  scale.fg_seconds = 600.0;

  stages::ScaleModel::Replay replay;
  replay.source = &source;
  replay.model = &model;
  replay.window = 8192;
  replay.top_k = 1000;
  scale.replay = &replay;

  rct::SimBackend backend(hpc::summit(4));
  core::MultiCampaignOptions campaign_opts;
  campaign_opts.ready_order = rct::AppManagerOptions::ReadyOrder::kFifo;
  core::MultiCampaign campaign(core::ExecConfig{}, campaign_opts);
  campaign.add_virtual_target("library", 1, scale);

  std::printf("streaming %zu ligands through ML1 "
              "(featurize -> predict -> top-%zu, window %zu)...\n",
              ligands, replay.top_k, replay.window);
  const auto t0 = std::chrono::steady_clock::now();
  campaign.run(backend);
  const double stream_s = seconds_since(t0);
  const std::size_t peak_rss = peak_rss_bytes();  // before the fp phase!

  std::printf("  scored %zu ligands in %.1f s (%.3g ligands/s)\n",
              replay.ligands_scored, stream_s,
              replay.ligands_scored / stream_s);
  std::printf("  peak RSS %.3f GB (gate: <= 2 GB)  top-k size %zu, best "
              "score %.4f @ ordinal %zu\n",
              peak_rss / 1e9, replay.selected.size(),
              replay.selected.empty() ? 0.0 : replay.selected.front().score,
              replay.selected.empty()
                  ? std::size_t{0}
                  : static_cast<std::size_t>(replay.selected.front().index));

  const bool rss_ok = peak_rss <= 2'000'000'000ULL;
  const bool scored_ok = replay.ligands_scored >= ligands;

  // ---- Phase 2: fingerprint equality at 50k. ----------------------------
  core::ScienceConfig fpc;
  fpc.library_size = fp_library;
  fpc.iterations = 2;
  fpc.bootstrap_docks = 24;
  fpc.dock_top_fraction = 0.002;  // 100-dock slice: S1 stays a side show
  fpc.cg_compounds = 4;
  fpc.top_binders = 2;
  fpc.outliers_per_binder = 2;
  fpc.dock.runs = 1;
  fpc.dock.lga.population = 16;
  fpc.dock.lga.generations = 6;
  fpc.esmacs_cg = fe::cg_config(0.3);
  fpc.esmacs_cg.replicas = 3;
  fpc.esmacs_fg = fe::fg_config(0.1);
  fpc.esmacs_fg.replicas = 4;
  fpc.surrogate.epochs = 2;
  fpc.aae.epochs = 2;
  core::ExecConfig fpx;
  fpx.seed = 29;

  std::printf("\nfingerprint gate: %zu-ligand campaign, 2 iterations, "
              "both backends...\n", fp_library);
  const auto t1 = std::chrono::steady_clock::now();
  core::Campaign in_mem(core::Target::make("3CL-like", 42, 40, 21), fpc, fpx);
  const std::string fp_a = in_mem.run().science_fingerprint();
  const double in_mem_s = seconds_since(t1);

  const auto fp_store_dir =
      std::filesystem::temp_directory_path() / "impeccable_library_scale_fp";
  std::filesystem::remove_all(fp_store_dir);
  fpx.library_backend = core::ExecConfig::LibraryBackend::kMmapStore;
  fpx.library_store_dir = fp_store_dir.string();
  const auto t2 = std::chrono::steady_clock::now();
  core::Campaign out_of_core(core::Target::make("3CL-like", 42, 40, 21), fpc,
                             fpx);
  const std::string fp_b = out_of_core.run().science_fingerprint();
  const double mmap_s = seconds_since(t2);
  std::filesystem::remove_all(fp_store_dir);

  const bool fp_ok = fp_a == fp_b;
  std::printf("  in-memory %.1f s, mmap store %.1f s, fingerprints %s\n",
              in_mem_s, mmap_s, fp_ok ? "IDENTICAL" : "DIVERGED");

  {
    std::ofstream f(json_path, std::ios::trunc);
    obs::json::Writer w(f);
    w.begin_object();
    w.kv("bench", "library_scale");
    w.key("streaming");
    w.begin_object();
    w.kv("ligands", static_cast<std::uint64_t>(replay.ligands_scored));
    w.kv("seconds", stream_s);
    w.kv("ligands_per_second", replay.ligands_scored / stream_s);
    w.kv("window", static_cast<std::uint64_t>(replay.window));
    w.kv("top_k", static_cast<std::uint64_t>(replay.top_k));
    w.kv("peak_rss_bytes", static_cast<std::uint64_t>(peak_rss));
    w.kv("peak_rss_under_2gb", rss_ok);
    w.end_object();
    w.key("fingerprint_gate");
    w.begin_object();
    w.kv("library_size", static_cast<std::uint64_t>(fp_library));
    w.kv("iterations", 2);
    w.kv("in_memory_seconds", in_mem_s);
    w.kv("mmap_store_seconds", mmap_s);
    w.kv("identical", fp_ok);
    w.end_object();
    w.end_object();
  }
  std::printf("\nwrote %s\n", json_path.c_str());

  if (!rss_ok || !scored_ok || !fp_ok) {
    std::fprintf(stderr, "library_scale: ACCEPTANCE FAILURE (rss_ok=%d "
                 "scored_ok=%d fp_ok=%d)\n", rss_ok, scored_ok, fp_ok);
    return 1;
  }
  return 0;
}
