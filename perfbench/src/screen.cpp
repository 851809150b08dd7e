// `screen` workload: the ML1 data path on its own. A generated library is
// spilled to an on-disk LigandStore and streamed through MmapSource in
// windows; each window goes through ml::score_ligands (depict ->
// predict_batch) into a file-backed ScoreSpill and a StreamingTopK, on a
// 2-worker compute pool. latency_ms is the median time of one pass over the
// store to its ranked top-k, with time stolen by the hypervisor discounted
// (UnitTime::steal_free_s).

#include <fcntl.h>
#include <unistd.h>

#include <cinttypes>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <memory>

#include "bench.hpp"
#include "ledger.hpp"
#include "impeccable/chem/ligand_source.hpp"
#include "impeccable/common/thread_pool.hpp"
#include "impeccable/ml/gemm.hpp"
#include "impeccable/ml/streaming.hpp"
#include "impeccable/ml/surrogate.hpp"
#include "impeccable/obs/pool_metrics.hpp"
#include "impeccable/obs/recorder.hpp"

namespace perfbench {

namespace {

namespace chem = impeccable::chem;
namespace common = impeccable::common;
namespace ml = impeccable::ml;
namespace obs = impeccable::obs;

constexpr std::size_t kLigands = 3072;
constexpr std::size_t kWindow = 256;
constexpr std::size_t kTopK = 64;

/// Digest of the top-k (index, score bits) list for kPinnedSeed.
constexpr std::uint64_t kPinnedTopK = 0xab7dd09564a2083aULL;

constexpr const char* kChem = "chem";  ///< span category of featurization

/// Bytes of the store's file mappings that a pass brought into the process:
/// at every release, the pages of the mappings present in the page table
/// (/proc/self/pagemap) less those still present after the previous
/// release. Refaults, fault-around and the extent of release() all show.
class StoreReadMeter {
 public:
  /// Finds the mappings of the files under `store_dir` (open store).
  explicit StoreReadMeter(const std::string& store_dir) {
    const std::string dir =
        std::filesystem::weakly_canonical(store_dir).string() + "/";
    std::ifstream maps("/proc/self/maps");
    for (std::string line; std::getline(maps, line);) {
      const auto path = line.find('/');
      if (path == std::string::npos || line.compare(path, dir.size(), dir) != 0)
        continue;
      std::uintptr_t lo = 0, hi = 0;
      if (std::sscanf(line.c_str(), "%" SCNxPTR "-%" SCNxPTR, &lo, &hi) == 2)
        ranges_.push_back({lo / page_, hi / page_});
    }
    fd_ = ::open("/proc/self/pagemap", O_RDONLY | O_CLOEXEC);
    if (fd_ < 0 || ranges_.empty())
      std::fprintf(stderr, "screen: store mappings not readable; "
                           "chem.store.bytes_read reads 0\n");
  }
  ~StoreReadMeter() {
    if (fd_ >= 0) ::close(fd_);
  }
  StoreReadMeter(const StoreReadMeter&) = delete;
  StoreReadMeter& operator=(const StoreReadMeter&) = delete;

  void begin() {
    bytes_ = 0;
    last_ = present();
  }
  /// Wraps one release: counts the pages mapped since the last one.
  template <class Release>
  void release(Release&& release) {
    const std::size_t before = present();
    release();
    bytes_ += (before - std::min(before, last_)) * page_;
    last_ = present();
  }
  std::size_t end() {
    const std::size_t now = present();
    return bytes_ + (now - std::min(now, last_)) * page_;
  }

 private:
  const std::size_t page_ = static_cast<std::size_t>(::sysconf(_SC_PAGESIZE));
  struct Range {
    std::uintptr_t first, last;  ///< page numbers, [first, last)
  };

  std::size_t present() const {
    if (fd_ < 0) return 0;
    std::size_t n = 0;
    std::vector<std::uint64_t> entries;
    for (const Range& r : ranges_) {
      entries.resize(r.last - r.first);
      const auto bytes = static_cast<ssize_t>(entries.size() * sizeof entries[0]);
      if (::pread(fd_, entries.data(), static_cast<std::size_t>(bytes),
                  static_cast<off_t>(r.first * sizeof entries[0])) != bytes)
        continue;
      for (const std::uint64_t e : entries) n += e >> 63;  // bit 63: present
    }
    return n;
  }

  std::vector<Range> ranges_;
  int fd_ = -1;
  std::size_t bytes_ = 0, last_ = 0;
};

/// Forwards to an MmapSource and brackets each window's featurization in a
/// "chem:featurize" span (inactive unless a recorder is installed).
class TracedSource final : public chem::LigandSource {
 public:
  explicit TracedSource(chem::MmapSource inner)
      : LigandSource(inner.options()), inner_(std::move(inner)) {}

  std::size_t size() const override { return inner_.size(); }
  std::string id(std::size_t i) const override { return inner_.id(i); }
  std::string smiles(std::size_t i) const override { return inner_.smiles(i); }
  chem::Molecule molecule(std::size_t i) const override {
    return inner_.molecule(i);
  }
  chem::Image image(std::size_t i) const override { return inner_.image(i); }
  void images(std::size_t begin, std::size_t end,
              std::vector<chem::Image>& out) const override {
    obs::Span span(kChem, "featurize");
    span.arg("ligands", static_cast<double>(end - begin));
    inner_.images(begin, end, out);
  }
  void release(std::size_t begin, std::size_t end) const override {
    if (meter_)
      meter_->release([&] { inner_.release(begin, end); });
    else
      inner_.release(begin, end);
  }
  /// Count the store's bytes read through `meter` (null: stop counting).
  void set_meter(StoreReadMeter* meter) { meter_ = meter; }

 private:
  chem::MmapSource inner_;
  StoreReadMeter* meter_ = nullptr;
};

std::uint64_t topk_digest(const std::vector<ml::TopCandidate>& top) {
  std::string bytes;
  for (const ml::TopCandidate& c : top) {
    char rec[sizeof c.score + sizeof c.index];
    std::memcpy(rec, &c.score, sizeof c.score);
    std::memcpy(rec + sizeof c.score, &c.index, sizeof c.index);
    bytes.append(rec, sizeof rec);
  }
  return digest(bytes);
}

struct Pass {
  UnitTime time;
  std::size_t scored = 0;
  std::uint64_t topk = 0;
  bool spill_agrees = true;  ///< select_top_k(spill) == streaming top-k
  double t0 = 0.0, t1 = 0.0;  ///< recorder clock, traced passes only
  std::size_t bytes_read = 0;  ///< store bytes mapped in, traced passes only
};

/// One pass over the store, run as a job on `pool` so the whole stream
/// (featurization and GEMM fan-out) stays on the pool's two workers.
Pass run_pass(common::ThreadPool& pool, const TracedSource& source,
              const ml::SurrogateModel& model, const std::string& workdir,
              bool check_spill) {
  Pass p;
  const Stopwatch sw;
  pool.submit([&] {
        ml::ScoreSpill spill =
            ml::ScoreSpill::file_backed(source.size(), workdir + "/scores.bin");
        ml::StreamingTopK topk(kTopK);
        for (std::size_t b = 0; b < source.size(); b += kWindow)
          p.scored += ml::score_ligands(source, model, b, b + kWindow, kWindow,
                                        &spill, &topk);
        p.topk = topk_digest(topk.take_sorted());
        if (check_spill)
          p.spill_agrees = topk_digest(ml::select_top_k(spill, kTopK)) == p.topk;
      })
      .get();
  p.time = sw.stop();
  return p;
}

}  // namespace

Result run_screen(const Args& args) {
  const ml::SurrogateOptions mopts;
  chem::SourceOptions sopts;
  sopts.depiction.channels = mopts.channels;
  sopts.depiction.height = mopts.height;
  sopts.depiction.width = mopts.width;

  // Set-up: spill the library to a store, open it, construct the model;
  // about 90 ms, timed in groups of 3.
  const std::string store_dir = args.workdir + "/store";
  std::unique_ptr<TracedSource> source;
  std::unique_ptr<ml::SurrogateModel> model;
  SetupTimer setup(3, [&] {
    source.reset();
    remove_tree(store_dir);
    chem::spill_generated_library("SCR", kLigands, args.seed, store_dir);
    source = std::make_unique<TracedSource>(
        chem::MmapSource(chem::LigandStore::open(store_dir), sopts));
    model = std::make_unique<ml::SurrogateModel>(mopts);
  });
  setup.groups(2);
  if (source->size() != kLigands)
    throw std::runtime_error("screen: store holds the wrong ligand count");

  Result r = args.trace ? traced_result() : Result{};
  const auto pass = [&](obs::Recorder* rec, bool check_spill) {
    common::ThreadPool pool(kThreads);
    const auto prev = ml::set_compute_pool(&pool);
    Pass p;
    if (rec) {
      obs::ScopedRecorder scoped(rec);
      StoreReadMeter meter(store_dir);
      source->set_meter(&meter);
      meter.begin();
      const double t0 = rec->now();
      p = run_pass(pool, *source, *model, args.workdir, check_spill);
      p.t0 = t0;
      p.t1 = rec->now();
      p.bytes_read = meter.end();
      source->set_meter(nullptr);
      obs::publish_pool_metrics(pool, rec->metrics());
    } else {
      p = run_pass(pool, *source, *model, args.workdir, check_spill);
    }
    ml::set_compute_pool(prev);
    return p;
  };

  // Correctness: every ligand scored, and the top-k equal to the pinned
  // digest (pinned seed) or to the warm-up pass's (any seed).
  const Pass warm = pass(nullptr, true);
  std::uint64_t expected = args.seed == kPinnedSeed ? kPinnedTopK : warm.topk;
  if (args.corrupt_reference) expected ^= 1;
  std::fprintf(stderr, "screen: seed %llu top-k digest %016llx\n",
               static_cast<unsigned long long>(args.seed),
               static_cast<unsigned long long>(warm.topk));
  const auto check = [&](const Pass& p) {
    r.attempted += kLigands;
    if (p.topk != expected || !p.spill_agrees) r.failed += kLigands;
    else r.failed += kLigands - std::min(kLigands, p.scored);
  };
  check(warm);

  const double start = now_s();
  if (!args.trace) {
    std::vector<UnitTime> passes;
    while (passes.size() < 3 || now_s() - start < args.seconds) {
      const Pass p = pass(nullptr, false);
      check(p);
      passes.push_back(p.time);
      setup.groups(2);
    }
    set_end_to_end(r, 1e3 * median_steal_free(passes, "screen passes"),
                   setup.median_s("screen set-up groups"));
    return r;
  }

  std::vector<UnitTime> plain, traced;
  std::unique_ptr<obs::Recorder> rec;
  Pass last;
  while (traced.empty() || now_s() - start < args.seconds) {
    const Pass p = pass(nullptr, false);
    check(p);
    plain.push_back(p.time);
    rec = std::make_unique<obs::Recorder>();
    last = pass(rec.get(), false);
    check(last);
    traced.push_back(last.time);
  }
  const obs::Trace trace = rec->take();
  const Ledger led = analyze(trace, kThreads, last.t0, last.t1);
  print_ledger(led, stderr);
  set_layer_metrics(r, led, trace, rec->metrics());
  const double featurize_s = led.self("chem:featurize");
  r.set("chem.featurize.self_s", featurize_s, "s");
  r.set("chem.featurize.ligands_per_s",
        featurize_s > 0.0 ? static_cast<double>(kLigands) / featurize_s : 0.0,
        "1/s");
  r.set("chem.store.bytes_read", static_cast<double>(last.bytes_read), "B");
  set_run_metrics(r, plain, traced);
  return r;
}

}  // namespace perfbench
