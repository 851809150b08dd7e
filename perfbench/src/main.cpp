// perfbench: the repository benchmark's measuring binary.
//
//   perfbench --workload campaign|screen|serve --seed N --seconds S
//             --trace 0|1 --workdir DIR [--commit REV] [--corrupt-reference]
//
// Untraced (--trace 0): check outputs, then time the end-to-end metrics.
// Traced (--trace 1): attach an obs::Recorder and report per-layer metrics.
// Stdout carries one "provenance" line and, last, the result as one JSON
// object {"correct", "attempted", "failed", "metrics"}. On any error the
// binary exits non-zero without printing a result.

#include <malloc.h>
#include <sys/resource.h>
#include <unistd.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <exception>
#include <filesystem>
#include <fstream>
#include <stdexcept>
#include <string>

#include "bench.hpp"
#include "impeccable/chem/store.hpp"

namespace perfbench {

namespace {

/// Every per-layer metric of the traced run, with its unit.
const std::vector<std::pair<std::string, std::string>>& per_layer_metrics() {
  static const std::vector<std::pair<std::string, std::string>> kMetrics = {
      {"core.stage.ml1_s", "s"},          {"core.stage.s1_s", "s"},
      {"core.stage.s3cg_s", "s"},         {"core.stage.s2_s", "s"},
      {"core.stage.s3fg_s", "s"},         {"core.checkpoint.bytes", "B"},
      {"rct.tasks", "count"},             {"rct.failed", "count"},
      {"rct.retries", "count"},           {"rct.queue_wait_s", "s"},
      {"rct.task.self_s", "s"},           {"pool.busy_frac", "frac"},
      {"pool.idle_s", "s"},               {"pool.overhead_s", "s"},
      {"pool.stolen", "count"},           {"pool.parked", "count"},
      {"dock.ligands", "count"},          {"dock.evaluations", "count"},
      {"dock.self_s", "s"},               {"dock.ls_self_s", "s"},
      {"dock.evals_per_s", "1/s"},        {"fe.esmacs.self_s", "s"},
      {"fe.replica.self_s", "s"},         {"fe.replicas", "count"},
      {"ml.train.self_s", "s"},           {"ml.predict.self_s", "s"},
      {"ml.predict.images_per_s", "1/s"}, {"ml.gemm.flops", "flop"},
      {"chem.featurize.self_s", "s"},     {"chem.featurize.ligands_per_s", "1/s"},
      {"chem.store.bytes_read", "B"},     {"flops.ML1", "flop"},
      {"flops.S1", "flop"},               {"flops.S3-CG", "flop"},
      {"flops.S2", "flop"},               {"flops.S3-FG", "flop"},
      {"serve.batches", "count"},         {"serve.batch_size.mean", "count"},
      {"serve.model_ms", "ms"},           {"serve.queue_ms", "ms"},
      {"serve.cache.hit_frac", "frac"},   {"serve.shed", "count"},
      {"serve.p99_ms", "ms"},
      {"loadgen.late_ms", "ms"},          {"proc.cpu_s", "s"},
      {"obs.overhead_frac", "frac"},      {"obs.explained_frac", "frac"},
      {"host.ref_ms", "ms"},              {"host.steal_frac", "frac"},
  };
  return kMetrics;
}

}  // namespace

Result traced_result() {
  Result r;
  for (const auto& [name, unit] : per_layer_metrics()) r.set(name, 0.0, unit);
  return r;
}

double now_s() {
  return std::chrono::duration<double>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

double cpu_s() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  const auto sec = [](const timeval& tv) {
    return static_cast<double>(tv.tv_sec) + 1e-6 * static_cast<double>(tv.tv_usec);
  };
  return sec(ru.ru_utime) + sec(ru.ru_stime);
}

double steal_s() {
  std::ifstream in("/proc/stat");
  std::string cpu;
  double fields[8] = {};  // user nice system idle iowait irq softirq steal
  in >> cpu;
  for (double& f : fields) in >> f;
  if (!in || cpu != "cpu") return 0.0;
  return fields[7] / static_cast<double>(sysconf(_SC_CLK_TCK));
}

double peak_rss_mb() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // KiB on Linux
}

double median(std::vector<double> v) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const std::size_t n = v.size();
  return n % 2 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

double percentile(std::vector<double> v, double q) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const auto rank = static_cast<std::size_t>(
      std::ceil(q * static_cast<double>(v.size())));
  return v[std::clamp<std::size_t>(rank, 1, v.size()) - 1];
}

namespace {

/// Median time of a fixed reference kernel: host speed drift shows here.
double host_ref_ms() {
  // A dependent floating-point chain: no memory traffic, no vectorization,
  // so its time tracks only the core's speed.
  std::vector<double> ms;
  for (int rep = 0; rep < 5; ++rep) {
    const double t0 = now_s();
    double x = 1.0;
    for (int i = 0; i < 10'000'000; ++i) x = x * 1.0000001 + 1e-9;
    const double t1 = now_s();
    volatile double sink = x;  // keep the chain live
    (void)sink;
    ms.push_back(1e3 * (t1 - t0));
  }
  return median(ms);
}

}  // namespace

std::uint64_t digest(const std::string& bytes) {
  return impeccable::chem::fnv1a64(bytes.data(), bytes.size());
}

void remove_tree(const std::string& path) {
  std::error_code ec;
  std::filesystem::remove_all(path, ec);
}

double median_steal_free(const std::vector<UnitTime>& units, const char* what) {
  std::vector<double> steal_free;
  double cpu = 0.0, steal = 0.0;
  std::fprintf(stderr, "%s (s, wall/steal-free):", what);
  for (const UnitTime& u : units) {
    steal_free.push_back(u.steal_free_s());
    cpu += u.cpu_s;
    steal += u.steal_s;
    std::fprintf(stderr, " %.3f/%.3f", u.wall_s, u.steal_free_s());
  }
  std::fprintf(stderr, "; stolen %.1f%% of runnable time\n",
               cpu + steal > 0.0 ? 100.0 * steal / (cpu + steal) : 0.0);
  return median(steal_free);
}

void SetupTimer::groups(int n) {
  for (int g = 0; g < n; ++g) {
    const Stopwatch sw;
    for (int k = 0; k < per_group_; ++k) setup_();
    groups_.push_back(sw.stop());
  }
}

double SetupTimer::median_s(const char* what) const {
  return median_steal_free(groups_, what) / per_group_;
}

void set_run_metrics(Result& r, const std::vector<UnitTime>& plain,
                     const std::vector<UnitTime>& traced) {
  const auto steal_free = [](const std::vector<UnitTime>& units) {
    std::vector<double> v;
    for (const UnitTime& u : units) v.push_back(u.steal_free_s());
    return median(v);
  };
  double cpu = 0.0, steal = 0.0;
  for (const auto* units : {&plain, &traced})
    for (const UnitTime& u : *units) {
      cpu += u.cpu_s;
      steal += u.steal_s;
    }
  r.set("proc.cpu_s", traced.back().cpu_s, "s");
  r.set("obs.overhead_frac", steal_free(traced) / steal_free(plain) - 1.0, "frac");
  r.set("host.steal_frac", cpu + steal > 0.0 ? steal / (cpu + steal) : 0.0, "frac");
}

void set_end_to_end(Result& r, double latency_ms, double setup_s) {
  r.set("latency_ms", latency_ms, "ms");
  r.set("ok_frac", r.ok_frac(), "frac");
  r.set("setup_s", setup_s, "s");
  r.set("peak_rss_mb", peak_rss_mb(), "MB");
}

}  // namespace perfbench

namespace {

using perfbench::Args;
using perfbench::Result;

Args parse(int argc, char** argv) {
  Args a;
  for (int i = 1; i < argc; ++i) {
    const std::string k = argv[i];
    const auto value = [&]() -> std::string {
      if (i + 1 >= argc) throw std::invalid_argument("missing value for " + k);
      return argv[++i];
    };
    if (k == "--workload") a.workload = value();
    else if (k == "--seed") a.seed = std::stoull(value());
    else if (k == "--seconds") a.seconds = std::stod(value());
    else if (k == "--trace") a.trace = std::stoi(value()) != 0;
    else if (k == "--workdir") a.workdir = value();
    else if (k == "--commit") a.commit = value();
    else if (k == "--corrupt-reference") a.corrupt_reference = true;
    else throw std::invalid_argument("unknown argument " + k);
  }
  if (a.workdir.empty()) throw std::invalid_argument("--workdir is required");
  if (!(a.seconds > 0.0)) throw std::invalid_argument("--seconds > 0 is required");
  return a;
}

std::string json_string(const std::string& s) {
  std::string out = "\"";
  for (const char c : s) {
    if (c == '"' || c == '\\') out += '\\';
    if (static_cast<unsigned char>(c) >= 0x20) out += c;
  }
  return out + "\"";
}

std::string cpu_model() {
  std::ifstream in("/proc/cpuinfo");
  for (std::string line; std::getline(in, line);)
    if (line.rfind("model name", 0) == 0) {
      const auto colon = line.find(':');
      return colon == std::string::npos ? line : line.substr(colon + 2);
    }
  return "unknown";
}

void print_provenance(const Args& a, double ref_ms) {
  std::printf(
      "provenance {\"workload\": %s, \"seed\": %llu, \"trace\": %d, "
      "\"nproc\": %ld, \"cpu\": %s, \"compiler\": %s, \"build_type\": %s, "
      "\"commit\": %s, \"threads\": %zu, \"host.ref_ms\": %.6f}\n",
      json_string(a.workload).c_str(),
      static_cast<unsigned long long>(a.seed), a.trace ? 1 : 0,
      sysconf(_SC_NPROCESSORS_ONLN), json_string(cpu_model()).c_str(),
      json_string(PERFBENCH_COMPILER).c_str(),
      json_string(PERFBENCH_BUILD_TYPE).c_str(),
      json_string(a.commit).c_str(), perfbench::kThreads, ref_ms);
}

void print_result(Result r) {
  std::string metrics;
  for (auto& [name, m] : r.metrics) {
    if (!std::isfinite(m.value)) {  // never emit a non-JSON number
      r.correct = false;
      m.value = 1e9;
    }
    char num[64];
    std::snprintf(num, sizeof num, "%.17g", m.value);
    if (!metrics.empty()) metrics += ", ";
    metrics += json_string(name) + ": {\"value\": " + num +
               ", \"unit\": " + json_string(m.unit) + "}";
  }
  if (r.failed > 0 || r.attempted == 0) r.correct = false;
  std::printf("{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, "
              "\"metrics\": {%s}}\n",
              r.correct ? "true" : "false",
              static_cast<unsigned long long>(std::max<std::uint64_t>(1, r.attempted)),
              static_cast<unsigned long long>(r.failed), metrics.c_str());
}

}  // namespace

int main(int argc, char** argv) {
  // One malloc arena for all threads. With glibc's default of one arena per
  // thread, peak RSS depended on which pool worker happened to run the
  // allocating job: the same screen run read 18.2 MB or 23-26 MB.
  mallopt(M_ARENA_MAX, 1);
  try {
    const Args args = parse(argc, argv);
    std::filesystem::create_directories(args.workdir);
    // Library code that falls back to the temp directory stays inside the
    // benchmark's own scratch space.
    setenv("TMPDIR", args.workdir.c_str(), 1);

    const double ref_ms = perfbench::host_ref_ms();
    print_provenance(args, ref_ms);
    std::fflush(stdout);

    Result r;
    if (args.workload == "campaign") r = perfbench::run_campaign(args);
    else if (args.workload == "screen") r = perfbench::run_screen(args);
    else if (args.workload == "serve") r = perfbench::run_serve(args);
    else throw std::invalid_argument("unknown workload '" + args.workload + "'");
    if (args.trace) r.set("host.ref_ms", ref_ms, "ms");

    perfbench::remove_tree(args.workdir);
    print_result(std::move(r));
    return 0;
  } catch (const std::exception& e) {
    std::fprintf(stderr, "perfbench: %s\n", e.what());
    return 1;
  }
}
