#pragma once
// Shared pieces of the perfbench workloads: run options, the result record
// printed as the final JSON line, and small timing/statistics helpers.

#include <cstddef>
#include <cstdint>
#include <functional>
#include <map>
#include <string>
#include <utility>
#include <vector>

namespace perfbench {

/// Worker threads every workload runs on, whatever the host has.
inline constexpr std::size_t kThreads = 2;

/// The seed whose outputs are pinned to reference digests in the sources.
inline constexpr std::uint64_t kPinnedSeed = 1;

struct Args {
  std::string workload;
  std::uint64_t seed = kPinnedSeed;
  double seconds = 0.0;
  bool trace = false;
  std::string workdir;          ///< scratch files (store, spill, checkpoint)
  std::string commit = "none";  ///< source revision, for provenance
  /// Self-test: compare against a deliberately wrong reference, so every
  /// correctness gate must report failures.
  bool corrupt_reference = false;
};

struct Metric {
  double value = 0.0;
  std::string unit;
};

/// One run's outcome. `attempted`/`failed` count the workload's own units
/// (campaigns, ligands, requests).
struct Result {
  bool correct = true;
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  std::map<std::string, Metric> metrics;

  void set(const std::string& name, double value, const std::string& unit) {
    metrics[name] = {value, unit};
  }
  double ok_frac() const {
    return attempted ? static_cast<double>(attempted - failed) /
                           static_cast<double>(attempted)
                     : 0.0;
  }
};

/// Result pre-filled with every per-layer metric of the traced run at 0: a
/// workload that does not exercise a layer reports 0 for it.
Result traced_result();

// --------------------------------------------------------------- helpers

double now_s();        ///< steady clock, seconds
double cpu_s();        ///< process user + system CPU seconds
/// CPU seconds the hypervisor has stolen from this machine's vCPUs (the
/// steal column of /proc/stat); 0 where the kernel does not report it.
double steal_s();
double peak_rss_mb();  ///< process high-water resident set

/// Time of one unit of batch work (a campaign, a store pass).
struct UnitTime {
  double wall_s = 0.0;
  double cpu_s = 0.0;    ///< this process
  double steal_s = 0.0;  ///< all vCPUs
  /// The wall-clock time with the stolen share of the process's runnable
  /// time discounted: wall x cpu / (cpu + steal). A vCPU accrues steal only
  /// while it has work, so with the benchmark the only busy process, the
  /// steal is the process's. It is what the unit takes on a host that does
  /// not take its CPUs away (see NOTES.md, Steadiness).
  double steal_free_s() const {
    return cpu_s + steal_s > 0.0 ? wall_s * cpu_s / (cpu_s + steal_s) : wall_s;
  }
};

/// Starts at construction; stop() returns the time since.
class Stopwatch {
 public:
  Stopwatch() : wall_(now_s()), cpu_(cpu_s()), steal_(steal_s()) {}
  UnitTime stop() const {
    return {now_s() - wall_, cpu_s() - cpu_, steal_s() - steal_};
  }

 private:
  double wall_, cpu_, steal_;
};
double median(std::vector<double> v);
/// Nearest-rank percentile, q in (0, 1].
double percentile(std::vector<double> v, double q);
/// FNV-1a-64 digest of a byte string.
std::uint64_t digest(const std::string& bytes);
void remove_tree(const std::string& path);

/// Median steal-free seconds of `units`; logs each unit's wall-clock and
/// steal-free time and the stolen share under `what`.
double median_steal_free(const std::vector<UnitTime>& units, const char* what);

/// Times a workload's set-up in groups of `per_group` back-to-back calls,
/// each group timed steal-free as one unit, long enough for /proc/stat's
/// 10 ms steal ticks. A workload runs groups before it measures and after
/// each measured unit, so that they sample the host's speed over the whole
/// run as the units do (see NOTES.md, Steadiness).
class SetupTimer {
 public:
  SetupTimer(int per_group, std::function<void()> setup)
      : per_group_(per_group), setup_(std::move(setup)) {}
  /// Run and time `n` groups.
  void groups(int n);
  /// Median group time over per_group; logs every group under `what`.
  double median_s(const char* what) const;

 private:
  int per_group_;
  std::function<void()> setup_;
  std::vector<UnitTime> groups_;
};

/// Per-layer metrics of a traced batch run that alternated untraced
/// (`plain`) and traced units: proc.cpu_s of the last traced unit,
/// obs.overhead_frac and host.steal_frac.
void set_run_metrics(Result& r, const std::vector<UnitTime>& plain,
                     const std::vector<UnitTime>& traced);

/// The end-to-end metrics every workload reports from its untraced run.
void set_end_to_end(Result& r, double latency_ms, double setup_s);

Result run_campaign(const Args& args);
Result run_screen(const Args& args);
Result run_serve(const Args& args);

}  // namespace perfbench
