#pragma once
// Fixtures shared by more than one test suite. A helper lives here once it
// is needed in two files; anything a single suite uses stays in that
// suite's anonymous namespace.

#include <cstdint>
#include <filesystem>
#include <memory>
#include <string>

#include "impeccable/common/thread_pool.hpp"
#include "impeccable/dock/receptor.hpp"
#include "impeccable/rct/task.hpp"

/// `name` under the system temp directory. Nothing is created.
inline std::filesystem::path tmp_path(const std::string& name) {
  return std::filesystem::temp_directory_path() / name;
}

/// Installs `pool` as the process compute pool for one scope.
class ComputePoolScope {
 public:
  explicit ComputePoolScope(impeccable::common::ThreadPool* pool)
      : prev_(impeccable::common::set_compute_pool(pool)) {}
  ~ComputePoolScope() { impeccable::common::set_compute_pool(prev_); }
  ComputePoolScope(const ComputePoolScope&) = delete;
  ComputePoolScope& operator=(const ComputePoolScope&) = delete;

 private:
  impeccable::common::ThreadPool* prev_;
};

/// Affinity maps of the synthetic receptor `name` (seeded by `seed`) on a
/// `nodes`-per-axis lattice; small lattices keep tests fast.
inline std::shared_ptr<const impeccable::dock::AffinityGrid> receptor_grid(
    const char* name, std::uint64_t seed, int nodes) {
  impeccable::dock::GridOptions gopts;
  gopts.nodes = nodes;
  return impeccable::dock::compute_grid(
      impeccable::dock::Receptor::synthesize(name, seed), gopts);
}

/// A payload-free task holding `gpus` GPUs for `duration` virtual seconds
/// (SimBackend / RAPTOR scheduling tests).
inline impeccable::rct::TaskDescription sim_task(const std::string& name,
                                                 double duration, int gpus = 1) {
  impeccable::rct::TaskDescription t;
  t.name = name;
  t.gpus = gpus;
  t.duration = duration;
  return t;
}
