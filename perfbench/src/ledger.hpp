#pragma once
// Trace analyzer: turns one obs::Trace into a per-layer time ledger.
//
// Nesting. Spans recorded on one thread lane nest properly (RAII scopes on
// one thread), so each span's parent on its lane is the innermost span
// whose interval contains it. Spans that carry a parent id recorded on the
// same lane are checked against that nesting; records emitted after the
// fact (rct task spans, parent 0) are placed by containment alone. A span's
// self time is its duration minus its direct children's durations on the
// same lane; cross-lane children (pool helpers running ESMACS replicas)
// count on their own lane instead.
//
// Stage table. cat::kStage records ("ML1", "S1", ..., "iteration-N") span
// many jobs on many lanes; they are kept out of the nesting and reported as
// the wall-clock union of their intervals per stage name.
//
// Explanation. Over the window [t0, t1] and the pool's worker lanes, the
// capacity is workers x (t1 - t0). The ledger explains the part spent in
// layer work (self time of dock, fe, ml and chem spans inside pool jobs)
// plus pool idle (worker time outside any pool job). A pool job with no
// span inside is a parallel_for chunk of uninstrumented work (GEMM
// panels); its caller blocks inside its own span until the chunk is done,
// so the chunk is charged to the innermost non-pool span on another worker
// lane that contains it. What is left is unexplained: the self time of
// pool jobs (scheduler callbacks, AppManager bookkeeping), of rct task
// spans (uninstrumented payload code: merges, checkpoint writes, ML1
// featurization) and chunks charged to task spans.

#include <cstddef>
#include <cstdio>
#include <map>
#include <string>

#include "bench.hpp"
#include "impeccable/obs/recorder.hpp"

namespace perfbench {

struct Ledger {
  double window_s = 0.0;
  std::size_t workers = 0;
  /// Self time and span count per "<category>:<normalized name>", all lanes.
  std::map<std::string, double> self_by_name;
  std::map<std::string, std::size_t> count_by_name;
  /// Self time per span category inside pool jobs on worker lanes (pool
  /// jobs' own time excluded); only layer categories count as explained.
  std::map<std::string, double> self_by_layer;
  double pool_overhead_s = 0.0;  ///< pool jobs' own time (outside child spans)
  double pool_busy_s = 0.0;      ///< worker time inside pool jobs
  double pool_idle_s = 0.0;      ///< worker time outside pool jobs
  std::map<std::string, double> stage_s;  ///< stage table (wall-clock union)
  double explained_frac = 0.0;
  std::size_t parent_mismatches = 0;  ///< recorded parent not an ancestor

  double self(const std::string& key) const;
  std::size_t count(const std::string& key) const;
};

Ledger analyze(const impeccable::obs::Trace& trace, std::size_t workers,
               double t0, double t1);

/// Fill the per-layer metrics every traced workload shares (pool, rct task,
/// dock, fe, ml, obs) from its ledger, trace and recorder metrics.
void set_layer_metrics(Result& r, const Ledger& ledger,
                       const impeccable::obs::Trace& trace,
                       impeccable::obs::MetricsRegistry& metrics);

/// Human-readable ledger table (to stderr in the benchmark).
void print_ledger(const Ledger& ledger, std::FILE* out);

}  // namespace perfbench
