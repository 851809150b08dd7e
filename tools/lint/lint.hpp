#pragma once
// imp_lint — project-rule lint for the IMPECCABLE tree.
//
// clang-tidy/cppcheck are unavailable offline, and the rules we need are
// project-specific anyway (determinism discipline, obs-routed output, the
// dock scorer's allocation-free guarantee), so this is a self-contained
// token-level scanner: comments, string/char literals, and preprocessor
// directives are recognized and stripped, identifier tokens are matched
// whole (no substring false positives on `runtime()` vs `time()`), and each
// rule is scoped to the directory classes where it is an invariant.
//
// Rule catalogue (ids are what suppression comments name):
//   no-nondet-source    src/ only. Wall-clock, environment, and hardware
//                       entropy are banned: std::random_device,
//                       system_clock, time()/clock() calls, getenv,
//                       localtime/gmtime/mktime/gettimeofday, and
//                       <ctime>/<time.h> includes. Library randomness comes
//                       from seeded common::Rng streams; wall time for
//                       tracing goes through obs:: (steady_clock is allowed
//                       — it is monotonic and never feeds science).
//   no-std-rand         everywhere. rand/srand/rand_r/drand48: a hidden
//                       global stream that breaks seed ownership.
//   no-iostream-in-lib  src/ only. std::cout/std::cerr/std::clog: library
//                       output goes through obs:: (tracing/metrics) or
//                       caller-supplied streams. Abort-path diagnostics use
//                       std::fprintf(stderr, ...) which stays signal-safe
//                       and unbuffered-by-intent.
//   no-naked-alloc      dock/ steady-state scorer files (score*, grid.*;
//                       score* covers score_batch.* — the batched kernels
//                       carry the same guarantee) and the chem/ out-of-core
//                       store files (store.*, ligand_source.* — their read
//                       path serves string_views out of mmap'd shards, and
//                       a raw malloc/new[] there is exactly the per-ligand
//                       heap state the format exists to avoid).
//                       malloc/calloc/realloc and array new[] would
//                       silently undo PR 2's allocation-free evaluate()
//                       guarantee; storage belongs in ScorerScratch or in
//                       containers sized at setup.
//   pragma-once         every .hpp/.h anywhere must contain #pragma once.
//   no-unordered-in-stages
//                       core/stages/ only. unordered_map/unordered_set
//                       iteration order is libstdc++-version- and
//                       seed-dependent; a merge() that folds one into
//                       ordered campaign state is a science_fingerprint()
//                       hazard. Use std::map/std::vector or sort first —
//                       the rule bans the tokens outright so reviewers see
//                       an explicit suppression where one is truly safe.
//   no-detached-thread  serve/ only. thread.detach() in a long-lived
//                       service leaks a worker the server cannot join at
//                       shutdown — it may still touch a destructed model,
//                       cache, or queue. Every serve/ thread is owned by a
//                       joinable handle whose shutdown path joins it.
//                       (serve/ is under src/, so it also inherits
//                       no-nondet-source and no-iostream-in-lib.)
//   no-raw-pool-install everywhere but common/thread_pool.*. A raw
//                       set_compute_pool(p) stays installed when an
//                       exception or a test ASSERT skips its reset; use
//                       common::ComputePoolScope.
//
// Suppressions:
//   // lint:allow(rule-id)            this line (or a /*...*/ starting on it)
//   // lint:allow-next-line(rule-id)  the following line
//   // lint:allow-file(rule-id)       whole file
// Multiple ids separate with commas: lint:allow(no-std-rand,pragma-once).

#include <filesystem>
#include <string>
#include <string_view>
#include <vector>

namespace impeccable::lint {

/// One finding. `file` is the path as reported (relative to the scanned
/// root for tree walks, verbatim for direct lint_source calls).
struct Diagnostic {
  std::string file;
  int line = 0;
  std::string rule;
  std::string message;
};

/// Directory-class flags derived from a repo-relative path; rules consult
/// these instead of re-parsing paths.
struct FileClass {
  bool in_src = false;          ///< under src/ (library code)
  bool is_header = false;       ///< .hpp or .h
  bool in_dock_scorer = false;  ///< dock/score*, dock/grid.* (incl. score_batch.*)
  bool in_chem_store = false;   ///< chem/store*, chem/ligand_source*
  bool in_stages = false;       ///< under core/stages/
  bool in_serve = false;        ///< under src/impeccable/serve/
  bool is_pool_registry = false;  ///< src/impeccable/common/thread_pool.*
};

/// Classify a repo-relative path ("src/impeccable/dock/score.cpp").
FileClass classify(std::string_view rel_path);

/// Lint one in-memory translation unit. `display_path` is used verbatim in
/// diagnostics; `cls` controls which rules apply.
std::vector<Diagnostic> lint_source(std::string_view text,
                                    const FileClass& cls,
                                    std::string_view display_path);

/// Lint one on-disk file (reads it, classifies by `rel_path`).
std::vector<Diagnostic> lint_file(const std::filesystem::path& path,
                                  std::string_view rel_path);

/// Walk src/, tests/, bench/, examples/, and tools/ under `root` and lint
/// every .cpp/.hpp/.h/.cc. Diagnostics come back sorted by (file, line).
std::vector<Diagnostic> lint_tree(const std::filesystem::path& root);

/// Render machine-readable "file:line:rule: message" lines (one diagnostic
/// per line, stable order); returns diagnostics.size(). Shared by imp_lint
/// and imp_audit so tooling parses both the same way.
std::size_t print(const std::vector<Diagnostic>& diags, std::string& out);

/// True when any diagnostic is an internal tool error (rule "io": a file
/// could not be read) rather than a rule violation. Drivers map these to
/// exit code 2, keeping 1 reserved for genuine findings.
bool has_tool_error(const std::vector<Diagnostic>& diags);

}  // namespace impeccable::lint
