#include "lint.hpp"

#include "scan.hpp"

#include <algorithm>
#include <fstream>
#include <set>
#include <sstream>

namespace impeccable::lint {

namespace {

// ---------------------------------------------------------------------------
// Rules.

struct Sink {
  const Scan& scan;
  const std::string path;
  std::vector<Diagnostic>& out;

  void report(int line, std::string_view rule, std::string message) {
    if (scan.allowed(rule, line)) return;
    out.push_back({path, line, std::string(rule), std::move(message)});
  }
};

void rule_nondet_source(const Scan& scan, Sink& sink) {
  static const std::set<std::string, std::less<>> banned = {
      "random_device", "system_clock", "getenv",  "secure_getenv",
      "gettimeofday",  "localtime",    "gmtime",  "mktime",
      "localtime_r",   "gmtime_r",     "time_t",
  };
  for (std::size_t i = 0; i < scan.tokens.size(); ++i) {
    const Token& t = scan.tokens[i];
    if (!t.is_ident || is_member_access(scan.tokens, i)) continue;
    if (banned.count(t.text)) {
      sink.report(t.line, "no-nondet-source",
                  "'" + t.text +
                      "' is a nondeterminism source; draw from a seeded "
                      "common::Rng or use obs:: timing instead");
    } else if ((t.text == "time" || t.text == "clock") &&
               next_is(scan.tokens, i, "(")) {
      sink.report(t.line, "no-nondet-source",
                  "call to '" + t.text +
                      "()' reads the wall clock; science must not depend on "
                      "it (obs:: owns timing)");
    }
  }
  for (const Directive& d : scan.directives) {
    if (d.text.find("include") == std::string::npos) continue;
    for (const char* hdr : {"<ctime>", "<time.h>", "<sys/time.h>"}) {
      if (d.text.find(hdr) != std::string::npos)
        sink.report(d.line, "no-nondet-source",
                    std::string("include of ") + hdr +
                        " in library code (wall-clock API)");
    }
  }
}

void rule_std_rand(const Scan& scan, Sink& sink) {
  static const std::set<std::string, std::less<>> banned = {
      "rand", "srand", "rand_r", "drand48", "srand48", "random", "srandom"};
  for (std::size_t i = 0; i < scan.tokens.size(); ++i) {
    const Token& t = scan.tokens[i];
    if (!t.is_ident || !banned.count(t.text)) continue;
    if (is_member_access(scan.tokens, i)) continue;
    // Require a call or address-of-function shape so a local named `random`
    // used as a value does not fire; `std::rand` qualified alone still does.
    const bool qualified = i > 0 && scan.tokens[i - 1].text == "::";
    if (!qualified && !next_is(scan.tokens, i, "(")) continue;
    sink.report(t.line, "no-std-rand",
                "'" + t.text +
                    "' is a hidden global RNG stream; every draw must come "
                    "from an owned, seeded common::Rng");
  }
}

void rule_iostream_in_lib(const Scan& scan, Sink& sink) {
  for (std::size_t i = 0; i < scan.tokens.size(); ++i) {
    const Token& t = scan.tokens[i];
    if (!t.is_ident) continue;
    if (t.text != "cout" && t.text != "cerr" && t.text != "clog") continue;
    // Only the qualified stream objects (std::cout / ::cout) are findings;
    // plain `cout` is a legitimate identifier (e.g. conv output channels).
    if (i == 0 || scan.tokens[i - 1].text != "::") continue;
    sink.report(t.line, "no-iostream-in-lib",
                "library code must not write to std::" + t.text +
                    "; route structured output through obs:: or a "
                    "caller-supplied stream");
  }
}

void rule_naked_alloc(const Scan& scan, Sink& sink) {
  static const std::set<std::string, std::less<>> fns = {"malloc", "calloc",
                                                         "realloc"};
  const auto& toks = scan.tokens;
  for (std::size_t i = 0; i < toks.size(); ++i) {
    const Token& t = toks[i];
    if (!t.is_ident) continue;
    if (fns.count(t.text) && next_is(toks, i, "(") &&
        !is_member_access(toks, i)) {
      sink.report(t.line, "no-naked-alloc",
                  "'" + t.text +
                      "' in a steady-state scorer file; storage belongs in "
                      "ScorerScratch or setup-time containers");
      continue;
    }
    if (t.text == "new") {
      // Array-new detection: skip the type name (identifiers, ::, <...>)
      // and flag if the first structural token after it is '['.
      int angle_depth = 0;
      for (std::size_t j = i + 1; j < toks.size() && j < i + 24; ++j) {
        const std::string& s = toks[j].text;
        if (s == "<") ++angle_depth;
        if (s == ">") --angle_depth;
        if (angle_depth > 0 || toks[j].is_ident || s == "::" || s == "<" ||
            s == ">" || s == "*" || s == "&")
          continue;
        if (s == "[")
          sink.report(t.line, "no-naked-alloc",
                      "array new[] in a steady-state scorer file; the "
                      "allocation-free evaluate() guarantee forbids naked "
                      "heap arrays here");
        break;
      }
    }
  }
}

void rule_pragma_once(const Scan& scan, Sink& sink) {
  for (const Directive& d : scan.directives) {
    if (d.text.find("pragma") != std::string::npos &&
        d.text.find("once") != std::string::npos)
      return;
  }
  sink.report(1, "pragma-once", "header is missing '#pragma once'");
}

void rule_unordered_in_stages(const Scan& scan, Sink& sink) {
  static const std::set<std::string, std::less<>> banned = {
      "unordered_map", "unordered_set", "unordered_multimap",
      "unordered_multiset"};
  for (std::size_t i = 0; i < scan.tokens.size(); ++i) {
    const Token& t = scan.tokens[i];
    if (!t.is_ident || !banned.count(t.text)) continue;
    sink.report(t.line, "no-unordered-in-stages",
                "'" + t.text +
                    "' in core/stages/: hash-order iteration feeding "
                    "campaign state is a science_fingerprint() hazard; use "
                    "std::map / sorted std::vector, or suppress with an "
                    "ordering argument in review");
  }
  for (const Directive& d : scan.directives) {
    if (d.text.find("include") == std::string::npos) continue;
    if (d.text.find("<unordered_map>") != std::string::npos ||
        d.text.find("<unordered_set>") != std::string::npos)
      sink.report(d.line, "no-unordered-in-stages",
                  "unordered container include in core/stages/");
  }
}

void rule_detached_thread(const Scan& scan, Sink& sink) {
  const auto& toks = scan.tokens;
  for (std::size_t i = 0; i < toks.size(); ++i) {
    const Token& t = toks[i];
    if (!t.is_ident || t.text != "detach") continue;
    // Member-call shape only: `x.detach()` / `p->detach()`. A free function
    // or a declaration named detach is not a finding.
    if (!is_member_access(toks, i) || !next_is(toks, i, "(")) continue;
    sink.report(t.line, "no-detached-thread",
                "detach() in serve/: a detached worker outlives shutdown and "
                "may touch a destructed model/cache/queue; keep the handle "
                "joinable and join it on the shutdown path");
  }
}

void rule_raw_pool_install(const Scan& scan, Sink& sink) {
  const auto& toks = scan.tokens;
  for (std::size_t i = 0; i < toks.size(); ++i) {
    const Token& t = toks[i];
    if (!t.is_ident || t.text != "set_compute_pool" || !next_is(toks, i, "("))
      continue;
    sink.report(t.line, "no-raw-pool-install",
                "raw set_compute_pool() call: an early exit leaves the pool "
                "installed; use common::ComputePoolScope");
  }
}

}  // namespace

FileClass classify(std::string_view rel_path) {
  std::string p(rel_path);
  std::replace(p.begin(), p.end(), '\\', '/');
  FileClass cls;
  cls.in_src = p.rfind("src/", 0) == 0;
  cls.is_header = p.size() >= 4 && (p.ends_with(".hpp") || p.ends_with(".h"));
  if (cls.in_src && p.find("/dock/") != std::string::npos) {
    const std::string base = p.substr(p.rfind('/') + 1);
    cls.in_dock_scorer = base.rfind("score", 0) == 0 ||
                         base.rfind("grid.", 0) == 0;
  }
  // The out-of-core library files carry the same no-naked-alloc guarantee
  // as the dock scorer: the mmap read path must not grow per-ligand heap
  // state. (Being under src/, they inherit no-iostream-in-lib and
  // no-nondet-source like every library file.)
  if (cls.in_src && p.find("/chem/") != std::string::npos) {
    const std::string base = p.substr(p.rfind('/') + 1);
    cls.in_chem_store = base.rfind("store", 0) == 0 ||
                        base.rfind("ligand_source", 0) == 0;
  }
  // core/multi_campaign holds the same kind of state-merging code as the
  // stage modules (per-target reports, policy progress scans), so it gets
  // the same hash-order-iteration ban.
  cls.in_stages = p.find("core/stages/") != std::string::npos ||
                  p.find("core/multi_campaign") != std::string::npos;
  cls.in_serve = cls.in_src && p.find("/serve/") != std::string::npos;
  cls.is_pool_registry = p.rfind("src/impeccable/common/thread_pool.", 0) == 0;
  return cls;
}

std::vector<Diagnostic> lint_source(std::string_view text,
                                    const FileClass& cls,
                                    std::string_view display_path) {
  const Scan scan = scan_source(text);
  std::vector<Diagnostic> out;
  Sink sink{scan, std::string(display_path), out};
  if (cls.in_src) {
    rule_nondet_source(scan, sink);
    rule_iostream_in_lib(scan, sink);
  }
  rule_std_rand(scan, sink);
  if (cls.in_dock_scorer || cls.in_chem_store) rule_naked_alloc(scan, sink);
  if (cls.is_header) rule_pragma_once(scan, sink);
  if (cls.in_stages) rule_unordered_in_stages(scan, sink);
  if (cls.in_serve) rule_detached_thread(scan, sink);
  if (!cls.is_pool_registry) rule_raw_pool_install(scan, sink);
  std::sort(out.begin(), out.end(), [](const Diagnostic& a,
                                       const Diagnostic& b) {
    if (a.file != b.file) return a.file < b.file;
    if (a.line != b.line) return a.line < b.line;
    return a.rule < b.rule;
  });
  return out;
}

std::vector<Diagnostic> lint_file(const std::filesystem::path& path,
                                  std::string_view rel_path) {
  std::ifstream in(path, std::ios::binary);
  std::ostringstream buf;
  buf << in.rdbuf();
  if (!in.good() && !in.eof())
    return {{std::string(rel_path), 0, "io", "could not read file"}};
  return lint_source(buf.str(), classify(rel_path), rel_path);
}

std::vector<Diagnostic> lint_tree(const std::filesystem::path& root) {
  std::vector<Diagnostic> out;
  for (const char* top : {"src", "tests", "bench", "examples", "tools"}) {
    const std::filesystem::path dir = root / top;
    if (!std::filesystem::is_directory(dir)) continue;
    std::vector<std::filesystem::path> files;
    for (const auto& e :
         std::filesystem::recursive_directory_iterator(dir)) {
      if (!e.is_regular_file()) continue;
      const std::string ext = e.path().extension().string();
      if (ext == ".cpp" || ext == ".cc" || ext == ".hpp" || ext == ".h")
        files.push_back(e.path());
    }
    std::sort(files.begin(), files.end());
    for (const auto& f : files) {
      const std::string rel =
          std::filesystem::relative(f, root).generic_string();
      auto diags = lint_file(f, rel);
      out.insert(out.end(), diags.begin(), diags.end());
    }
  }
  return out;
}

std::size_t print(const std::vector<Diagnostic>& diags, std::string& out) {
  for (const auto& d : diags) {
    out += d.file;
    out += ':';
    out += std::to_string(d.line);
    out += ':';
    out += d.rule;
    out += ": ";
    out += d.message;
    out += '\n';
  }
  return diags.size();
}

bool has_tool_error(const std::vector<Diagnostic>& diags) {
  for (const auto& d : diags)
    if (d.rule == "io") return true;
  return false;
}

}  // namespace impeccable::lint
