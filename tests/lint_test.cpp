// Tests for tools/lint: every rule fires on a crafted bad snippet, scoping
// and suppressions work, and the real tree is clean (the same property the
// `lint.tree` ctest enforces, checked here through the library API so a
// regression points at the rule, not just the tool's exit code).

#include <gtest/gtest.h>

#include <algorithm>
#include <string>
#include <vector>

#include "lint.hpp"

namespace lint = impeccable::lint;

namespace {

std::vector<lint::Diagnostic> lint_as(std::string_view path,
                                      std::string_view code) {
  return lint::lint_source(code, lint::classify(path), path);
}

TEST(LintClassify, PathClasses) {
  auto src = lint::classify("src/impeccable/ml/tensor.hpp");
  EXPECT_TRUE(src.in_src);
  EXPECT_TRUE(src.is_header);
  EXPECT_FALSE(src.in_dock_scorer);
  EXPECT_FALSE(src.in_stages);

  EXPECT_TRUE(lint::classify("src/impeccable/dock/score.cpp").in_dock_scorer);
  EXPECT_TRUE(lint::classify("src/impeccable/dock/grid.hpp").in_dock_scorer);
  EXPECT_TRUE(
      lint::classify("src/impeccable/dock/score_batch.cpp").in_dock_scorer);
  EXPECT_TRUE(
      lint::classify("src/impeccable/dock/score_batch.hpp").in_dock_scorer);
  EXPECT_FALSE(
      lint::classify("src/impeccable/dock/engine.cpp").in_dock_scorer);
  EXPECT_TRUE(
      lint::classify("src/impeccable/core/stages/ml1_stage.cpp").in_stages);
  EXPECT_FALSE(lint::classify("tests/lint_test.cpp").in_src);

  auto serve = lint::classify("src/impeccable/serve/server.cpp");
  EXPECT_TRUE(serve.in_serve);
  EXPECT_TRUE(serve.in_src) << "serve/ must inherit the src/-wide rules";
  // A serve/ directory outside src/ (e.g. tests fixtures) is not the class.
  EXPECT_FALSE(lint::classify("tests/serve/fake.cpp").in_serve);
}

TEST(LintRules, NondetSourceFires) {
  const char* bad = R"(
#include <ctime>
void f() {
  std::random_device rd;
  auto t = time(nullptr);
  auto c = clock();
  auto* e = getenv("HOME");
  auto n = std::chrono::system_clock::now();
  (void)rd; (void)t; (void)c; (void)e; (void)n;
}
)";
  auto diags = lint_as("src/impeccable/x/y.cpp", bad);
  int nondet = 0;
  for (const auto& d : diags)
    if (d.rule == "no-nondet-source") ++nondet;
  EXPECT_GE(nondet, 5) << "include, random_device, time(), clock(), getenv, "
                          "system_clock should all fire";
}

TEST(LintRules, NondetSourceScopedToSrc) {
  const char* bad = "void f() { auto t = time(nullptr); (void)t; }\n";
  EXPECT_FALSE(lint_as("src/impeccable/x/y.cpp", bad).empty());
  EXPECT_TRUE(lint_as("tests/some_test.cpp", bad).empty());
  EXPECT_TRUE(lint_as("examples/quickstart.cpp", bad).empty());
}

TEST(LintRules, NondetSourceNoMemberFalsePositives) {
  // Members and methods *named* time/clock are fine — only the global
  // wall-clock calls are banned.
  const char* ok = R"(
struct Event { double time = 0.0; };
void f(Event& ev, Recorder& r) {
  double a = ev.time;
  double b = r.start_time();
  double c = span->time();
  (void)a; (void)b; (void)c;
}
)";
  EXPECT_TRUE(lint_as("src/impeccable/hpc/des.cpp", ok).empty());
}

TEST(LintRules, StdRandFiresEverywhere) {
  const char* bad = "int f() { srand(7); return rand(); }\n";
  for (const char* path : {"src/impeccable/x.cpp", "tests/t.cpp",
                           "bench/b.cpp", "examples/e.cpp"}) {
    auto diags = lint_as(path, bad);
    ASSERT_FALSE(diags.empty()) << path;
    EXPECT_EQ(diags[0].rule, "no-std-rand");
  }
  // A local variable named `random` (no call, unqualified) is not a finding.
  EXPECT_TRUE(
      lint_as("src/impeccable/x.cpp", "int g(int random) { return random; }\n")
          .empty());
}

TEST(LintRules, IostreamInLibFires) {
  const char* bad = "#include <iostream>\nvoid f() { std::cout << 1; }\n";
  auto diags = lint_as("src/impeccable/x.cpp", bad);
  ASSERT_EQ(diags.size(), 1u);
  EXPECT_EQ(diags[0].rule, "no-iostream-in-lib");
  EXPECT_EQ(diags[0].line, 2);
  // Examples and tests may print.
  EXPECT_TRUE(lint_as("examples/e.cpp", bad).empty());
  // A plain identifier named cout (conv output channels) is not a finding.
  EXPECT_TRUE(
      lint_as("src/impeccable/ml/x.cpp", "int f(int cout) { return cout; }\n")
          .empty());
}

TEST(LintRules, NakedAllocFiresInScorerFiles) {
  const char* bad = R"(
void f(int n) {
  double* a = new double[n];
  void* m = malloc(16);
  auto* v = new std::vector<double>(n);
  delete[] a; free(m); delete v;
}
)";
  auto diags = lint_as("src/impeccable/dock/score.cpp", bad);
  int alloc = 0;
  for (const auto& d : diags)
    if (d.rule == "no-naked-alloc") ++alloc;
  EXPECT_EQ(alloc, 2) << "new[] and malloc fire; scalar new does not";
  // Same code elsewhere in dock/ is out of the rule's scope.
  EXPECT_TRUE(lint_as("src/impeccable/dock/engine.cpp", bad).empty());
}

TEST(LintRules, NakedAllocCoversChemStoreFiles) {
  // The out-of-core library files carry the scorer's allocation guarantee:
  // the mmap read path must not grow per-ligand heap state.
  EXPECT_TRUE(lint::classify("src/impeccable/chem/store.cpp").in_chem_store);
  EXPECT_TRUE(lint::classify("src/impeccable/chem/store.hpp").in_chem_store);
  EXPECT_TRUE(lint::classify("src/impeccable/chem/ligand_source.cpp")
                  .in_chem_store);
  EXPECT_FALSE(
      lint::classify("src/impeccable/chem/library.cpp").in_chem_store);
  EXPECT_FALSE(lint::classify("tests/store_fake.cpp").in_chem_store);

  const char* bad = "void f() { void* m = malloc(8); free(m); }\n";
  auto diags = lint_as("src/impeccable/chem/store.cpp", bad);
  ASSERT_EQ(diags.size(), 1u);
  EXPECT_EQ(diags[0].rule, "no-naked-alloc");
  // And they inherit the src/-wide rules (iostream ban) like any library
  // file.
  auto io = lint_as("src/impeccable/chem/ligand_source.cpp",
                    "void g() { std::cout << 1; }\n");
  ASSERT_EQ(io.size(), 1u);
  EXPECT_EQ(io[0].rule, "no-iostream-in-lib");
  // Other chem/ files stay out of the allocation rule's scope.
  EXPECT_TRUE(lint_as("src/impeccable/chem/library.cpp", bad).empty());
}

TEST(LintRules, PragmaOnce) {
  auto diags = lint_as("src/impeccable/x.hpp", "struct A {};\n");
  ASSERT_EQ(diags.size(), 1u);
  EXPECT_EQ(diags[0].rule, "pragma-once");
  EXPECT_EQ(diags[0].line, 1);
  EXPECT_TRUE(
      lint_as("src/impeccable/x.hpp", "#pragma once\nstruct A {};\n").empty());
  // .cpp files are exempt.
  EXPECT_TRUE(lint_as("src/impeccable/x.cpp", "struct A {};\n").empty());
}

TEST(LintRules, UnorderedInStages) {
  const char* bad =
      "#include <unordered_map>\n"
      "std::unordered_map<int, int> m;\n";
  auto diags = lint_as("src/impeccable/core/stages/s.cpp", bad);
  ASSERT_GE(diags.size(), 2u);
  EXPECT_EQ(diags[0].rule, "no-unordered-in-stages");
  // The multi-campaign engine merges per-target state the same way the
  // stage modules do, so it inherits the rule.
  auto multi = lint_as("src/impeccable/core/multi_campaign.cpp", bad);
  ASSERT_GE(multi.size(), 2u);
  EXPECT_EQ(multi[0].rule, "no-unordered-in-stages");
  // Outside core/stages/ the containers are allowed (md's exclusion set).
  EXPECT_TRUE(lint_as("src/impeccable/md/forcefield.hpp",
                      "#pragma once\n" + std::string(bad))
                  .empty());
}

TEST(LintRules, ServeInheritsSrcRules) {
  // The serving layer is library code: wall-clock sources and iostream
  // writes are findings exactly as anywhere else under src/.
  EXPECT_FALSE(lint_as("src/impeccable/serve/server.cpp",
                       "void f() { auto t = time(nullptr); (void)t; }\n")
                   .empty());
  EXPECT_FALSE(lint_as("src/impeccable/serve/loadgen.cpp",
                       "#include <iostream>\nvoid f() { std::cout << 1; }\n")
                   .empty());
}

TEST(LintRules, DetachedThreadFiresOnlyInServe) {
  const char* bad = "void f(std::thread& t) { t.detach(); }\n";
  auto diags = lint_as("src/impeccable/serve/server.cpp", bad);
  ASSERT_EQ(diags.size(), 1u);
  EXPECT_EQ(diags[0].rule, "no-detached-thread");
  // Other modules (and non-src serve/ paths) are out of scope.
  EXPECT_TRUE(lint_as("src/impeccable/common/thread_pool.cpp", bad).empty());
  EXPECT_TRUE(lint_as("tests/serve_test.cpp", bad).empty());
  // Only the member-call shape fires: a function named detach is fine.
  EXPECT_TRUE(lint_as("src/impeccable/serve/x.cpp",
                      "void detach(); void g() { detach(); }\n")
                  .empty());
  // Suppressible like every rule.
  EXPECT_TRUE(lint_as("src/impeccable/serve/x.cpp",
                      "void f(std::thread& t) { t.detach(); }  "
                      "// lint:allow(no-detached-thread)\n")
                  .empty());
}

TEST(LintRules, RawPoolInstallFiresInTests) {
  const char* raw =
      "void f(ic::ThreadPool& pool) {\n"
      "  ic::set_compute_pool(&pool);\n"
      "  run();\n"
      "  ic::set_compute_pool(nullptr);\n"
      "}\n";
  auto diags = lint_as("tests/exec_engine_test.cpp", raw);
  ASSERT_EQ(diags.size(), 2u);
  EXPECT_EQ(diags[0].rule, "no-raw-pool-install");
  EXPECT_EQ(diags[0].line, 2);
  EXPECT_EQ(diags[1].line, 4);
  // The registry itself defines and calls it.
  EXPECT_TRUE(lint_as("src/impeccable/common/thread_pool.cpp", raw).empty());
}

TEST(LintRules, ComputePoolScopeIsClean) {
  EXPECT_TRUE(lint_as("tests/exec_engine_test.cpp",
                      "void f(ic::ThreadPool& pool) {\n"
                      "  const ic::ComputePoolScope scope(&pool);\n"
                      "  run();\n"
                      "}\n"
                      "using impeccable::common::set_compute_pool;\n")
                  .empty());
}

TEST(LintScanner, LiteralsAndCommentsDoNotFire) {
  const char* ok = R"(
// rand() in a comment, and time() too
/* std::cout << rand(); */
const char* s = "time(nullptr) rand() std::cout";
const char* r = R"x(getenv("PATH") clock())x";
char c = '"';
int after = rand;  // identifier use without call or qualifier
)";
  EXPECT_TRUE(lint_as("src/impeccable/x.cpp", ok).empty());
}

TEST(LintSuppress, SameLine) {
  auto diags = lint_as("src/impeccable/x.cpp",
                       "int a = rand();  // lint:allow(no-std-rand)\n");
  EXPECT_TRUE(diags.empty());
  // A suppression for a different rule does not hide the finding.
  diags = lint_as("src/impeccable/x.cpp",
                  "int a = rand();  // lint:allow(pragma-once)\n");
  ASSERT_EQ(diags.size(), 1u);
  EXPECT_EQ(diags[0].rule, "no-std-rand");
}

TEST(LintSuppress, NextLineAndFile) {
  EXPECT_TRUE(lint_as("src/impeccable/x.cpp",
                      "// lint:allow-next-line(no-std-rand)\n"
                      "int a = rand();\n")
                  .empty());
  EXPECT_TRUE(lint_as("src/impeccable/x.cpp",
                      "// lint:allow-file(no-std-rand)\n"
                      "int a = rand();\n"
                      "int b = rand();\n")
                  .empty());
  // allow-next-line covers only the following line.
  auto diags = lint_as("src/impeccable/x.cpp",
                       "// lint:allow-next-line(no-std-rand)\n"
                       "int a = rand();\n"
                       "int b = rand();\n");
  ASSERT_EQ(diags.size(), 1u);
  EXPECT_EQ(diags[0].line, 3);
}

TEST(LintSuppress, CommaSeparatedList) {
  EXPECT_TRUE(lint_as("src/impeccable/x.hpp",
                      "// lint:allow-file(no-std-rand, pragma-once)\n"
                      "int a = rand();\n")
                  .empty());
}

TEST(LintTree, RealTreeIsClean) {
  const auto diags = lint::lint_tree(IMPECCABLE_SOURCE_DIR);
  std::string rendered;
  lint::print(diags, rendered);
  EXPECT_TRUE(diags.empty()) << rendered;
}

TEST(LintPrint, Format) {
  // Machine-readable file:line:rule: message — shared with imp_audit so
  // tooling parses both the same way.
  std::vector<lint::Diagnostic> d = {
      {"src/a.cpp", 7, "no-std-rand", "boom"}};
  std::string out;
  EXPECT_EQ(lint::print(d, out), 1u);
  EXPECT_EQ(out, "src/a.cpp:7:no-std-rand: boom\n");
}

TEST(LintPrint, ToolErrorDetection) {
  // Rule "io" marks a tool error (unreadable file): drivers exit 2, not 1.
  std::vector<lint::Diagnostic> clean = {
      {"src/a.cpp", 7, "no-std-rand", "boom"}};
  EXPECT_FALSE(lint::has_tool_error(clean));
  std::vector<lint::Diagnostic> broken = {
      {"src/missing.cpp", 0, "io", "could not read file"}};
  EXPECT_TRUE(lint::has_tool_error(broken));
}

}  // namespace
