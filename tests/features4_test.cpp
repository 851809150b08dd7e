// Tests for the fourth extension wave: weight serialization, substructure
// matching, and pilot-walltime preemption.

#include <gtest/gtest.h>

#include <filesystem>
#include <fstream>

#include "impeccable/chem/depiction.hpp"
#include "impeccable/chem/library.hpp"
#include "impeccable/chem/smiles.hpp"
#include "impeccable/chem/substructure.hpp"
#include "impeccable/ml/surrogate.hpp"
#include "impeccable/rct/backend.hpp"
#include "impeccable/rct/entk.hpp"

namespace chem = impeccable::chem;
namespace ml = impeccable::ml;
namespace rct = impeccable::rct;
namespace hpc = impeccable::hpc;

namespace {
std::filesystem::path tmp(const char* name) {
  return std::filesystem::temp_directory_path() / name;
}
}  // namespace

// ---------------------------------------------------------------- weights

TEST(Weights, SaveLoadReproducesPredictions) {
  std::vector<chem::Image> images;
  std::vector<float> labels;
  const auto lib = chem::generate_library("W", 24, 5);
  for (std::size_t i = 0; i < lib.size(); ++i) {
    images.push_back(chem::depict(chem::parse_smiles(lib.entries[i].smiles)));
    labels.push_back(i % 2 ? 1.0f : 0.0f);
  }
  ml::SurrogateOptions opts;
  opts.epochs = 2;
  ml::SurrogateModel trained(opts);
  trained.train(images, labels);

  const auto path = tmp("imp_weights.bin");
  trained.save_weights(path.string());

  // A fresh model with a different seed differs before loading...
  ml::SurrogateOptions opts2 = opts;
  opts2.seed = 999;
  ml::SurrogateModel fresh(opts2);
  const float before = fresh.predict(images[0]);
  // ...and is identical after.
  fresh.load_weights(path.string());
  for (int k = 0; k < 5; ++k)
    EXPECT_FLOAT_EQ(fresh.predict(images[static_cast<std::size_t>(k)]),
                    trained.predict(images[static_cast<std::size_t>(k)]));
  EXPECT_NE(before, fresh.predict(images[0]));
  std::filesystem::remove(path);
}

TEST(Weights, LoadRejectsArchitectureMismatch) {
  ml::SurrogateOptions small;
  small.base_filters = 4;
  small.epochs = 1;
  ml::SurrogateModel a(small);
  const auto path = tmp("imp_weights_mismatch.bin");
  a.save_weights(path.string());

  ml::SurrogateOptions big = small;
  big.base_filters = 8;
  ml::SurrogateModel b(big);
  EXPECT_THROW(b.load_weights(path.string()), std::runtime_error);
  std::filesystem::remove(path);
  EXPECT_THROW(b.load_weights("/nonexistent/w.bin"), std::runtime_error);
}

TEST(Weights, LoadRejectsGarbageFile) {
  const auto path = tmp("imp_weights_bad.bin");
  {
    std::ofstream f(path, std::ios::binary);
    f << "garbage";
  }
  ml::SurrogateModel m;
  EXPECT_THROW(m.load_weights(path.string()), std::runtime_error);
  std::filesystem::remove(path);
}

// ---------------------------------------------------------------- substructure

TEST(Substructure, FindsBenzeneInAromatics) {
  const auto toluene = chem::parse_smiles("Cc1ccccc1");
  EXPECT_TRUE(chem::has_substructure(toluene, "c1ccccc1"));
  const auto cyclohexane = chem::parse_smiles("C1CCCCC1");
  EXPECT_FALSE(chem::has_substructure(cyclohexane, "c1ccccc1"));
}

TEST(Substructure, CarboxylicAcidMotif) {
  EXPECT_TRUE(chem::has_substructure(
      chem::parse_smiles("CC(C)Cc1ccc(cc1)C(C)C(=O)O"), "C(=O)O"));
  EXPECT_FALSE(chem::has_substructure(chem::parse_smiles("CCOCC"), "C(=O)O"));
}

TEST(Substructure, BondOrderMatters) {
  const auto ethene = chem::parse_smiles("C=C");
  const auto ethane = chem::parse_smiles("CC");
  EXPECT_TRUE(chem::has_substructure(ethene, "C=C"));
  EXPECT_FALSE(chem::has_substructure(ethane, "C=C"));
  EXPECT_FALSE(chem::has_substructure(ethene, "CC"));  // single-bond query
}

TEST(Substructure, CountsMultipleOccurrences) {
  // Terephthalic-acid-like: two carboxyls on a ring.
  const auto mol = chem::parse_smiles("OC(=O)c1ccc(cc1)C(=O)O");
  // Each C(=O)O matches; O ordering yields one mapping per group.
  EXPECT_EQ(chem::count_substructures(mol, chem::parse_smiles("C(=O)O")), 2u);
}

TEST(Substructure, QueryLargerThanMoleculeNeverMatches) {
  const auto small = chem::parse_smiles("CC");
  EXPECT_FALSE(chem::has_substructure(small, "CCCC"));
  EXPECT_TRUE(chem::find_substructures(small, chem::parse_smiles("CCC")).empty());
}

TEST(Substructure, MatchMapsAreConsistent) {
  const auto mol = chem::parse_smiles("CCOc1ccccc1");
  const auto query = chem::parse_smiles("COc1ccccc1");
  const auto matches = chem::find_substructures(mol, query, 4);
  ASSERT_FALSE(matches.empty());
  for (const auto& map : matches) {
    ASSERT_EQ(map.size(), static_cast<std::size_t>(query.atom_count()));
    for (int qa = 0; qa < query.atom_count(); ++qa)
      EXPECT_EQ(mol.atom(map[static_cast<std::size_t>(qa)]).element,
                query.atom(qa).element);
  }
}

TEST(Substructure, RingQueryRequiresRing) {
  // Pyridine in a fused system.
  const auto mol = chem::parse_smiles("c1ccc2ncccc2c1");  // quinoline
  EXPECT_TRUE(chem::has_substructure(mol, "c1ccncc1"));
  EXPECT_FALSE(chem::has_substructure(chem::parse_smiles("c1ccccc1"), "c1ccncc1"));
}

// ---------------------------------------------------------------- walltime

TEST(PilotWalltime, LongTaskDiesAtBoundaryAndRetrySucceedsAfterSplit) {
  rct::SimBackendOptions sopts;
  sopts.pilot_walltime = 10.0;
  sopts.task_overhead = 0.0;
  rct::SimBackend backend(hpc::test_machine(1), sopts);

  rct::TaskDescription t;
  t.name = "long";
  t.gpus = 1;
  t.duration = 25.0;  // spans three allocations
  std::vector<rct::TaskResult> results;
  backend.submit(t, [&](const rct::TaskResult& r) { results.push_back(r); });
  backend.drain();
  ASSERT_EQ(results.size(), 1u);
  EXPECT_FALSE(results[0].ok);
  EXPECT_EQ(results[0].error, "pilot walltime");
  EXPECT_NEAR(results[0].end_time, 10.0, 1e-9);
  EXPECT_GE(backend.pilot_generation(), 2);
}

TEST(PilotWalltime, ShortTasksSurviveAcrossGenerations) {
  rct::SimBackendOptions sopts;
  sopts.pilot_walltime = 20.0;
  sopts.task_overhead = 0.0;
  rct::SimBackend backend(hpc::test_machine(1), sopts);

  // 12 tasks x 5 s on 6 GPUs: two waves fit in the first pilot; later
  // submissions land in the second.
  int ok = 0, killed = 0;
  for (int i = 0; i < 30; ++i) {
    rct::TaskDescription t;
    t.gpus = 1;
    t.duration = 5.0;
    backend.submit(t, [&](const rct::TaskResult& r) {
      if (r.ok) ++ok;
      else ++killed;
    });
  }
  backend.drain();
  EXPECT_EQ(ok + killed, 30);
  EXPECT_GT(ok, 20);  // most tasks fit within boundaries
}

TEST(PilotWalltime, AppManagerRetriesAcrossPilots) {
  // A task whose duration fits a pilot but that starts mid-allocation gets
  // killed once and then succeeds in the next pilot via EnTK retry.
  rct::SimBackendOptions sopts;
  sopts.pilot_walltime = 10.0;
  sopts.task_overhead = 0.0;
  rct::SimBackend backend(hpc::test_machine(1), sopts);
  rct::AppManagerOptions mopts;
  mopts.max_retries = 3;
  mopts.stage_transition_overhead = 0.0;
  rct::AppManager mgr(backend, mopts);

  rct::TaskDescription blocker;  // occupies the pilot for 6 s first
  blocker.name = "blocker";
  blocker.gpus = 6;
  blocker.whole_nodes = 1;
  blocker.duration = 6.0;
  rct::TaskDescription work;  // 8 s: dies at t=10, succeeds on retry
  work.name = "work";
  work.gpus = 1;
  work.duration = 8.0;
  rct::StageGraph g;
  const auto s1 =
      g.add({.name = "s1", .pipeline = "walltime", .tasks = {blocker}});
  g.add({.name = "s2", .pipeline = "walltime", .tasks = {work}}, {s1});

  const auto report = mgr.run_graph(std::move(g));
  ASSERT_EQ(report.results.size(), 2u);
  for (const auto& r : report.results)
    EXPECT_TRUE(r.ok) << r.name << ": " << r.error;
  EXPECT_EQ(report.retries, 1u);
}
