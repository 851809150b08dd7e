// Tests for the fifth extension wave: protonation rules, AAE serialization,
// campaign profiling, and the profile CSV export.

#include <gtest/gtest.h>

#include <filesystem>
#include <fstream>

#include "impeccable/chem/protonation.hpp"
#include "impeccable/chem/smiles.hpp"
#include "impeccable/common/vec3.hpp"
#include "impeccable/ml/aae.hpp"
#include "impeccable/obs/recorder.hpp"
#include "impeccable/rct/backend.hpp"
#include "impeccable/rct/profiler.hpp"

namespace chem = impeccable::chem;
namespace ml = impeccable::ml;
namespace obs = impeccable::obs;
namespace rct = impeccable::rct;
namespace hpc = impeccable::hpc;
using impeccable::common::Vec3;

// ---------------------------------------------------------------- protonation

TEST(Protonation, CarboxylDeprotonatesAtPhysiologicalPh) {
  const auto mol = chem::parse_smiles("CC(=O)O");
  const auto prep = chem::protonate_for_ph(mol, 7.4);
  int anions = 0;
  for (int i = 0; i < prep.atom_count(); ++i)
    if (prep.atom(i).formal_charge == -1) ++anions;
  EXPECT_EQ(anions, 1);
  // Below the pKa it stays neutral.
  const auto acid = chem::protonate_for_ph(mol, 2.0);
  for (int i = 0; i < acid.atom_count(); ++i)
    EXPECT_EQ(acid.atom(i).formal_charge, 0);
}

TEST(Protonation, AliphaticAmineProtonates) {
  const auto mol = chem::parse_smiles("CCN");
  const auto prep = chem::protonate_for_ph(mol, 7.4);
  int cations = 0, n_idx = -1;
  for (int i = 0; i < prep.atom_count(); ++i)
    if (prep.atom(i).formal_charge == 1) {
      ++cations;
      n_idx = i;
    }
  ASSERT_EQ(cations, 1);
  EXPECT_EQ(prep.hydrogen_count(n_idx), 3);  // NH2 -> NH3+
  // Above the amine pKa it stays neutral.
  const auto basic = chem::protonate_for_ph(mol, 12.0);
  for (int i = 0; i < basic.atom_count(); ++i)
    EXPECT_EQ(basic.atom(i).formal_charge, 0);
}

TEST(Protonation, AmidesAnilinesAndAromaticsAreUntouched) {
  for (const char* s : {"CC(=O)N", "Nc1ccccc1", "c1ccncc1", "CC#N"}) {
    const auto prep = chem::protonate_for_ph(chem::parse_smiles(s), 7.4);
    for (int i = 0; i < prep.atom_count(); ++i)
      EXPECT_EQ(prep.atom(i).formal_charge, 0) << s;
  }
}

TEST(Protonation, IonizableSiteCensus) {
  // Glycine-like: one acid + one base.
  const auto mol = chem::parse_smiles("NCC(=O)O");
  const auto [acids, bases] = chem::ionizable_sites(mol);
  EXPECT_EQ(acids, 1);
  EXPECT_EQ(bases, 1);
  // Zwitterion after preparation.
  const auto prep = chem::protonate_for_ph(mol, 7.4);
  int net = 0;
  for (int i = 0; i < prep.atom_count(); ++i) net += prep.atom(i).formal_charge;
  EXPECT_EQ(net, 0);
}

TEST(Protonation, PreservesGraphShape) {
  const auto mol = chem::parse_smiles("NCCCC(=O)O");
  const auto prep = chem::protonate_for_ph(mol, 7.4);
  EXPECT_EQ(prep.atom_count(), mol.atom_count());
  EXPECT_EQ(prep.bond_count(), mol.bond_count());
}

// ---------------------------------------------------------------- AAE weights

TEST(AaeWeights, SaveLoadReproducesEmbeddings) {
  std::vector<std::vector<Vec3>> clouds;
  impeccable::common::Rng rng(3);
  for (int c = 0; c < 12; ++c) {
    std::vector<Vec3> cloud;
    for (int p = 0; p < 8; ++p)
      cloud.push_back({rng.gauss(), rng.gauss(), rng.gauss()});
    clouds.push_back(std::move(cloud));
  }
  ml::AaeOptions opts;
  opts.epochs = 2;
  opts.batch_size = 6;
  ml::Aae3d trained(8, opts);
  trained.train(clouds);

  const auto prefix =
      (std::filesystem::temp_directory_path() / "imp_aae").string();
  trained.save_weights(prefix);

  ml::AaeOptions opts2 = opts;
  opts2.seed = 4242;
  ml::Aae3d fresh(8, opts2);
  fresh.load_weights(prefix);
  const auto a = trained.embed(clouds[0]);
  const auto b = fresh.embed(clouds[0]);
  ASSERT_EQ(a.size(), b.size());
  for (std::size_t i = 0; i < a.size(); ++i) EXPECT_DOUBLE_EQ(a[i], b[i]);
  for (const char* suffix : {".enc", ".dec", ".critic"})
    std::filesystem::remove(prefix + suffix);
}

// ---------------------------------------------------------------- profile CSV

TEST(ProfileCsv, WritesOneRowPerTask) {
  obs::Recorder rec;
  rct::SimBackend backend(hpc::test_machine(1));
  backend.set_recorder(&rec);
  for (int i = 0; i < 3; ++i) {
    rct::TaskDescription t;
    t.name = "t";
    t.name += std::to_string(i);
    t.gpus = 1;
    t.duration = 2.0;
    backend.submit(t, [](const rct::TaskResult&) {});
  }
  backend.drain();

  const auto path = std::filesystem::temp_directory_path() / "imp_profile.csv";
  rct::SessionProfile::from_trace(rec.snapshot()).write_csv(path.string());
  std::ifstream f(path);
  std::string line;
  int rows = 0;
  std::getline(f, line);
  EXPECT_EQ(line,
            "name,submit,start,end,queue_wait,runtime,ok,cpus,gpus,"
            "whole_nodes,error");
  while (std::getline(f, line))
    if (!line.empty()) ++rows;
  EXPECT_EQ(rows, 3);
  std::filesystem::remove(path);
}
