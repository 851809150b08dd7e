// Tests for the third extension wave: structure/trajectory file I/O,
// and block-average error analysis (RAPTOR worker fault tolerance lives in
// raptor_test.cpp).

#include <gtest/gtest.h>

#include <filesystem>
#include <fstream>

#include "impeccable/common/rng.hpp"
#include "impeccable/common/stats.hpp"
#include "impeccable/md/io.hpp"
#include "impeccable/md/simulation.hpp"
#include "impeccable/md/system.hpp"

namespace md = impeccable::md;
namespace stats = impeccable::common;
using impeccable::common::Rng;

namespace {

std::filesystem::path tmp_file(const char* name) {
  return std::filesystem::temp_directory_path() / name;
}

}  // namespace

// ---------------------------------------------------------------- io

TEST(Io, PdbHasOneRecordPerBead) {
  md::ProteinOptions popts;
  popts.residues = 12;
  const auto sys = md::build_protein(3, popts);
  const auto path = tmp_file("imp_test.pdb");
  md::write_pdb(sys, sys.positions, path.string());

  std::ifstream f(path);
  std::string line;
  int atoms = 0;
  bool end_seen = false;
  while (std::getline(f, line)) {
    if (line.rfind("ATOM", 0) == 0 || line.rfind("HETATM", 0) == 0) ++atoms;
    if (line.rfind("END", 0) == 0) end_seen = true;
  }
  EXPECT_EQ(atoms, 12);
  EXPECT_TRUE(end_seen);
  std::filesystem::remove(path);
}

TEST(Io, PdbRejectsMismatchedPositions) {
  md::ProteinOptions popts;
  popts.residues = 5;
  const auto sys = md::build_protein(3, popts);
  std::vector<impeccable::common::Vec3> wrong(3);
  EXPECT_THROW(md::write_pdb(sys, wrong, tmp_file("x.pdb").string()),
               std::invalid_argument);
}

TEST(Io, XyzRoundTripsTrajectory) {
  md::ProteinOptions popts;
  popts.residues = 10;
  const auto sys = md::build_protein(5, popts);
  md::SimulationOptions so;
  so.equilibration_steps = 10;
  so.production_steps = 60;
  so.report_interval = 20;
  const auto res = md::run_replica(sys, so, 2);

  const auto path = tmp_file("imp_test.xyz");
  md::write_xyz(res.trajectory, path.string());
  const auto back = md::read_xyz(path.string());
  ASSERT_EQ(back.size(), res.trajectory.size());
  for (std::size_t fidx = 0; fidx < back.size(); ++fidx) {
    ASSERT_EQ(back.frames[fidx].positions.size(),
              res.trajectory.frames[fidx].positions.size());
    for (std::size_t i = 0; i < back.frames[fidx].positions.size(); ++i)
      EXPECT_NEAR(impeccable::common::distance(
                      back.frames[fidx].positions[i],
                      res.trajectory.frames[fidx].positions[i]),
                  0.0, 1e-5);
  }
  std::filesystem::remove(path);
}

TEST(Io, XyzRejectsGarbage) {
  const auto path = tmp_file("imp_bad.xyz");
  {
    std::ofstream f(path);
    f << "not a count\ncomment\n";
  }
  EXPECT_THROW(md::read_xyz(path.string()), std::runtime_error);
  {
    std::ofstream f(path);
    f << "3\ncomment\nC 1 2 3\n";  // truncated frame
  }
  EXPECT_THROW(md::read_xyz(path.string()), std::runtime_error);
  std::filesystem::remove(path);
  EXPECT_THROW(md::read_xyz("/nonexistent/file.xyz"), std::runtime_error);
}

// ------------------------------------------------------------ block averaging

TEST(BlockAverage, MatchesPlainSemForIidData) {
  Rng rng(6);
  std::vector<double> xs;
  for (int i = 0; i < 4096; ++i) xs.push_back(rng.gauss(0, 1));
  const double plain = stats::std_error(xs);
  const double block = stats::block_average_error(xs);
  EXPECT_GE(block, plain * 0.9);
  EXPECT_LE(block, plain * 1.8);
}

TEST(BlockAverage, ExceedsPlainSemForCorrelatedData) {
  // AR(1) with strong autocorrelation: the naive SEM badly underestimates.
  Rng rng(7);
  std::vector<double> xs;
  double x = 0.0;
  const double phi = 0.95;
  for (int i = 0; i < 4096; ++i) {
    x = phi * x + rng.gauss(0, 1);
    xs.push_back(x);
  }
  const double plain = stats::std_error(xs);
  const double block = stats::block_average_error(xs);
  EXPECT_GT(block, 2.0 * plain);
}

TEST(BlockAverage, SmallInputsAreSafe) {
  EXPECT_EQ(stats::block_average_error({}), 0.0);
  const std::vector<double> one{1.0};
  EXPECT_EQ(stats::block_average_error(one), 0.0);
  const std::vector<double> two{1.0, 2.0};
  EXPECT_GT(stats::block_average_error(two), 0.0);
}
