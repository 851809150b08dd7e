// Tests for campaign checkpointing, resume, and the CSV interchange.

#include <gtest/gtest.h>

#include <bit>
#include <cmath>
#include <cstdint>
#include <filesystem>
#include <fstream>

#include "impeccable/core/campaign.hpp"
#include "impeccable/core/checkpoint.hpp"

namespace core = impeccable::core;
namespace fe = impeccable::fe;

namespace {

core::ScienceConfig mini_science(int iterations) {
  core::ScienceConfig sci;
  sci.library_size = 40;
  sci.iterations = iterations;
  sci.bootstrap_docks = 10;
  sci.dock_top_fraction = 0.3;
  sci.cg_compounds = 2;
  sci.top_binders = 1;
  sci.outliers_per_binder = 1;
  sci.dock.runs = 1;
  sci.dock.lga.population = 12;
  sci.dock.lga.generations = 4;
  sci.esmacs_cg = fe::cg_config(0.2);
  sci.esmacs_cg.replicas = 2;
  sci.esmacs_fg = fe::fg_config(0.05);
  sci.esmacs_fg.replicas = 2;
  sci.surrogate.epochs = 2;
  sci.aae.epochs = 2;
  return sci;
}

core::ExecConfig mini_exec() {
  core::ExecConfig exec;
  exec.seed = 77;
  return exec;
}

std::filesystem::path tmp(const char* name) {
  return std::filesystem::temp_directory_path() / name;
}

}  // namespace

TEST(Checkpoint, RoundTripsRecords) {
  core::CampaignReport report;
  core::CompoundRecord a;
  a.id = "X-1";
  a.smiles = "CCO";
  a.surrogate_score = 0.7;
  a.docked = true;
  a.dock_score = -42.5;
  a.cg_done = true;
  a.cg_energy = -30.25;
  a.cg_error = 0.5;
  a.fg_energies = {-35.0, -33.5};
  core::CompoundRecord b;
  b.id = "X-2";
  b.smiles = "c1ccccc1";
  report.compounds = {{a.id, a}, {b.id, b}};

  const auto path = tmp("imp_ckpt.csv");
  core::write_checkpoint(report, path.string());
  const auto back = core::read_checkpoint(path.string());

  ASSERT_EQ(back.size(), 2u);
  const auto& ra = back.at("X-1");
  EXPECT_EQ(ra.smiles, "CCO");
  EXPECT_TRUE(ra.docked);
  EXPECT_DOUBLE_EQ(ra.dock_score, -42.5);
  EXPECT_TRUE(ra.cg_done);
  EXPECT_DOUBLE_EQ(ra.cg_energy, -30.25);
  ASSERT_EQ(ra.fg_energies.size(), 2u);
  EXPECT_DOUBLE_EQ(ra.fg_energies[1], -33.5);
  const auto& rb = back.at("X-2");
  EXPECT_FALSE(rb.docked);
  EXPECT_TRUE(rb.fg_energies.empty());
  std::filesystem::remove(path);
}

TEST(Checkpoint, RoundTripIsBitwiseLossless) {
  // Values that need more than the stream default of 6 significant digits:
  // every double field must read back with the identical bit pattern.
  const auto bits = [](double v) { return std::bit_cast<std::uint64_t>(v); };
  core::CampaignReport report;
  for (int i = 0; i < 8; ++i) {
    core::CompoundRecord r;
    r.id = "L-" + std::to_string(i);
    r.smiles = "CCO";
    r.surrogate_score = 1.0 / (3.0 + i);
    r.docked = true;
    r.dock_score = -86.78881234567891 - 0.1 * i;
    r.cg_done = true;
    r.cg_energy = -std::sqrt(2.0) * (40.0 + i);
    r.cg_error = 0.1 + 0.2 * i;
    r.fg_energies = {-std::exp(3.5 + 0.01 * i), std::nextafter(-33.5, 0.0)};
    report.compounds[r.id] = r;
  }

  const auto path = tmp("imp_ckpt_lossless.csv");
  core::write_checkpoint(report, path.string());
  const auto back = core::read_checkpoint(path.string());
  std::filesystem::remove(path);

  ASSERT_EQ(back.size(), report.compounds.size());
  for (const auto& [id, want] : report.compounds) {
    const core::CompoundRecord& got = back.at(id);
    EXPECT_EQ(bits(got.surrogate_score), bits(want.surrogate_score)) << id;
    EXPECT_EQ(bits(got.dock_score), bits(want.dock_score)) << id;
    EXPECT_EQ(bits(got.cg_energy), bits(want.cg_energy)) << id;
    EXPECT_EQ(bits(got.cg_error), bits(want.cg_error)) << id;
    ASSERT_EQ(got.fg_energies.size(), want.fg_energies.size()) << id;
    for (std::size_t k = 0; k < want.fg_energies.size(); ++k)
      EXPECT_EQ(bits(got.fg_energies[k]), bits(want.fg_energies[k])) << id;
  }
}

TEST(Checkpoint, WriteFailureThrows) {
  // /dev/full opens fine but every write fails with ENOSPC: the error only
  // shows when the buffered rows are flushed, and must not pass silently.
  core::CampaignReport report;
  core::CompoundRecord r;
  r.id = "X-1";
  r.smiles = "CCO";
  report.compounds[r.id] = r;
  EXPECT_THROW(core::write_checkpoint(report, "/dev/full"), std::runtime_error);
}

TEST(Checkpoint, ScoresCsvWriteFailureThrows) {
  EXPECT_THROW(
      core::write_scores_csv({{"A", -1.5}}, {{"A", "CCO"}}, "/dev/full"),
      std::runtime_error);
}

TEST(Checkpoint, RejectsMalformedFiles) {
  const auto path = tmp("imp_bad_ckpt.csv");
  {
    std::ofstream f(path);
    f << "wrong,header\n";
  }
  EXPECT_THROW(core::read_checkpoint(path.string()), std::runtime_error);
  {
    std::ofstream f(path);
    f << "id,smiles,surrogate_score,docked,dock_score,cg_done,cg_energy,"
         "cg_error,fg_energies\n";
    f << "X-1,CCO,notanumber,1,2,0,0,0,\n";
  }
  EXPECT_THROW(core::read_checkpoint(path.string()), std::runtime_error);
  std::filesystem::remove(path);
  EXPECT_THROW(core::read_checkpoint("/nonexistent.csv"), std::runtime_error);
}

TEST(Checkpoint, ResumeSkipsFinishedDockingWork) {
  const auto path = tmp("imp_resume.csv");

  // First leg: one iteration.
  core::Target t1 = core::Target::make("R", 5, 30, 15);
  core::Campaign first(std::move(t1), mini_science(1), mini_exec());
  const auto rep1 = first.run();
  core::write_checkpoint(rep1, path.string());
  std::size_t docked1 = 0;
  for (const auto& [id, rec] : rep1.compounds)
    if (rec.docked) ++docked1;
  ASSERT_GT(docked1, 0u);

  // Second leg resumes: with the same seed, the bootstrap set is identical,
  // so no compound is re-docked.
  core::ExecConfig exec = mini_exec();
  exec.resume_checkpoint = path.string();
  core::Target t2 = core::Target::make("R", 5, 30, 15);
  core::Campaign second(std::move(t2), mini_science(1), exec);
  const auto rep2 = second.run();
  EXPECT_EQ(rep2.iterations[0].docked, 0u);

  // Restored records are present with their scores.
  std::size_t restored = 0;
  for (const auto& [id, rec] : rep2.compounds)
    if (rec.docked) ++restored;
  EXPECT_EQ(restored, docked1);
  std::filesystem::remove(path);
}

TEST(Checkpoint, ScoresCsvFormat) {
  const auto path = tmp("imp_scores.csv");
  core::write_scores_csv({{"A", -1.5}, {"B", -2.5}}, {{"A", "CCO"}},
                         path.string());
  std::ifstream f(path);
  std::string line;
  std::getline(f, line);
  EXPECT_EQ(line, "id,smiles,score");
  std::getline(f, line);
  EXPECT_EQ(line, "A,CCO,-1.5");
  std::getline(f, line);
  EXPECT_EQ(line, "B,,-2.5");
  std::filesystem::remove(path);
}
