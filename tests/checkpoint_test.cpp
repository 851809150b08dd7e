// Tests for campaign checkpointing: lossless round trips, crash-safe
// writes, malformed-file rejection, and resume.

#include <gtest/gtest.h>

#include <bit>
#include <cmath>
#include <csignal>
#include <cstdint>
#include <filesystem>
#include <fstream>
#include <iterator>
#include <string>

#include <sys/resource.h>

#include "impeccable/core/campaign.hpp"
#include "impeccable/core/checkpoint.hpp"

#include "test_support.hpp"

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

core::CampaignReport one_record_report() {
  core::CampaignReport report;
  core::CompoundRecord r;
  r.id = "X-1";
  r.smiles = "CCO";
  report.compounds[r.id] = r;
  return report;
}

std::string slurp(const std::filesystem::path& path) {
  std::ifstream f(path, std::ios::binary);
  return {std::istreambuf_iterator<char>(f), std::istreambuf_iterator<char>()};
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

  const auto path = tmp_path("imp_ckpt.csv");
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

  const auto path = tmp_path("imp_ckpt_lossless.csv");
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
  // Cap this process's file size at zero: the temp file opens fine but the
  // flush fails (EFBIG, as ENOSPC on a full disk). The error must not pass
  // silently, and neither the target nor the temp file may be left behind.
  const auto dir = tmp_path("imp_ckpt_write_failure");
  std::filesystem::remove_all(dir);
  std::filesystem::create_directories(dir);
  const auto path = dir / "ckpt.csv";

  rlimit saved{};
  ASSERT_EQ(getrlimit(RLIMIT_FSIZE, &saved), 0);
  rlimit capped = saved;
  capped.rlim_cur = 0;
  const auto old_handler = std::signal(SIGXFSZ, SIG_IGN);
  ASSERT_EQ(setrlimit(RLIMIT_FSIZE, &capped), 0);
  EXPECT_THROW(core::write_checkpoint(one_record_report(), path.string()),
               std::runtime_error);
  EXPECT_EQ(setrlimit(RLIMIT_FSIZE, &saved), 0);
  std::signal(SIGXFSZ, old_handler);

  EXPECT_TRUE(std::filesystem::is_empty(dir));
  std::filesystem::remove_all(dir);
}

TEST(Checkpoint, FailedWriteKeepsPreviousCheckpoint) {
  // A good checkpoint, then a write whose temp file cannot be created (the
  // temp path is a directory): the old file must survive byte for byte.
  const auto dir = tmp_path("imp_ckpt_keep_previous");
  std::filesystem::remove_all(dir);
  std::filesystem::create_directories(dir);
  const auto path = dir / "ckpt.csv";
  core::write_checkpoint(one_record_report(), path.string());
  const std::string before = slurp(path);
  ASSERT_FALSE(before.empty());

  std::filesystem::create_directory(dir / "ckpt.csv.tmp");
  core::CampaignReport bigger = one_record_report();
  bigger.compounds["X-2"].id = "X-2";
  EXPECT_THROW(core::write_checkpoint(bigger, path.string()),
               std::runtime_error);
  EXPECT_EQ(slurp(path), before);
  // Nothing but the checkpoint and the blocking directory is in `dir`.
  EXPECT_TRUE(std::filesystem::is_empty(dir / "ckpt.csv.tmp"));
  EXPECT_EQ(std::distance(std::filesystem::directory_iterator(dir),
                          std::filesystem::directory_iterator()),
            2);
  std::filesystem::remove_all(dir);
}

TEST(Checkpoint, RenameFailureLeavesNoTempFile) {
  // The target is a directory, so the temp file is written but cannot be
  // renamed over it: the write throws and removes its temp file.
  const auto dir = tmp_path("imp_ckpt_rename_failure");
  std::filesystem::remove_all(dir);
  const auto path = dir / "ckpt.csv";
  std::filesystem::create_directories(path);
  EXPECT_THROW(core::write_checkpoint(one_record_report(), path.string()),
               std::runtime_error);
  EXPECT_FALSE(std::filesystem::exists(dir / "ckpt.csv.tmp"));
  EXPECT_TRUE(std::filesystem::is_directory(path));
  std::filesystem::remove_all(dir);
}

TEST(Checkpoint, RejectsMalformedFiles) {
  const auto path = tmp_path("imp_bad_ckpt.csv");
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
  const auto path = tmp_path("imp_resume.csv");

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
