#include "impeccable/core/checkpoint.hpp"

#include <cstdio>
#include <fstream>
#include <iomanip>
#include <limits>
#include <sstream>
#include <stdexcept>

#include <unistd.h>

namespace impeccable::core {

namespace {

constexpr const char* kHeader =
    "id,smiles,surrogate_score,docked,dock_score,cg_done,cg_energy,cg_error,"
    "fg_energies";

}  // namespace

void write_checkpoint(const CampaignReport& report, const std::string& path) {
  std::ostringstream f;
  f << kHeader << "\n";
  // Enough digits that every double reads back bit-identical on resume.
  f << std::setprecision(std::numeric_limits<double>::max_digits10);
  for (const auto& [id, rec] : report.compounds) {
    f << rec.id << ',' << rec.smiles << ',' << rec.surrogate_score << ','
      << (rec.docked ? 1 : 0) << ',' << rec.dock_score << ','
      << (rec.cg_done ? 1 : 0) << ',' << rec.cg_energy << ',' << rec.cg_error
      << ',';
    for (std::size_t k = 0; k < rec.fg_energies.size(); ++k) {
      if (k) f << ';';
      f << rec.fg_energies[k];
    }
    f << "\n";
  }
  const std::string text = std::move(f).str();

  // Crash safety: the rows go to `<path>.tmp`, which is flushed and fsynced
  // before rename() swaps it over `path` in one step, so a crash or a failed
  // write leaves the previous checkpoint whole. A full disk surfaces only on
  // flush or close, hence the checks on both.
  const std::string tmp = path + ".tmp";
  std::FILE* out = std::fopen(tmp.c_str(), "wb");
  if (!out) throw std::runtime_error("write_checkpoint: cannot open " + tmp);
  const bool written =
      std::fwrite(text.data(), 1, text.size(), out) == text.size() &&
      std::fflush(out) == 0 && ::fsync(::fileno(out)) == 0;
  const bool closed = std::fclose(out) == 0;
  if (!written || !closed) {
    ::unlink(tmp.c_str());
    throw std::runtime_error("write_checkpoint: write failed for " + tmp);
  }
  if (std::rename(tmp.c_str(), path.c_str()) != 0) {
    ::unlink(tmp.c_str());
    throw std::runtime_error("write_checkpoint: cannot replace " + path);
  }
}

std::map<std::string, CompoundRecord> read_checkpoint(const std::string& path) {
  std::ifstream f(path);
  if (!f) throw std::runtime_error("read_checkpoint: cannot open " + path);
  std::string line;
  if (!std::getline(f, line) || line != kHeader)
    throw std::runtime_error("read_checkpoint: bad header in " + path);

  std::map<std::string, CompoundRecord> out;
  std::size_t line_no = 1;
  while (std::getline(f, line)) {
    ++line_no;
    if (line.empty()) continue;
    std::vector<std::string> fields;
    std::stringstream ss(line);
    std::string field;
    while (std::getline(ss, field, ',')) fields.push_back(field);
    if (fields.size() < 8)
      throw std::runtime_error("read_checkpoint: short row at line " +
                               std::to_string(line_no));
    try {
      CompoundRecord rec;
      rec.id = fields[0];
      rec.smiles = fields[1];
      rec.surrogate_score = std::stod(fields[2]);
      rec.docked = fields[3] == "1";
      rec.dock_score = std::stod(fields[4]);
      rec.cg_done = fields[5] == "1";
      rec.cg_energy = std::stod(fields[6]);
      rec.cg_error = std::stod(fields[7]);
      if (fields.size() > 8 && !fields[8].empty()) {
        std::stringstream fg(fields[8]);
        std::string e;
        while (std::getline(fg, e, ';')) rec.fg_energies.push_back(std::stod(e));
      }
      out.emplace(rec.id, std::move(rec));
    } catch (const std::exception&) {
      throw std::runtime_error("read_checkpoint: malformed row at line " +
                               std::to_string(line_no));
    }
  }
  return out;
}

}  // namespace impeccable::core
