#pragma once
// Campaign persistence.
//
// The production campaign ran "for several months" (abstract) across
// allocations and machines; state must survive between pilot jobs. We
// persist the per-compound records as a CSV checkpoint — the same shape as
// the ML1 -> S1 interchange ("the resulting lists of docking scores and
// metadata information such as ligand id and SMILES string are ... written
// into a CSV file", Sec. 6.1.1) — and campaigns can resume with their
// surrogate training data rebuilt from it.

#include <map>
#include <string>

#include "impeccable/core/campaign.hpp"

namespace impeccable::core {

/// Write every compound record to `path` as CSV
/// (id,smiles,surrogate,docked,dock_score,cg_done,cg_energy,cg_error,fg...).
/// The rows are written and fsynced to `<path>.tmp`, then renamed over
/// `path`, so `path` always holds either the previous or the new checkpoint.
/// Throws std::runtime_error if the temp file cannot be opened, fully
/// written or renamed; the temp file is removed and `path` left untouched.
void write_checkpoint(const CampaignReport& report, const std::string& path);

/// Read a checkpoint back into compound records.
/// Throws std::runtime_error on malformed files.
std::map<std::string, CompoundRecord> read_checkpoint(const std::string& path);

}  // namespace impeccable::core
