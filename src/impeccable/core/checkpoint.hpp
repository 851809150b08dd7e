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
/// Throws std::runtime_error if the file cannot be opened or fully written.
void write_checkpoint(const CampaignReport& report, const std::string& path);

/// Read a checkpoint back into compound records.
/// Throws std::runtime_error on malformed files.
std::map<std::string, CompoundRecord> read_checkpoint(const std::string& path);

/// Write just (id, smiles, score) rows — the ML1 -> S1 interchange format.
/// Throws std::runtime_error if the file cannot be opened or fully written.
void write_scores_csv(const std::vector<std::pair<std::string, double>>& scores,
                      const std::map<std::string, std::string>& id_to_smiles,
                      const std::string& path);

}  // namespace impeccable::core
