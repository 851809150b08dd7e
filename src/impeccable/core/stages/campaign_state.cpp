#include "impeccable/core/stages/campaign_state.hpp"

#include <cstdio>
#include <filesystem>
#include <utility>

#include "impeccable/core/checkpoint.hpp"

namespace impeccable::core::stages {

namespace {

/// Default on-disk location for a generated library's store: keyed on
/// (name, size, seed) so repeated runs of the same campaign reuse the spill
/// instead of regenerating 1e8 compounds.
std::string default_store_dir(const ScienceConfig& sci) {
  char buf[128];
  std::snprintf(buf, sizeof buf, "impeccable-store-%s-%zu-%llu",
                sci.library_name.c_str(), sci.library_size,
                static_cast<unsigned long long>(sci.library_seed));
  return (std::filesystem::temp_directory_path() / buf).string();
}

}  // namespace

void CampaignState::init(const std::string& resume_checkpoint) {
  const ScienceConfig& sci = *science;

  chem::SourceOptions sopts;
  sopts.protonate_ph = sci.prepare_ligands_at_ph;

  if (exec->library_backend == ExecConfig::LibraryBackend::kMmapStore) {
    store_dir = exec->library_store_dir.empty() ? default_store_dir(sci)
                                                : exec->library_store_dir;
    chem::LigandStore store = chem::LigandStore::open(store_dir);
    if (store.size() != sci.library_size ||
        store.stats().shards_skipped != 0) {
      // Missing, stale, or damaged: regenerate the spill from scratch. Only
      // the shard files go: the directory may be the user's, holding other
      // files.
      store = chem::LigandStore();
      chem::LigandStore::remove_shards(store_dir);
      chem::spill_generated_library(sci.library_name, sci.library_size,
                                    sci.library_seed, store_dir);
      store = chem::LigandStore::open(store_dir);
    }
    source = std::make_shared<chem::MmapSource>(std::move(store), sopts);
  } else {
    source = std::make_shared<chem::InMemorySource>(
        chem::generate_library(sci.library_name, sci.library_size,
                               sci.library_seed),
        sopts);
  }

  // Resume: restore prior records and rebuild the training set from them.
  // Checkpoints hold only touched compounds, so resolve their ids to
  // library ordinals in one linear scan (stopping once all are found) —
  // the id_index built here is reused by every later lookup.
  if (!resume_checkpoint.empty()) {
    const auto prev = read_checkpoint(resume_checkpoint);
    std::size_t found = 0;
    for (std::size_t i = 0; i < source->size() && found < prev.size(); ++i) {
      const auto it = prev.find(source->id(i));
      if (it == prev.end()) continue;
      ++found;
      id_index.emplace(it->first, i);
      auto& rec = report->compounds[it->first];
      rec = it->second;
      if (rec.docked) {
        docked_indices.insert(i);
        train_images.push_back(source->image(i));
        train_scores.push_back(rec.dock_score);
      }
    }
  }
}

CompoundRecord& CampaignState::record_for(std::size_t index) {
  std::string cid = source->id(index);
  auto it = report->compounds.find(cid);
  if (it == report->compounds.end()) {
    CompoundRecord rec;
    rec.id = cid;
    rec.smiles = source->smiles(index);
    it = report->compounds.emplace(std::move(cid), std::move(rec)).first;
    id_index.emplace(it->second.id, index);
  }
  return it->second;
}

}  // namespace impeccable::core::stages
