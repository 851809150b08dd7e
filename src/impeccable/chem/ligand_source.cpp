#include "impeccable/chem/ligand_source.hpp"

#include <cstdio>
#include <stdexcept>
#include <utility>

#include "impeccable/chem/protonation.hpp"
#include "impeccable/chem/smiles.hpp"
#include "impeccable/common/thread_pool.hpp"

namespace impeccable::chem {

Molecule LigandSource::prepare(std::string_view smiles) const {
  Molecule mol = parse_smiles(smiles);
  if (opts_.protonate_ph > 0.0)
    mol = protonate_for_ph(mol, opts_.protonate_ph);
  return mol;
}

void LigandSource::images(std::size_t begin, std::size_t end,
                          std::vector<Image>& out) const {
  if (begin > end || end > size())
    throw std::out_of_range("LigandSource::images: bad window");
  out.resize(end - begin);
  common::parallel_for(begin, end,
                       [&](std::size_t i) { out[i - begin] = image(i); });
}

void LigandSource::release(std::size_t, std::size_t) const {}

// ---------------------------------------------------------------------------
// InMemorySource

InMemorySource::InMemorySource(CompoundLibrary library, SourceOptions opts)
    : LigandSource(opts), library_(std::move(library)) {
  mols_.resize(library_.size());
  images_.resize(library_.size());
  common::parallel_for(0, library_.size(), [this](std::size_t i) {
    mols_[i] = prepare(library_.entries[i].smiles);
    images_[i] = depict(mols_[i], opts_.depiction);
  });
}

std::string InMemorySource::id(std::size_t i) const {
  return library_.entries.at(i).id;
}

std::string InMemorySource::smiles(std::size_t i) const {
  return library_.entries.at(i).smiles;
}

Molecule InMemorySource::molecule(std::size_t i) const { return mols_.at(i); }

Image InMemorySource::image(std::size_t i) const { return images_.at(i); }

// ---------------------------------------------------------------------------
// MmapSource

MmapSource::MmapSource(LigandStore store, SourceOptions opts)
    : LigandSource(opts), store_(std::move(store)) {}

std::string MmapSource::id(std::size_t i) const {
  return std::string(store_.id(i));
}

std::string MmapSource::smiles(std::size_t i) const {
  return std::string(store_.smiles(i));
}

Molecule MmapSource::molecule(std::size_t i) const {
  return prepare(store_.smiles(i));
}

Image MmapSource::image(std::size_t i) const {
  return depict(molecule(i), opts_.depiction);
}

void MmapSource::release(std::size_t begin, std::size_t end) const {
  store_.release(begin, end);
}

// ---------------------------------------------------------------------------

StoreStats spill_generated_library(const std::string& name, std::size_t count,
                                   std::uint64_t seed,
                                   const std::string& directory,
                                   const GeneratorOptions& opts,
                                   std::size_t records_per_shard) {
  StoreWriterOptions wopts;
  wopts.records_per_shard = records_per_shard;
  wopts.dedup = false;
  LigandStoreWriter writer(directory, wopts);
  for (std::size_t i = 0; i < count; ++i) {
    const Molecule mol = generate_compound(seed, i, opts);
    char id[80];
    std::snprintf(id, sizeof id, "%s-%06zu", name.c_str(), i);
    writer.append(id, write_smiles(mol));
  }
  writer.finish();
  return writer.stats();
}

}  // namespace impeccable::chem
