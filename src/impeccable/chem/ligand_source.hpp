#pragma once
// LigandSource — polymorphic, index-addressed access to a screening
// library. The campaign engine used to materialize the whole
// CompoundLibrary plus every parsed Molecule and depiction Image in RAM,
// which caps real-code-path runs at ~1e6 ligands; the paper's nCov
// repository is 4.2B (Sec. 7.1). A LigandSource hides where ligands live:
//
//   InMemorySource  today's behavior — everything parsed and depicted up
//                   front, bitwise-compatible with the historical path.
//   MmapSource      backed by an on-disk LigandStore; SMILES are read from
//                   the mapping and parsed/protonated/depicted lazily, so
//                   resident memory is bounded by the consumer's window,
//                   not the library.
//
// Both sources run the identical featurization pipeline
// (parse_smiles -> protonate_for_ph -> depict with the same options), so a
// campaign's science_fingerprint() is invariant to the backend choice —
// pinned by tests/library_store_test.cpp.
//
// Featurization fans out through common::parallel_for: LigandSource::images
// and the InMemorySource constructor run one job per ligand on the installed
// compute pool and a serial loop when none is. Each ligand's molecule and
// image depend only on that ligand and land in their own slot, so the output
// is bitwise identical for any pool size, and a malformed entry throws the
// same error, from the lowest failing index, as the serial loop would.

#include <cstddef>
#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include "impeccable/chem/depiction.hpp"
#include "impeccable/chem/library.hpp"
#include "impeccable/chem/molecule.hpp"
#include "impeccable/chem/store.hpp"

namespace impeccable::chem {

/// Featurization knobs shared by every ligand of a source. Owned by the
/// source so lazy and eager backends cannot drift apart.
struct SourceOptions {
  /// Protonation pH for docking prep; <= 0 skips preparation.
  double protonate_ph = 0.0;
  DepictionOptions depiction;
};

/// Read-only ligand access by library ordinal. All methods are const and
/// safe to call concurrently.
class LigandSource {
 public:
  virtual ~LigandSource() = default;

  virtual std::size_t size() const = 0;
  virtual std::string id(std::size_t i) const = 0;
  virtual std::string smiles(std::size_t i) const = 0;
  /// Parsed (and, per options, protonated) molecule.
  virtual Molecule molecule(std::size_t i) const = 0;
  /// Depiction of molecule(i) with the source's DepictionOptions.
  virtual Image image(std::size_t i) const = 0;

  /// Render depictions for ligands [begin, end) into `out` (resized), one
  /// compute-pool job per ligand when a pool is installed.
  virtual void images(std::size_t begin, std::size_t end,
                      std::vector<Image>& out) const;

  /// Hint that [begin, end) will not be re-read soon; streaming consumers
  /// call this after each window so lazy backends can drop cached pages.
  virtual void release(std::size_t begin, std::size_t end) const;

  const SourceOptions& options() const { return opts_; }

 protected:
  explicit LigandSource(SourceOptions opts) : opts_(opts) {}
  /// The one featurization pipeline both backends share.
  Molecule prepare(std::string_view smiles) const;

  SourceOptions opts_;
};

/// Fully materialized source: parses and depicts every entry at
/// construction (the historical campaign library behavior), over the
/// installed compute pool when there is one.
class InMemorySource final : public LigandSource {
 public:
  explicit InMemorySource(CompoundLibrary library, SourceOptions opts = {});

  std::size_t size() const override { return library_.size(); }
  std::string id(std::size_t i) const override;
  std::string smiles(std::size_t i) const override;
  Molecule molecule(std::size_t i) const override;
  Image image(std::size_t i) const override;

  const CompoundLibrary& library() const { return library_; }

 private:
  CompoundLibrary library_;
  std::vector<Molecule> mols_;
  std::vector<Image> images_;
};

/// Out-of-core source over a memory-mapped LigandStore: SMILES served as
/// views into the mapping, molecules and depictions computed per call.
class MmapSource final : public LigandSource {
 public:
  explicit MmapSource(LigandStore store, SourceOptions opts = {});

  std::size_t size() const override { return store_.size(); }
  std::string id(std::size_t i) const override;
  std::string smiles(std::size_t i) const override;
  Molecule molecule(std::size_t i) const override;
  Image image(std::size_t i) const override;
  void release(std::size_t begin, std::size_t end) const override;

  /// On-disk address of ligand i (shard ordinal + payload offset).
  LigandRef locate(std::size_t i) const { return store_.locate(i); }
  const LigandStore& store() const { return store_; }

 private:
  LigandStore store_;
};

/// Generate library compounds straight into an on-disk store, one at a time
/// (never materializing the library), with ids matching generate_library's
/// "<name>-NNNNNN". Returns the writer's final stats. Dedup is off: the
/// on-disk ordinal must equal the generator index so MmapSource over the
/// spill is entry-for-entry identical to InMemorySource over
/// generate_library(name, count, seed).
StoreStats spill_generated_library(const std::string& name, std::size_t count,
                                   std::uint64_t seed,
                                   const std::string& directory,
                                   const GeneratorOptions& opts = {},
                                   std::size_t records_per_shard = 100000);

}  // namespace impeccable::chem
