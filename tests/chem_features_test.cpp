// Tests for descriptors, fingerprints, diversity selection, 2D/3D coordinate
// generation, depiction, the library generator, Murcko scaffolds,
// substructure matching and protonation.

#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <cmath>
#include <set>
#include <stdexcept>

#include "impeccable/chem/depiction.hpp"
#include "impeccable/chem/descriptors.hpp"
#include "impeccable/chem/diversity.hpp"
#include "impeccable/chem/fingerprint.hpp"
#include "impeccable/chem/layout.hpp"
#include "impeccable/chem/library.hpp"
#include "impeccable/chem/protonation.hpp"
#include "impeccable/chem/scaffold.hpp"
#include "impeccable/chem/smiles.hpp"
#include "impeccable/chem/store.hpp"
#include "impeccable/chem/substructure.hpp"
#include "impeccable/common/vec3.hpp"

namespace chem = impeccable::chem;

// ---------------------------------------------------------------- descriptors

TEST(Descriptors, AspirinValues) {
  const auto mol = chem::parse_smiles("CC(=O)Oc1ccccc1C(=O)O");
  const auto d = chem::compute_descriptors(mol);
  EXPECT_NEAR(d.molecular_weight, 180.16, 0.1);
  EXPECT_EQ(d.heavy_atoms, 13);
  EXPECT_EQ(d.hbond_donors, 1);   // the carboxylic OH
  EXPECT_EQ(d.hbond_acceptors, 4);
  EXPECT_EQ(d.ring_count, 1);
  EXPECT_EQ(d.formal_charge, 0);
}

TEST(Descriptors, RotatableBondsExcludeRingsAndTerminal) {
  // Butane: one central rotatable bond (C1-C2 and C2-C3? terminal rule).
  const auto butane = chem::parse_smiles("CCCC");
  EXPECT_EQ(chem::compute_descriptors(butane).rotatable_bonds, 1);
  // Cyclohexane: none.
  const auto cyclo = chem::parse_smiles("C1CCCCC1");
  EXPECT_EQ(chem::compute_descriptors(cyclo).rotatable_bonds, 0);
  // Ethylbenzene: ring-CH2 bond rotatable, CH2-CH3 terminal.
  const auto eb = chem::parse_smiles("CCc1ccccc1");
  EXPECT_EQ(chem::compute_descriptors(eb).rotatable_bonds, 1);
}

TEST(Descriptors, LogpOrdersHydrophobicity) {
  const auto hexane = chem::compute_descriptors(chem::parse_smiles("CCCCCC"));
  const auto glycerol = chem::compute_descriptors(chem::parse_smiles("OCC(O)CO"));
  EXPECT_GT(hexane.logp, glycerol.logp);
}

TEST(Descriptors, TpsaTracksPolarAtoms) {
  const auto benzene = chem::compute_descriptors(chem::parse_smiles("c1ccccc1"));
  const auto urea = chem::compute_descriptors(chem::parse_smiles("NC(=O)N"));
  EXPECT_EQ(benzene.tpsa, 0.0);
  EXPECT_GT(urea.tpsa, 50.0);
}

TEST(Descriptors, LipinskiViolationCounting) {
  chem::Descriptors d;
  d.molecular_weight = 600;
  d.logp = 6;
  d.hbond_donors = 6;
  d.hbond_acceptors = 11;
  EXPECT_EQ(chem::lipinski_violations(d), 4);
  chem::Descriptors ok;
  EXPECT_EQ(chem::lipinski_violations(ok), 0);
}

// ---------------------------------------------------------------- fingerprints

TEST(Fingerprint, IdenticalMoleculesIdenticalFingerprint) {
  const auto a = chem::morgan_fingerprint(chem::parse_smiles("CCO"));
  const auto b = chem::morgan_fingerprint(chem::parse_smiles("OCC"));
  EXPECT_DOUBLE_EQ(chem::tanimoto(a, b), 1.0);
}

TEST(Fingerprint, SimilarBeatsDissimilar) {
  const auto ethanol = chem::morgan_fingerprint(chem::parse_smiles("CCO"));
  const auto propanol = chem::morgan_fingerprint(chem::parse_smiles("CCCO"));
  const auto benzene = chem::morgan_fingerprint(chem::parse_smiles("c1ccccc1"));
  EXPECT_GT(chem::tanimoto(ethanol, propanol), chem::tanimoto(ethanol, benzene));
}

TEST(Fingerprint, SelfSimilarityIsOne) {
  const auto fp = chem::path_fingerprint(chem::parse_smiles("CC(=O)Oc1ccccc1C(=O)O"));
  EXPECT_DOUBLE_EQ(chem::tanimoto(fp, fp), 1.0);
  EXPECT_GT(fp.popcount(), 10);
}

TEST(Fingerprint, BitSetOps) {
  chem::BitSet a(128), b(128);
  a.set(3);
  a.set(70);
  b.set(70);
  b.set(100);
  EXPECT_EQ(a.popcount(), 2);
  EXPECT_EQ(chem::BitSet::intersection_count(a, b), 1);
  EXPECT_EQ(chem::BitSet::union_count(a, b), 3);
  EXPECT_NEAR(chem::tanimoto(a, b), 1.0 / 3.0, 1e-12);
}

TEST(Fingerprint, EmptyFingerprintsAreSimilar) {
  chem::BitSet a(64), b(64);
  EXPECT_DOUBLE_EQ(chem::tanimoto(a, b), 1.0);
}

// ---------------------------------------------------------------- diversity

TEST(Diversity, MaxMinPicksRequestedCount) {
  std::vector<chem::BitSet> fps;
  for (const char* s : {"CCO", "CCCO", "c1ccccc1", "c1ccncc1", "CC(=O)O", "CCCCCCCC"})
    fps.push_back(chem::morgan_fingerprint(chem::parse_smiles(s)));
  const auto picked = chem::maxmin_pick(fps, 4, 5);
  EXPECT_EQ(picked.size(), 4u);
  std::set<std::size_t> uniq(picked.begin(), picked.end());
  EXPECT_EQ(uniq.size(), 4u);
}

TEST(Diversity, MaxMinPrefersDiverseOverSimilar) {
  // Three near-duplicates + one very different molecule: picking 2 must
  // include the outlier.
  std::vector<chem::BitSet> fps;
  for (const char* s : {"CCCCCCO", "CCCCCO", "CCCCO", "c1ccc2ccccc2c1"})
    fps.push_back(chem::morgan_fingerprint(chem::parse_smiles(s)));
  const auto picked = chem::maxmin_pick(fps, 2, 9);
  EXPECT_TRUE(std::find(picked.begin(), picked.end(), 3u) != picked.end());
}

TEST(Diversity, MaxMinHandlesOverAsk) {
  std::vector<chem::BitSet> fps{chem::morgan_fingerprint(chem::parse_smiles("CCO"))};
  EXPECT_EQ(chem::maxmin_pick(fps, 10, 1).size(), 1u);
  EXPECT_TRUE(chem::maxmin_pick({}, 3, 1).empty());
}

TEST(Diversity, ButinaClustersDuplicatesTogether) {
  std::vector<chem::BitSet> fps;
  for (const char* s : {"CCO", "OCC", "c1ccccc1", "c1ccccc1"})
    fps.push_back(chem::morgan_fingerprint(chem::parse_smiles(s)));
  const auto labels = chem::butina_cluster(fps, 0.9);
  EXPECT_EQ(labels[0], labels[1]);
  EXPECT_EQ(labels[2], labels[3]);
  EXPECT_NE(labels[0], labels[2]);
}

// ---------------------------------------------------------------- coordinates

TEST(Layout2d, BondLengthsNearUniform) {
  const auto mol = chem::parse_smiles("c1ccccc1CCN");
  const auto pos = chem::layout_2d(mol, 3);
  ASSERT_EQ(pos.size(), static_cast<std::size_t>(mol.atom_count()));
  // All bonded distances should be within a sane band after relaxation.
  for (int bi = 0; bi < mol.bond_count(); ++bi) {
    const auto& a = pos[static_cast<std::size_t>(mol.bond(bi).a)];
    const auto& b = pos[static_cast<std::size_t>(mol.bond(bi).b)];
    const double d = std::hypot(a.x - b.x, a.y - b.y);
    EXPECT_GT(d, 0.2);
    EXPECT_LT(d, 3.0);
  }
}

TEST(Layout2d, Deterministic) {
  const auto mol = chem::parse_smiles("CC(=O)Oc1ccccc1C(=O)O");
  const auto a = chem::layout_2d(mol, 11);
  const auto b = chem::layout_2d(mol, 11);
  for (std::size_t i = 0; i < a.size(); ++i) {
    EXPECT_DOUBLE_EQ(a[i].x, b[i].x);
    EXPECT_DOUBLE_EQ(a[i].y, b[i].y);
  }
}

namespace {

/// A sweep of generated drug-like molecules (10–40 heavy atoms), so the
/// repulsion rows cover every vector remainder length.
std::vector<chem::Molecule> layout_sweep(std::size_t count) {
  std::vector<chem::Molecule> mols;
  for (std::uint64_t i = 0; i < count; ++i)
    mols.push_back(chem::generate_compound(31, i));
  return mols;
}

}  // namespace

TEST(Layout, BitsPinned) {
  // layout_2d's coordinates, pinned by an FNV-1a digest of their bits. The
  // vectorized repulsion sweep gives every force the IEEE operations of the
  // serial pairwise loop in the same order, so no vector width or
  // -march=native build may move a bit. The digest is the serial loop's.
  const auto mols = layout_sweep(32);
  int min_atoms = 1 << 30, max_atoms = 0;
  std::uint64_t h = chem::kFnvOffset64;
  for (const auto& mol : mols) {
    min_atoms = std::min(min_atoms, mol.atom_count());
    max_atoms = std::max(max_atoms, mol.atom_count());
    for (const std::uint64_t seed : {7u, 9u})
      for (const int iterations : {1, 37, 250}) {
        const auto pos = chem::layout_2d(mol, seed, iterations);
        ASSERT_EQ(pos.size(), static_cast<std::size_t>(mol.atom_count()));
        h = chem::fnv1a64(pos.data(), pos.size() * sizeof(chem::Point2), h);
      }
  }
  EXPECT_LE(min_atoms, 12);
  EXPECT_GE(max_atoms, 30);
  EXPECT_EQ(h, 0xafc895104e0254ebull);
}

TEST(Layout, Embed3dBitsPinned) {
  // embed_3d's coordinates (its 2D start, restraint lists and 400 descent
  // steps), pinned by an FNV-1a digest of their bits.
  const auto mols = layout_sweep(16);
  std::uint64_t h = chem::kFnvOffset64;
  for (const auto& mol : mols)
    for (const std::uint64_t seed : {7u, 9u}) {
      const auto pos = chem::embed_3d(mol, seed);
      ASSERT_EQ(pos.size(), static_cast<std::size_t>(mol.atom_count()));
      h = chem::fnv1a64(pos.data(),
                        pos.size() * sizeof(impeccable::common::Vec3), h);
    }
  EXPECT_EQ(h, 0xada4f85875cd1f2dull);
}

TEST(Embed3d, BondLengthsNearIdeal) {
  const auto mol = chem::parse_smiles("CCO");
  const auto pos = chem::embed_3d(mol, 5);
  for (int bi = 0; bi < mol.bond_count(); ++bi) {
    const double ideal = chem::ideal_bond_length(mol, bi);
    const double actual = impeccable::common::distance(
        pos[static_cast<std::size_t>(mol.bond(bi).a)],
        pos[static_cast<std::size_t>(mol.bond(bi).b)]);
    EXPECT_NEAR(actual, ideal, 0.4) << "bond " << bi;
  }
}

TEST(Embed3d, NoAtomClashes) {
  const auto mol = chem::parse_smiles("CC(C)Cc1ccc(cc1)C(C)C(=O)O");
  const auto pos = chem::embed_3d(mol, 5);
  for (int i = 0; i < mol.atom_count(); ++i)
    for (int j = i + 1; j < mol.atom_count(); ++j)
      EXPECT_GT(impeccable::common::distance(pos[static_cast<std::size_t>(i)],
                                             pos[static_cast<std::size_t>(j)]),
                0.7)
          << i << "," << j;
}

TEST(Embed3d, CenteredAtOrigin) {
  const auto mol = chem::parse_smiles("c1ccccc1");
  const auto pos = chem::embed_3d(mol, 2);
  impeccable::common::Vec3 c;
  for (const auto& p : pos) c += p;
  c /= static_cast<double>(pos.size());
  EXPECT_NEAR(c.norm(), 0.0, 1e-9);
}

// ---------------------------------------------------------------- depiction

TEST(Depiction, ShapeAndRange) {
  const auto mol = chem::parse_smiles("CC(=O)Oc1ccccc1C(=O)O");
  const auto img = chem::depict(mol);
  EXPECT_EQ(img.channels, 4);
  EXPECT_EQ(img.width, 32);
  EXPECT_EQ(img.height, 32);
  EXPECT_EQ(img.data.size(), 4u * 32u * 32u);
  float sum = 0.0f;
  for (float v : img.data) {
    EXPECT_GE(v, 0.0f);
    EXPECT_LE(v, 1.0f);
    sum += v;
  }
  EXPECT_GT(sum, 1.0f);  // something was drawn
}

TEST(Depiction, RejectsNonPositiveDimensions) {
  // With no channel there is nowhere to splat an atom, and a negative size
  // would reach the image allocation.
  const auto mol = chem::parse_smiles("CC(=O)Oc1ccccc1C(=O)O");
  for (const auto& [c, h, w] : {std::array<int, 3>{0, 32, 32},
                                std::array<int, 3>{-1, 32, 32},
                                std::array<int, 3>{4, 0, 32},
                                std::array<int, 3>{4, 32, -3}}) {
    chem::DepictionOptions opts;
    opts.channels = c;
    opts.height = h;
    opts.width = w;
    EXPECT_THROW(chem::depict(mol, opts), std::invalid_argument)
        << c << "x" << h << "x" << w;
  }
}

TEST(Depiction, PolarChannelLightsUpForPolarMolecule) {
  const auto polar = chem::depict(chem::parse_smiles("NC(=O)N"));
  const auto apolar = chem::depict(chem::parse_smiles("CCCCCC"));
  auto channel_sum = [](const chem::Image& im, int c) {
    float s = 0;
    for (int y = 0; y < im.height; ++y)
      for (int x = 0; x < im.width; ++x) s += im.at(c, y, x);
    return s;
  };
  EXPECT_GT(channel_sum(polar, 2), channel_sum(apolar, 2) + 1.0f);
}

TEST(Depiction, DifferentMoleculesDifferentImages) {
  const auto a = chem::depict(chem::parse_smiles("CCO"));
  const auto b = chem::depict(chem::parse_smiles("c1ccc2ccccc2c1"));
  double diff = 0;
  for (std::size_t i = 0; i < a.data.size(); ++i)
    diff += std::abs(a.data[i] - b.data[i]);
  EXPECT_GT(diff, 5.0);
}

// ---------------------------------------------------------------- library

TEST(Library, DeterministicByIndex) {
  const auto a = chem::generate_compound(77, 5);
  const auto b = chem::generate_compound(77, 5);
  EXPECT_EQ(chem::write_smiles(a), chem::write_smiles(b));
}

TEST(Library, DifferentIndicesUsuallyDiffer) {
  int distinct = 0;
  std::set<std::string> seen;
  for (std::uint64_t i = 0; i < 30; ++i)
    if (seen.insert(chem::write_smiles(chem::generate_compound(7, i))).second)
      ++distinct;
  EXPECT_GE(distinct, 25);
}

TEST(Library, CompoundsAreDrugLike) {
  for (std::uint64_t i = 0; i < 40; ++i) {
    const auto mol = chem::generate_compound(2024, i);
    const auto d = chem::compute_descriptors(mol);
    EXPECT_GE(d.heavy_atoms, 10);
    EXPECT_LE(d.heavy_atoms, 40);
    EXPECT_LE(chem::lipinski_violations(d), 1);
    EXPECT_TRUE(mol.connected());
  }
}

TEST(Library, GenerateLibraryIdsAndSize) {
  const auto lib = chem::generate_library("OZD", 10, 9);
  EXPECT_EQ(lib.size(), 10u);
  EXPECT_EQ(lib.entries[0].id, "OZD-000000");
  EXPECT_EQ(lib.entries[9].id, "OZD-000009");
  for (const auto& e : lib.entries) EXPECT_FALSE(e.smiles.empty());
}

TEST(Library, OverlappingLibrariesShareExpectedFraction) {
  const auto [a, b] =
      chem::generate_overlapping_libraries("OZD", "ORD", 40, 0.25, 31337);
  ASSERT_EQ(a.size(), 40u);
  ASSERT_EQ(b.size(), 40u);
  std::set<std::string> sa;
  for (const auto& e : a.entries) sa.insert(e.smiles);
  int shared = 0;
  std::set<std::string> sb;
  for (const auto& e : b.entries)
    if (sb.insert(e.smiles).second && sa.count(e.smiles)) ++shared;
  // 10 compounds come from the shared pool; collisions can add a couple.
  EXPECT_GE(shared, 9);
  EXPECT_LE(shared, 16);
}

TEST(MiscDiversity, MaxMinIsDeterministicPerSeed) {
  std::vector<chem::BitSet> fps;
  for (const char* s : {"CCO", "CCCO", "c1ccccc1", "c1ccncc1", "CC(=O)O"})
    fps.push_back(chem::morgan_fingerprint(chem::parse_smiles(s)));
  EXPECT_EQ(chem::maxmin_pick(fps, 3, 7), chem::maxmin_pick(fps, 3, 7));
}

// ----------------------------------------------------------------- scaffolds

TEST(Scaffold, BenzeneIsItsOwnScaffold) {
  const auto mol = chem::parse_smiles("c1ccccc1");
  EXPECT_EQ(chem::scaffold_smiles(mol), chem::canonical_smiles("c1ccccc1"));
}

TEST(Scaffold, SideChainsAreStripped) {
  // Toluene, phenol and chlorobenzene share the benzene scaffold.
  const auto a = chem::scaffold_smiles(chem::parse_smiles("Cc1ccccc1"));
  const auto b = chem::scaffold_smiles(chem::parse_smiles("Oc1ccccc1"));
  const auto c = chem::scaffold_smiles(chem::parse_smiles("Clc1ccccc1"));
  EXPECT_EQ(a, b);
  EXPECT_EQ(b, c);
  EXPECT_EQ(a, chem::canonical_smiles("c1ccccc1"));
}

TEST(Scaffold, LinkersBetweenRingsAreKept) {
  // Diphenylmethane: two rings + the CH2 linker survive.
  const auto scaffold =
      chem::murcko_scaffold(chem::parse_smiles("c1ccccc1Cc1ccccc1"));
  EXPECT_EQ(scaffold.atom_count(), 13);
  EXPECT_EQ(scaffold.ring_count(), 2);
}

TEST(Scaffold, AcyclicMoleculeGivesEmptyScaffold) {
  const auto mol = chem::parse_smiles("CCOCC(=O)NCC");
  EXPECT_EQ(chem::murcko_scaffold(mol).atom_count(), 0);
  EXPECT_EQ(chem::scaffold_smiles(mol), "");
}

TEST(Scaffold, PendantRingSubstituentFallsOff) {
  // Ibuprofen: everything except the phenyl ring is acyclic side chain.
  const auto s =
      chem::scaffold_smiles(chem::parse_smiles("CC(C)Cc1ccc(cc1)C(C)C(=O)O"));
  EXPECT_EQ(s, chem::canonical_smiles("c1ccccc1"));
}

TEST(Scaffold, CensusCountsChemotypes) {
  chem::CompoundLibrary lib;
  lib.name = "T";
  lib.entries = {{"a", "Cc1ccccc1"},
                 {"b", "Oc1ccccc1"},
                 {"c", "C1CCCCC1"},
                 {"d", "CCCC"}};
  const auto census = chem::scaffold_census(lib);
  EXPECT_EQ(census.at(chem::canonical_smiles("c1ccccc1")), 2);
  EXPECT_EQ(census.at(chem::canonical_smiles("C1CCCCC1")), 1);
  EXPECT_EQ(census.at(""), 1);
  EXPECT_EQ(census.size(), 3u);
}

TEST(Scaffold, GeneratedLibraryHasDiverseScaffolds) {
  const auto lib = chem::generate_library("S", 40, 31);
  const auto census = chem::scaffold_census(lib);
  // The fragment generator should produce a healthy spread of chemotypes.
  EXPECT_GE(census.size(), 10u);
}

// -------------------------------------------------------------- substructure

TEST(Substructure, FindsBenzeneInAromatics) {
  const auto toluene = chem::parse_smiles("Cc1ccccc1");
  EXPECT_TRUE(chem::has_substructure(toluene, "c1ccccc1"));
  const auto cyclohexane = chem::parse_smiles("C1CCCCC1");
  EXPECT_FALSE(chem::has_substructure(cyclohexane, "c1ccccc1"));
}

TEST(Substructure, CarboxylicAcidMotif) {
  EXPECT_TRUE(chem::has_substructure(
      chem::parse_smiles("CC(C)Cc1ccc(cc1)C(C)C(=O)O"), "C(=O)O"));
  EXPECT_FALSE(chem::has_substructure(chem::parse_smiles("CCOCC"), "C(=O)O"));
}

TEST(Substructure, BondOrderMatters) {
  const auto ethene = chem::parse_smiles("C=C");
  const auto ethane = chem::parse_smiles("CC");
  EXPECT_TRUE(chem::has_substructure(ethene, "C=C"));
  EXPECT_FALSE(chem::has_substructure(ethane, "C=C"));
  EXPECT_FALSE(chem::has_substructure(ethene, "CC"));  // single-bond query
}

TEST(Substructure, CountsMultipleOccurrences) {
  // Terephthalic-acid-like: two carboxyls on a ring.
  const auto mol = chem::parse_smiles("OC(=O)c1ccc(cc1)C(=O)O");
  // Each C(=O)O matches; O ordering yields one mapping per group.
  EXPECT_EQ(chem::count_substructures(mol, chem::parse_smiles("C(=O)O")), 2u);
}

TEST(Substructure, QueryLargerThanMoleculeNeverMatches) {
  const auto small = chem::parse_smiles("CC");
  EXPECT_FALSE(chem::has_substructure(small, "CCCC"));
  EXPECT_TRUE(chem::find_substructures(small, chem::parse_smiles("CCC")).empty());
}

TEST(Substructure, MatchMapsAreConsistent) {
  const auto mol = chem::parse_smiles("CCOc1ccccc1");
  const auto query = chem::parse_smiles("COc1ccccc1");
  const auto matches = chem::find_substructures(mol, query, 4);
  ASSERT_FALSE(matches.empty());
  for (const auto& map : matches) {
    ASSERT_EQ(map.size(), static_cast<std::size_t>(query.atom_count()));
    for (int qa = 0; qa < query.atom_count(); ++qa)
      EXPECT_EQ(mol.atom(map[static_cast<std::size_t>(qa)]).element,
                query.atom(qa).element);
  }
}

TEST(Substructure, RingQueryRequiresRing) {
  // Pyridine in a fused system.
  const auto mol = chem::parse_smiles("c1ccc2ncccc2c1");  // quinoline
  EXPECT_TRUE(chem::has_substructure(mol, "c1ccncc1"));
  EXPECT_FALSE(chem::has_substructure(chem::parse_smiles("c1ccccc1"), "c1ccncc1"));
}

// --------------------------------------------------------------- protonation

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
