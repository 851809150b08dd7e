// SMILES parser/writer tests: known drugs, formulas, implicit hydrogens,
// ring perception, canonical round-trips (including a parameterized sweep
// over the generated library), error handling, and corner syntax
// (charges, isotopes, ring-bond orders, fused pyrrole nitrogens).

#include <gtest/gtest.h>

#include <string>

#include "impeccable/chem/descriptors.hpp"
#include "impeccable/chem/library.hpp"
#include "impeccable/chem/molecule.hpp"
#include "impeccable/chem/smiles.hpp"

namespace chem = impeccable::chem;

// ---------------------------------------------------------------- parsing

TEST(Smiles, MethaneHasFourHydrogens) {
  const auto mol = chem::parse_smiles("C");
  ASSERT_EQ(mol.atom_count(), 1);
  EXPECT_EQ(mol.hydrogen_count(0), 4);
  EXPECT_EQ(mol.formula(), "CH4");
}

TEST(Smiles, EthanolFormula) {
  const auto mol = chem::parse_smiles("CCO");
  EXPECT_EQ(mol.formula(), "C2H6O");
  EXPECT_EQ(mol.bond_count(), 2);
}

TEST(Smiles, BenzeneRingPerception) {
  const auto mol = chem::parse_smiles("c1ccccc1");
  EXPECT_EQ(mol.atom_count(), 6);
  EXPECT_EQ(mol.bond_count(), 6);
  EXPECT_EQ(mol.ring_count(), 1);
  for (int i = 0; i < 6; ++i) {
    EXPECT_TRUE(mol.atom(i).aromatic);
    EXPECT_TRUE(mol.atom_in_ring(i));
    EXPECT_EQ(mol.hydrogen_count(i), 1);
  }
  EXPECT_EQ(mol.formula(), "C6H6");
}

TEST(Smiles, PyridineNitrogenHasNoHydrogen) {
  const auto mol = chem::parse_smiles("c1ccncc1");
  int n_idx = -1;
  for (int i = 0; i < mol.atom_count(); ++i)
    if (mol.atom(i).element == chem::Element::N) n_idx = i;
  ASSERT_GE(n_idx, 0);
  EXPECT_EQ(mol.hydrogen_count(n_idx), 0);
  EXPECT_EQ(mol.formula(), "C5H5N");
}

TEST(Smiles, PyrroleNitrogenKeepsExplicitH) {
  const auto mol = chem::parse_smiles("c1cc[nH]c1");
  int n_idx = -1;
  for (int i = 0; i < mol.atom_count(); ++i)
    if (mol.atom(i).element == chem::Element::N) n_idx = i;
  ASSERT_GE(n_idx, 0);
  EXPECT_EQ(mol.hydrogen_count(n_idx), 1);
  EXPECT_EQ(mol.formula(), "C4H5N");
}

TEST(Smiles, AspirinFormula) {
  const auto mol = chem::parse_smiles("CC(=O)Oc1ccccc1C(=O)O");
  EXPECT_EQ(mol.formula(), "C9H8O4");
  EXPECT_EQ(mol.ring_count(), 1);
}

TEST(Smiles, CaffeineFormula) {
  const auto mol = chem::parse_smiles("Cn1cnc2c1c(=O)n(C)c(=O)n2C");
  EXPECT_EQ(mol.formula(), "C8H10N4O2");
  EXPECT_EQ(mol.ring_count(), 2);
}

TEST(Smiles, IbuprofenFormula) {
  const auto mol = chem::parse_smiles("CC(C)Cc1ccc(cc1)C(C)C(=O)O");
  EXPECT_EQ(mol.formula(), "C13H18O2");
}

TEST(Smiles, TripleBondNitrile) {
  const auto mol = chem::parse_smiles("CC#N");
  EXPECT_EQ(mol.formula(), "C2H3N");
  EXPECT_EQ(mol.bond(mol.bond_between(1, 2)).order, 3);
}

TEST(Smiles, ChargedAtoms) {
  const auto cation = chem::parse_smiles("C[NH3+]");
  int n = -1;
  for (int i = 0; i < cation.atom_count(); ++i)
    if (cation.atom(i).element == chem::Element::N) n = i;
  ASSERT_GE(n, 0);
  EXPECT_EQ(cation.atom(n).formal_charge, 1);
  EXPECT_EQ(cation.hydrogen_count(n), 3);

  const auto anion = chem::parse_smiles("CC(=O)[O-]");
  int om = -1;
  for (int i = 0; i < anion.atom_count(); ++i)
    if (anion.atom(i).formal_charge == -1) om = i;
  ASSERT_GE(om, 0);
  EXPECT_EQ(anion.hydrogen_count(om), 0);
}

TEST(Smiles, TwoLetterElements) {
  const auto mol = chem::parse_smiles("ClCBr");
  EXPECT_EQ(mol.atom(0).element, chem::Element::Cl);
  EXPECT_EQ(mol.atom(2).element, chem::Element::Br);
  EXPECT_EQ(mol.formula(), "CH2BrCl");
}

TEST(Smiles, PercentRingClosure) {
  // Same molecule via %12 and via digit closure.
  const auto a = chem::parse_smiles("C%12CCCCC%12");
  const auto b = chem::parse_smiles("C1CCCCC1");
  EXPECT_EQ(chem::write_smiles(a), chem::write_smiles(b));
}

TEST(Smiles, BranchNesting) {
  const auto mol = chem::parse_smiles("CC(C(C)(C)C)O");
  EXPECT_EQ(mol.formula(), "C6H14O");
  EXPECT_EQ(mol.degree(2), 4);
}

TEST(Smiles, StereoMarkersIgnored) {
  const auto a = chem::parse_smiles("C/C=C/C");
  const auto b = chem::parse_smiles("CC=CC");
  EXPECT_EQ(chem::write_smiles(a), chem::write_smiles(b));
}

TEST(Smiles, SpiroFusedRings) {
  const auto mol = chem::parse_smiles("C1CCC2(CC1)CCCCC2");
  EXPECT_EQ(mol.ring_count(), 2);
  EXPECT_TRUE(mol.connected());
}

TEST(Smiles, NaphthaleneFusedAromatics) {
  const auto mol = chem::parse_smiles("c1ccc2ccccc2c1");
  EXPECT_EQ(mol.atom_count(), 10);
  EXPECT_EQ(mol.ring_count(), 2);
  EXPECT_EQ(mol.formula(), "C10H8");
}

// ---------------------------------------------------------------- errors

TEST(SmilesErrors, RejectsEmpty) {
  EXPECT_THROW(chem::parse_smiles(""), chem::SmilesError);
}

TEST(SmilesErrors, RejectsUnbalancedParens) {
  EXPECT_THROW(chem::parse_smiles("CC(C"), chem::SmilesError);
  EXPECT_THROW(chem::parse_smiles("CC)C"), chem::SmilesError);
}

TEST(SmilesErrors, RejectsUnclosedRing) {
  EXPECT_THROW(chem::parse_smiles("C1CCC"), chem::SmilesError);
}

TEST(SmilesErrors, RejectsUnknownAtom) {
  EXPECT_THROW(chem::parse_smiles("CXC"), chem::SmilesError);
  EXPECT_THROW(chem::parse_smiles("[Zz]"), chem::SmilesError);
}

TEST(SmilesErrors, RejectsDisconnectedFragments) {
  EXPECT_THROW(chem::parse_smiles("CC.CC"), chem::SmilesError);
}

TEST(SmilesErrors, RejectsLeadingBond) {
  EXPECT_THROW(chem::parse_smiles("1CC1"), chem::SmilesError);
}

TEST(SmilesErrors, ReportsPosition) {
  try {
    chem::parse_smiles("CCQ");
    FAIL() << "expected SmilesError";
  } catch (const chem::SmilesError& e) {
    EXPECT_EQ(e.position, 2u);
  }
}

// ---------------------------------------------------------------- writer

TEST(SmilesWriter, RoundTripPreservesFormula) {
  for (const char* s :
       {"CCO", "c1ccccc1", "CC(=O)Oc1ccccc1C(=O)O", "Cn1cnc2c1c(=O)n(C)c(=O)n2C",
        "CC(C)Cc1ccc(cc1)C(C)C(=O)O", "C1CCC2(CC1)CCCCC2", "c1ccc2ccccc2c1",
        "C[NH3+]", "CC(=O)[O-]", "FC(F)(F)c1ccccc1", "CC#N", "O=S(=O)(N)c1ccccc1"}) {
    const auto mol = chem::parse_smiles(s);
    const std::string out = chem::write_smiles(mol);
    const auto re = chem::parse_smiles(out);
    EXPECT_EQ(mol.formula(), re.formula()) << s << " -> " << out;
    EXPECT_EQ(mol.atom_count(), re.atom_count()) << s << " -> " << out;
    EXPECT_EQ(mol.bond_count(), re.bond_count()) << s << " -> " << out;
  }
}

TEST(SmilesWriter, CanonicalIsIdempotent) {
  for (const char* s :
       {"CCO", "c1ccccc1", "CC(=O)Oc1ccccc1C(=O)O", "c1ccc2ccccc2c1"}) {
    const std::string once = chem::canonical_smiles(s);
    const std::string twice = chem::canonical_smiles(once);
    EXPECT_EQ(once, twice) << s;
  }
}

TEST(SmilesWriter, EquivalentInputsCanonicalizeIdentically) {
  // Same molecule written from different starting atoms/directions.
  EXPECT_EQ(chem::canonical_smiles("OCC"), chem::canonical_smiles("CCO"));
  EXPECT_EQ(chem::canonical_smiles("c1ccccc1C"), chem::canonical_smiles("Cc1ccccc1"));
  EXPECT_EQ(chem::canonical_smiles("C(C)(C)C"), chem::canonical_smiles("CC(C)C"));
}

TEST(SmilesWriter, BiphenylSingleLinkSurvives) {
  const auto mol = chem::parse_smiles("c1ccccc1-c1ccccc1");
  const auto re = chem::parse_smiles(chem::write_smiles(mol));
  EXPECT_EQ(re.formula(), "C12H10");
  // The inter-ring bond must stay single (non-aromatic).
  int cross = 0;
  for (int bi = 0; bi < re.bond_count(); ++bi)
    if (!re.bond(bi).aromatic) ++cross;
  EXPECT_EQ(cross, 1);
}

// ---------------------------------------------------- generated library sweep

class LibraryRoundTrip : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(LibraryRoundTrip, GeneratedCompoundsRoundTrip) {
  const std::uint64_t seed = GetParam();
  for (std::uint64_t i = 0; i < 25; ++i) {
    const auto mol = chem::generate_compound(seed, i);
    ASSERT_TRUE(mol.connected());
    const std::string smi = chem::write_smiles(mol);
    const auto re = chem::parse_smiles(smi);
    EXPECT_EQ(mol.formula(), re.formula()) << smi;
    EXPECT_EQ(chem::write_smiles(re), smi) << "not canonical: " << smi;
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, LibraryRoundTrip,
                         ::testing::Values(1ull, 7ull, 42ull, 1234ull, 99999ull));

// ------------------------------------------------------------- corner syntax

TEST(SmilesEdge, MultiCharges) {
  const auto dication = chem::parse_smiles("[NH2+]CC[NH2+]");
  int total = 0;
  for (int i = 0; i < dication.atom_count(); ++i)
    total += dication.atom(i).formal_charge;
  EXPECT_EQ(total, 2);

  const auto two = chem::parse_smiles("[N+2]");
  EXPECT_EQ(two.atom(0).formal_charge, 2);
  const auto double_plus = chem::parse_smiles("[N++]");
  EXPECT_EQ(double_plus.atom(0).formal_charge, 2);
  const auto minus2 = chem::parse_smiles("[O-2]");
  EXPECT_EQ(minus2.atom(0).formal_charge, -2);
}

TEST(SmilesEdge, ExplicitAromaticBondSymbol) {
  const auto a = chem::parse_smiles("c1ccccc1");
  const auto b = chem::parse_smiles("c:1:c:c:c:c:c:1");
  EXPECT_EQ(chem::write_smiles(a), chem::write_smiles(b));
}

TEST(SmilesEdge, IsotopesAreAcceptedAndIgnored) {
  const auto a = chem::parse_smiles("[13CH4]");
  EXPECT_EQ(a.formula(), "CH4");
  const auto b = chem::parse_smiles("[2H]");  // deuterium -> plain H atom
  EXPECT_EQ(b.atom(0).element, chem::Element::H);
}

TEST(SmilesEdge, RingBondOrderAtEitherEnd) {
  // Cyclohexene written with '=' on the opening or closing digit.
  const auto open = chem::parse_smiles("C=1CCCCC1");
  const auto close = chem::parse_smiles("C1CCCCC=1");
  EXPECT_EQ(chem::write_smiles(open), chem::write_smiles(close));
  int doubles = 0;
  for (int b = 0; b < open.bond_count(); ++b)
    if (open.bond(b).order == 2) ++doubles;
  EXPECT_EQ(doubles, 1);
}

TEST(SmilesEdge, FusedAromaticWithPyrroleNitrogen) {
  // Indole: the [nH] must survive the round trip inside a fused system.
  const auto mol = chem::parse_smiles("c1ccc2[nH]ccc2c1");
  const auto re = chem::parse_smiles(chem::write_smiles(mol));
  EXPECT_EQ(mol.formula(), re.formula());
  int nh = 0;
  for (int i = 0; i < re.atom_count(); ++i)
    if (re.atom(i).element == chem::Element::N && re.hydrogen_count(i) == 1)
      ++nh;
  EXPECT_EQ(nh, 1);
}

TEST(MiscSmiles, CanonicalSmilesOfGeneratedLibraryIsStable) {
  // write(parse(write(mol))) == write(mol) — idempotence over a sample.
  for (std::uint64_t i = 0; i < 12; ++i) {
    const auto mol = chem::generate_compound(4242, i);
    const auto once = chem::write_smiles(mol);
    EXPECT_EQ(chem::canonical_smiles(once), once);
  }
}
