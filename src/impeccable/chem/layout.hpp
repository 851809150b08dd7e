#pragma once
// Coordinate generation from the molecular graph.
//
//  * layout_2d      — force-directed 2D depiction coordinates; ML1's image
//                     featurization ("2D image depictions", Sec. 5.1.2)
//                     rasterizes these.
//  * embed_3d       — crude distance-geometry 3D embedding used to build the
//                     docking ligand (conformer enumeration input, Sec. 3.2 S1)
//                     and the MD bead topology.
//
// Both are deterministic given (molecule, seed), and bit-stable across
// builds: layout_2d's all-pairs repulsion is a vectorized sweep per row
// whose forces see the IEEE operations of the serial pairwise loop in the
// same order (j-side terms in place, i-side terms added after the sweep in
// ascending j), and layout.cpp builds with -ffp-contract=off.
// Layout.BitsPinned and Layout.Embed3dBitsPinned pin both by digest.

#include <cstdint>
#include <vector>

#include "impeccable/common/vec3.hpp"

namespace impeccable::chem {
class Molecule;
}  // namespace impeccable::chem

namespace impeccable::chem {

struct Point2 {
  double x = 0.0, y = 0.0;
};

/// Spring-embedder 2D layout with unit bond lengths; centered at the origin
/// and scaled so the RMS distance from center is 1. `iterations` trades
/// embedding fidelity for speed (the default matches the historical fixed
/// count; low-resolution depictions tolerate far fewer — the out-of-core
/// streaming bench runs 1e8 ligands on a coarse setting).
std::vector<Point2> layout_2d(const Molecule& mol, std::uint64_t seed = 7,
                              int iterations = 250);

/// Distance-geometry 3D embedding: bond-length and 1-3 distance restraints
/// plus soft nonbonded repulsion, minimized from a randomized start.
/// Bond lengths follow covalent-radius sums (~1.2-2.2 Å scale).
std::vector<common::Vec3> embed_3d(const Molecule& mol, std::uint64_t seed = 7);

/// Ideal length for a bond, Å (order-aware covalent radii sum).
double ideal_bond_length(const Molecule& mol, int bond_index);

}  // namespace impeccable::chem
