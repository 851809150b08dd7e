#pragma once
// Trajectory analysis: the quantities S2 and the figures consume.
//  * RMSD series (Fig. 5B),
//  * heavy-atom protein-ligand contact counts — the paper's "pragmatic
//    measure of LPC stability" (Sec. 5.1.4),
//  * Cα point clouds for the 3D-AAE (Sec. 7.1.3).

#include <vector>

#include "impeccable/common/vec3.hpp"

namespace impeccable::md {
struct Frame;
struct System;
struct Trajectory;
}  // namespace impeccable::md

namespace impeccable::md {

/// Per-frame RMSD of the selected beads against the first frame, after
/// optimal superposition.
std::vector<double> rmsd_series(const Trajectory& traj,
                                const std::vector<int>& selection);

/// Per-frame count of protein-ligand bead pairs within `cutoff` Å.
std::vector<double> contact_series(const Trajectory& traj, const System& system,
                                   double cutoff = 6.0);

/// Extract the protein Cα point cloud of one frame (the 3D-AAE input),
/// centered on its centroid.
std::vector<common::Vec3> protein_point_cloud(const Frame& frame,
                                              const System& system);

/// Point cloud over an arbitrary bead selection, centered on its centroid.
std::vector<common::Vec3> point_cloud(const Frame& frame,
                                      const std::vector<int>& selection);

/// Automated equilibration detection (Chodera-style): choose the truncation
/// point t0 that maximizes the number of effectively uncorrelated samples in
/// series[t0:], with the statistical inefficiency estimated from block
/// averaging. Returns the index of the first production sample (0 for an
/// already-stationary series; series.size()-1 at worst).
std::size_t detect_equilibration(const std::vector<double>& series);

}  // namespace impeccable::md
