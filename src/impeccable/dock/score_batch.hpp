#pragma once
// Multi-pose batched scoring — the AutoDock-GPU restructuring (LeGrand et
// al., arXiv 2007.03678) on CPU SIMD lanes: evaluate B poses of ONE ligand
// simultaneously over shared static data (grid maps, nonbonded pair table).
//
// Layout is structure-of-arrays: per-atom coordinate planes x/y/z with one
// slot per pose lane, stride padded to the vector width, so the trilinear
// grid sampling and the LJ pair sweep become vectorizable lane loops that
// load the pair table and grid cells once per batch instead of once per
// pose. Per-lane arithmetic replicates the scalar kernels expression for
// expression, so a batched score is bit-identical to the scalar score of
// the same pose (the golden suite and the LGA trajectory gate rely on it).

#include <array>
#include <cstdint>
#include <vector>

#include "impeccable/dock/score.hpp"

namespace impeccable::dock {

/// Hard upper bound on poses per batch (two AVX-512 registers of lanes).
inline constexpr int kMaxBatchPoses = 16;

/// Lane-stride quantum: batches are padded to a multiple of this so the
/// lane loops keep whole-vector trip counts (4 doubles = one AVX2 register).
inline constexpr int kBatchLaneStep = 4;

/// `count` padded up to the lane step (0 stays 0; capped at kMaxBatchPoses).
constexpr int padded_lane_count(int count) {
  const int p = (count + kBatchLaneStep - 1) / kBatchLaneStep * kBatchLaneStep;
  return p < kMaxBatchPoses ? p : kMaxBatchPoses;
}

/// A batch of poses of one ligand awaiting evaluation. Non-owning: the
/// poses must outlive the batch (in the LGA they live in the population
/// vector, which is reserved up front so pointers stay stable).
struct PoseBatch {
  std::array<const Pose*, kMaxBatchPoses> poses{};
  int count = 0;

  bool empty() const { return count == 0; }
  bool full() const { return count == kMaxBatchPoses; }
  void clear() { count = 0; }
  void push(const Pose& p) { poses[static_cast<std::size_t>(count++)] = &p; }
};

/// Structure-of-arrays scratch for batched evaluation. One per search-run,
/// like ScorerScratch; sized lazily on first use, after which batched
/// evaluations perform no heap allocation. Planes are indexed
/// [atom * lanes + lane]; padding lanes (count..lanes) hold zeros, which
/// every kernel tolerates (the grid clamps, the LJ distance floor holds).
struct BatchScratch {
  int atoms = 0;  ///< plane row count the buffers are sized for
  int lanes = 0;  ///< padded lane stride the buffers are sized for

  std::vector<double> x, y, z;     ///< coordinate planes, atoms × lanes
  std::vector<double> fx, fy, fz;  ///< force planes (gradient path only)
  std::vector<double> energy;      ///< per-lane accumulators, lanes

  /// Ensure capacity for `atom_count` × `lane_count`, zeroing the coordinate
  /// and energy planes (padding lanes must read as zero every batch).
  void reset(int atom_count, int lane_count);
  /// Zero the force planes (gradient batches only — energy batches skip it).
  void reset_forces();
};

}  // namespace impeccable::dock
