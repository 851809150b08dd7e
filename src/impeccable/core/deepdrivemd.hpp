#pragma once
// DeepDriveMD — the S2 adaptive-sampling loop (Sec. 5.1.4, refs [28, 29]).
//
// The full iterative protocol, not just one pass: each round runs an MD
// ensemble, aggregates the Cα point clouds, (re)trains the 3D-AAE, embeds
// all conformations seen so far, picks LOF outliers on the latent manifold,
// and *restarts* the next round's simulations from those outlier
// conformations. The paper credits this loop with orders-of-magnitude
// sampling acceleration over plain ensemble MD; the bench
// `ablation_deepdrivemd` measures the coverage gain on our substrate.

#include <cstdint>
#include <vector>

#include "impeccable/md/analysis.hpp"
#include "impeccable/md/simulation.hpp"
#include "impeccable/ml/aae.hpp"

namespace impeccable::md {
struct System;
}  // namespace impeccable::md

namespace impeccable::core {

struct DeepDriveMdOptions {
  int rounds = 3;
  int simulations_per_round = 4;      ///< concurrent MD tasks per round
  md::SimulationOptions simulation;   ///< per-task MD schedule
  ml::AaeOptions aae;
  int lof_neighbors = 10;
  /// Fraction of next-round starts taken from latent outliers (the rest
  /// continue from the previous round's final frames).
  double outlier_restart_fraction = 1.0;
  /// Include ligand beads in the AAE point cloud. For LPC systems the
  /// ligand's pose carries the rare-event signal (partial unbinding,
  /// repositioning); protein-only clouds match the paper's Cα input.
  bool ligand_aware = false;
  std::uint64_t seed = 0xdd3dULL;
};

struct DeepDriveMdRound {
  int round = 0;
  std::size_t frames_collected = 0;
  float aae_reconstruction = 0.0f;  ///< final-epoch training Chamfer
  double mean_outlier_lof = 0.0;
  /// Conformational coverage proxy: mean pairwise RMSD among a subsample of
  /// all frames seen so far (grows as new regions are reached).
  double coverage = 0.0;
  /// Rare-event progress: the maximum RMSD from the starting conformation
  /// reached by any frame so far (ligand beads in ligand_aware mode).
  double frontier = 0.0;
};

struct DeepDriveMdResult {
  std::vector<DeepDriveMdRound> rounds;
  /// Every stored conformation (positions of the full system) with round tag.
  std::vector<std::vector<common::Vec3>> conformations;
  std::vector<int> conformation_round;
  std::uint64_t md_steps = 0;
};

/// Run the adaptive loop on one system. If `adaptive` is false the restart
/// step is skipped (plain ensemble MD continuation) — the ablation baseline.
DeepDriveMdResult run_deepdrivemd(const md::System& system,
                                  const DeepDriveMdOptions& opts,
                                  bool adaptive = true);

/// Coverage proxy: mean pairwise RMSD of the selected beads over up to
/// `sample` random pairs of the given conformations.
double conformational_coverage(const md::System& system,
                               const std::vector<std::vector<common::Vec3>>& confs,
                               std::uint64_t seed, int sample = 400,
                               md::BeadKind selection = md::BeadKind::Protein);

}  // namespace impeccable::core
