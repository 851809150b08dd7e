#pragma once
// ESMACS — Enhanced Sampling of Molecular dynamics with Approximation of
// Continuum Solvent (Sec. 5.1.3).
//
// Ensemble MMPBSA: `replicas` independent Langevin replicas of one LPC,
// each minimize → equilibrate → produce; the binding free energy is the
// replica-mean of per-replica MMPBSA averages, with the replica-to-replica
// spread giving the error bar. Coarse- vs fine-grained variants differ in
// replica count and durations ("6 vs 24 replicas, 1 vs 2 ns equilibration,
// 4 vs 10 ns simulation") with ~10x cost ratio. The adaptive variant grows
// the ensemble until the standard error meets a target — the "number of
// replicas is adjusted to find a sweet spot" behaviour.

#include <cstdint>
#include <optional>
#include <vector>

#include "impeccable/common/stats.hpp"
#include "impeccable/fe/mmpbsa.hpp"

namespace impeccable::fe {

struct EsmacsConfig {
  int replicas = 6;
  md::SimulationOptions simulation;  ///< per-replica MD schedule
  MmpbsaOptions mmpbsa;
  bool keep_trajectories = false;  ///< retain per-replica trajectories for S2
};

/// Coarse-grained preset: 6 replicas, short equilibration/production.
/// `scale` multiplies the step counts (1.0 = bench default).
EsmacsConfig cg_config(double scale = 1.0);
/// Fine-grained preset: 24 replicas, 2x equilibration, 2.5x production.
EsmacsConfig fg_config(double scale = 1.0);

struct EsmacsResult {
  double binding_free_energy = 0.0;  ///< replica mean, kcal/mol
  double std_error = 0.0;            ///< over replica means
  common::Interval ci95;             ///< bootstrap over replica means
  std::vector<double> replica_means;
  /// Mean within-replica SEM of the per-frame ΔG series, block-averaged to
  /// respect autocorrelation — ESMACS reports both error axes (between
  /// replicas and along each trajectory).
  double within_replica_error = 0.0;
  std::vector<md::Trajectory> trajectories;  ///< if keep_trajectories
  std::uint64_t md_steps = 0;                ///< total work units
};

/// Run the ensemble protocol on one LPC. Replica r uses seed derived from
/// (seed, r); the replicas fan out through common::parallel_for over the
/// installed compute pool, so the replica set is identical for any pool size.
EsmacsResult run_esmacs(const md::System& lpc, int rotatable_bonds,
                        const EsmacsConfig& config, std::uint64_t seed);

struct AdaptiveOptions {
  int min_replicas = 4;
  int max_replicas = 24;
  int batch = 2;              ///< replicas added per adaptation step
  double target_sem = 0.5;    ///< kcal/mol, stop when std_error <= this
};

/// Adaptive ESMACS: start with min_replicas, add batches until the standard
/// error of the mean reaches target_sem or max_replicas is exhausted.
EsmacsResult run_esmacs_adaptive(const md::System& lpc, int rotatable_bonds,
                                 const EsmacsConfig& base,
                                 const AdaptiveOptions& adapt,
                                 std::uint64_t seed);

}  // namespace impeccable::fe
