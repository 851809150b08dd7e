#pragma once
// Pose scoring — intermolecular grid term + intramolecular ligand term,
// with analytic gradients in pose space for the ADADELTA local search
// (Sec. 5.1.1: "a new local-search method based on gradients of the scoring
// function").
//
// The evaluation kernel is allocation-free in steady state: coordinates,
// per-atom forces and torsion accumulators live in a ScorerScratch arena
// (owned per search-run, or the scorer's own fallback arena), grid lookups
// are fused across the probe-affinity and electrostatic maps, and the LJ
// pair parameters come from the ligand's precomputed table.

#include <atomic>
#include <cstdint>
#include <vector>

#include "impeccable/dock/grid.hpp"
#include "impeccable/dock/ligand.hpp"

namespace impeccable::dock {

struct PoseBatch;     // score_batch.hpp
struct BatchScratch;  // score_batch.hpp

/// Reusable scratch arena for the scoring hot loop. One per search-run (LGA
/// run, local-search invocation); sized lazily on first use, then steady-state
/// evaluations perform no heap allocation.
struct ScorerScratch {
  std::vector<common::Vec3> coords;  ///< built atom coordinates
  std::vector<common::Vec3> forces;  ///< per-atom Cartesian energy gradients
};

/// Scores poses of one ligand against one receptor grid.
/// Thread-compatible: one instance per worker — the evaluation counter is the
/// per-instance work-unit count used for flop accounting (Sec. 7.2), and the
/// fallback scratch arena is per-instance mutable state.
class ScoringFunction {
 public:
  ScoringFunction(const AffinityGrid& grid, const Ligand& ligand);

  /// Total energy (kcal/mol-ish). If `coords` is non-null the built atom
  /// coordinates are written there (avoids a second build for callers that
  /// need them).
  double evaluate(const Pose& pose, std::vector<common::Vec3>* coords = nullptr) const;

  /// Same, but building coordinates in an explicit caller-owned arena.
  double evaluate(const Pose& pose, ScorerScratch& scratch,
                  std::vector<common::Vec3>* coords = nullptr) const;

  /// Energy and its gradient with respect to pose degrees of freedom.
  /// Torque is the derivative with respect to an infinitesimal world-frame
  /// rotation about the ligand centroid; torsion entries follow the pose's
  /// torsion order.
  double evaluate_with_gradient(const Pose& pose, PoseGradient& grad) const;

  /// Same, but with coordinates and forces in an explicit caller-owned arena.
  double evaluate_with_gradient(const Pose& pose, ScorerScratch& scratch,
                                PoseGradient& grad) const;

  /// Energy (and per-atom Cartesian forces, if requested) at explicit atom
  /// coordinates — the pose-independent inner kernel, exposed for analysis
  /// and boundary tests. `coords` must hold atom_count() entries. A non-null
  /// `forces` is resized to match, which may allocate on first use; the
  /// scratch overload below is the allocation-free form.
  double score_coords(const std::vector<common::Vec3>& coords,
                      std::vector<common::Vec3>* forces = nullptr) const;

  /// Allocation-free score_coords: forces are accumulated into
  /// `scratch.forces` (pre-sized from the arena, no caller-side vector
  /// growth). Steady-state calls perform zero heap allocations.
  double score_coords(const std::vector<common::Vec3>& coords,
                      ScorerScratch& scratch) const;

  /// Batched energy-only evaluation: scores all poses of `batch` at once
  /// through the SoA lane kernels (see score_batch.hpp), writing
  /// batch.count energies. Each lane's score is bit-identical to the
  /// scalar evaluate() of the same pose; the evaluation counter advances
  /// by batch.count (one work unit per pose, not per batch). Steady-state
  /// calls with a warmed `scratch` perform zero heap allocations.
  void evaluate_batch(const PoseBatch& batch, BatchScratch& scratch,
                      double* energies) const;

  /// Batched energy + pose-space gradients: lane-identical to
  /// evaluate_with_gradient per pose. `energies` and `grads` must hold
  /// batch.count slots; grads[l].torsions is sized in place (allocation-free
  /// once warmed, like the scalar path).
  void evaluate_with_gradient_batch(const PoseBatch& batch,
                                    BatchScratch& scratch, double* energies,
                                    PoseGradient* grads) const;

  /// Number of evaluate* calls since construction (work units).
  std::uint64_t evaluations() const { return evals_; }

  const Ligand& ligand() const { return ligand_; }
  const AffinityGrid& grid() const { return grid_; }

 private:
  /// Pose-space reduction: per-atom Cartesian forces -> translation force,
  /// torque about pose.translation, torsion-axis components.
  /// evaluate_with_gradient_batch runs the same operations per lane; any
  /// change here must be mirrored there.
  void reduce_pose_gradient(const common::Vec3* coords,
                            const common::Vec3* forces, std::size_t n,
                            const Pose& pose, PoseGradient& grad) const;

  /// Energy-only kernel (no gradient math) at explicit coordinates.
  double energy_only(const common::Vec3* coords, std::size_t n) const;

  /// Energy + per-atom forces at explicit coordinates. `forces` must hold
  /// `n` zero-initialized entries.
  double energy_and_forces(const common::Vec3* coords, std::size_t n,
                           common::Vec3* forces) const;

  const AffinityGrid& grid_;
  const Ligand& ligand_;
  /// Per-atom probe map, resolved once at construction (atoms -> fields).
  std::vector<const GridField*> atom_fields_;
  std::vector<double> charges_;  ///< flat per-atom charges (SoA hot data)
  mutable ScorerScratch scratch_;  ///< fallback arena for the plain signatures
  mutable std::atomic<std::uint64_t> evals_{0};
};

}  // namespace impeccable::dock
