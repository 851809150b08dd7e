#pragma once
// TIES — Thermodynamic Integration with Enhanced Sampling.
//
// The paper lists TIES as the lead-optimization stage two orders of
// magnitude costlier than ESMACS (Tab. 2: "BFE-TI ... not integrated",
// 640 node-hours/ligand). We implement it fully: the protein-ligand
// interaction Hamiltonian is coupled by λ, an ensemble of replicas samples
// ⟨dH/dλ⟩ = ⟨E_inter⟩ at each λ window, and the free-energy difference is
// the trapezoid integral over λ. ΔG(0→1) is the free energy of switching
// the interactions on, i.e. (minus) the decoupling free energy.

#include <cstdint>
#include <vector>

#include "impeccable/common/stats.hpp"
#include "impeccable/md/simulation.hpp"

namespace impeccable::md {
struct System;
}  // namespace impeccable::md

namespace impeccable::fe {

struct TiesConfig {
  std::vector<double> lambdas{0.0, 0.25, 0.5, 0.75, 1.0};
  int replicas_per_window = 5;
  md::SimulationOptions simulation;  ///< per-replica schedule (λ is injected)
};

struct TiesWindow {
  double lambda = 0.0;
  double mean_dhdl = 0.0;   ///< ⟨E_inter⟩ at this λ
  double std_error = 0.0;   ///< over replicas
  std::vector<double> replica_means;
};

struct TiesResult {
  double delta_g = 0.0;     ///< trapezoid integral of ⟨dH/dλ⟩ dλ
  double std_error = 0.0;   ///< propagated window errors
  std::vector<TiesWindow> windows;
  std::uint64_t md_steps = 0;
};

/// Run the full TI protocol on one LPC. Each window's replicas fan out
/// through common::parallel_for over the installed compute pool.
TiesResult run_ties(const md::System& lpc, const TiesConfig& config,
                    std::uint64_t seed);

}  // namespace impeccable::fe
