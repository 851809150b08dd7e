#include "impeccable/fe/ties.hpp"

#include <cmath>
#include <stdexcept>

#include "impeccable/common/rng.hpp"
#include "impeccable/common/thread_pool.hpp"
#include "impeccable/md/system.hpp"

namespace impeccable::fe {

TiesResult run_ties(const md::System& lpc, const TiesConfig& config,
                    std::uint64_t seed) {
  if (config.lambdas.size() < 2)
    throw std::invalid_argument("run_ties: need at least two lambda windows");

  TiesResult res;
  res.windows.reserve(config.lambdas.size());

  for (std::size_t w = 0; w < config.lambdas.size(); ++w) {
    const double lambda = config.lambdas[w];
    md::SimulationOptions sim = config.simulation;
    sim.forcefield.interaction_scale = lambda;

    std::vector<double> replica_means(
        static_cast<std::size_t>(config.replicas_per_window), 0.0);
    std::vector<std::uint64_t> replica_steps(replica_means.size(), 0);

    common::parallel_for(0, replica_means.size(), [&](std::size_t r) {
      std::uint64_t s = seed ^ (w * 0x517cc1b727220a95ULL) ^
                        (static_cast<std::uint64_t>(r + 1) * 0x2545f4914f6cdd1dULL);
      const auto out = md::run_replica(lpc, sim, s);
      // ⟨dH/dλ⟩ over stored frames (soft-core analytic derivative).
      common::RunningStats rs;
      for (const auto& f : out.trajectory.frames) rs.add(f.energy.dh_dlambda);
      replica_means[r] = rs.count() ? rs.mean() : 0.0;
      replica_steps[r] = out.md_steps;
    });
    std::uint64_t steps = 0;
    for (std::uint64_t s : replica_steps) steps += s;

    TiesWindow win;
    win.lambda = lambda;
    win.mean_dhdl = common::mean(replica_means);
    win.std_error = common::std_error(replica_means);
    win.replica_means = std::move(replica_means);
    res.windows.push_back(std::move(win));
    res.md_steps += steps;
  }

  // Trapezoid integration over λ with error propagation.
  double dg = 0.0, var = 0.0;
  for (std::size_t w = 0; w + 1 < res.windows.size(); ++w) {
    const double h = res.windows[w + 1].lambda - res.windows[w].lambda;
    dg += 0.5 * h * (res.windows[w].mean_dhdl + res.windows[w + 1].mean_dhdl);
    const double ea = 0.5 * h * res.windows[w].std_error;
    const double eb = 0.5 * h * res.windows[w + 1].std_error;
    var += ea * ea + eb * eb;
  }
  res.delta_g = dg;
  res.std_error = std::sqrt(var);
  return res;
}

}  // namespace impeccable::fe
