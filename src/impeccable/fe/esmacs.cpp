#include "impeccable/fe/esmacs.hpp"

#include <cmath>
#include <string>

#include "impeccable/common/rng.hpp"
#include "impeccable/common/thread_pool.hpp"
#include "impeccable/md/forcefield.hpp"
#include "impeccable/obs/recorder.hpp"

namespace impeccable::fe {

EsmacsConfig cg_config(double scale) {
  EsmacsConfig c;
  c.replicas = 6;
  c.simulation.minimize_iterations = 100;
  c.simulation.equilibration_steps = static_cast<int>(100 * scale);
  c.simulation.production_steps = static_cast<int>(400 * scale);
  c.simulation.report_interval = 20;
  return c;
}

EsmacsConfig fg_config(double scale) {
  EsmacsConfig c;
  c.replicas = 24;
  c.simulation.minimize_iterations = 150;
  c.simulation.equilibration_steps = static_cast<int>(200 * scale);
  c.simulation.production_steps = static_cast<int>(1000 * scale);
  c.simulation.report_interval = 20;
  return c;
}

namespace {

struct ReplicaOutcome {
  double mean_dg = 0.0;
  double frame_error = 0.0;  ///< block-averaged SEM of the per-frame series
  std::uint64_t md_steps = 0;
  md::Trajectory trajectory;
};

ReplicaOutcome run_one(const md::System& lpc, int rotatable_bonds,
                       const EsmacsConfig& config, std::uint64_t replica_seed) {
  ReplicaOutcome out;
  md::SimulationResult sim = md::run_replica(lpc, config.simulation, replica_seed);
  const md::ForceField ff(lpc.topology);
  std::vector<double> frame_dg;
  frame_dg.reserve(sim.trajectory.size());
  for (const auto& frame : sim.trajectory.frames)
    frame_dg.push_back(
        frame_binding_energy(ff, frame, rotatable_bonds, config.mmpbsa));
  out.mean_dg = frame_dg.empty() ? 0.0 : common::mean(frame_dg);
  out.frame_error = common::block_average_error(frame_dg);
  out.md_steps = sim.md_steps;
  if (config.keep_trajectories) out.trajectory = std::move(sim.trajectory);
  return out;
}

EsmacsResult summarize(std::vector<ReplicaOutcome> outcomes, bool keep,
                       std::uint64_t seed) {
  EsmacsResult res;
  for (auto& o : outcomes) {
    res.replica_means.push_back(o.mean_dg);
    res.within_replica_error += o.frame_error / static_cast<double>(outcomes.size());
    res.md_steps += o.md_steps;
    if (keep) res.trajectories.push_back(std::move(o.trajectory));
  }
  res.binding_free_energy = common::mean(res.replica_means);
  res.std_error = common::std_error(res.replica_means);
  res.ci95 = common::bootstrap_ci95(res.replica_means, 400, seed ^ 0xb007);
  return res;
}

std::vector<ReplicaOutcome> run_batch(const md::System& lpc, int rotatable_bonds,
                                      const EsmacsConfig& config,
                                      std::uint64_t seed, int first_replica,
                                      int count, obs::SpanId parent) {
  std::vector<ReplicaOutcome> outcomes(static_cast<std::size_t>(count));
  auto replica_seed = [&](int r) {
    std::uint64_t s = seed;
    common::splitmix64(s);
    return s ^ (0x9e3779b97f4a7c15ULL * static_cast<std::uint64_t>(r + 1));
  };
  common::parallel_for(0, outcomes.size(), [&](std::size_t r) {
    const int replica = first_replica + static_cast<int>(r);
    // Replicas may execute on pool threads: parent explicitly to the
    // enclosing esmacs span instead of the worker's local stack.
    obs::Span span(obs::cat::kFe, "replica-" + std::to_string(replica),
                   obs::global(), parent);
    outcomes[r] = run_one(lpc, rotatable_bonds, config, replica_seed(replica));
    if (span.active()) span.arg("mean_dg", outcomes[r].mean_dg);
  });
  return outcomes;
}

}  // namespace

EsmacsResult run_esmacs(const md::System& lpc, int rotatable_bonds,
                        const EsmacsConfig& config, std::uint64_t seed) {
  obs::Span span(obs::cat::kFe, "esmacs");
  span.arg("replicas", static_cast<double>(config.replicas));
  auto outcomes = run_batch(lpc, rotatable_bonds, config, seed, 0,
                            config.replicas, span.id());
  EsmacsResult res =
      summarize(std::move(outcomes), config.keep_trajectories, seed);
  if (span.active()) span.arg("dg", res.binding_free_energy);
  return res;
}

EsmacsResult run_esmacs_adaptive(const md::System& lpc, int rotatable_bonds,
                                 const EsmacsConfig& base,
                                 const AdaptiveOptions& adapt,
                                 std::uint64_t seed) {
  obs::Span span(obs::cat::kFe, "esmacs-adaptive");
  std::vector<ReplicaOutcome> outcomes = run_batch(
      lpc, rotatable_bonds, base, seed, 0, adapt.min_replicas, span.id());

  auto sem_of = [&]() {
    std::vector<double> means;
    for (const auto& o : outcomes) means.push_back(o.mean_dg);
    return common::std_error(means);
  };

  int next = adapt.min_replicas;
  while (static_cast<int>(outcomes.size()) < adapt.max_replicas &&
         (outcomes.size() < 2 || sem_of() > adapt.target_sem)) {
    const int count = std::min(adapt.batch,
                               adapt.max_replicas - static_cast<int>(outcomes.size()));
    auto more =
        run_batch(lpc, rotatable_bonds, base, seed, next, count, span.id());
    next += count;
    for (auto& o : more) outcomes.push_back(std::move(o));
  }
  if (span.active())
    span.arg("replicas", static_cast<double>(outcomes.size()));
  return summarize(std::move(outcomes), base.keep_trajectories, seed);
}

}  // namespace impeccable::fe
