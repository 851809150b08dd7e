#include "impeccable/core/deepdrivemd.hpp"

#include <algorithm>

#include "impeccable/common/kabsch.hpp"
#include "impeccable/common/rng.hpp"
#include "impeccable/common/stats.hpp"
#include "impeccable/common/thread_pool.hpp"
#include "impeccable/md/system.hpp"
#include "impeccable/ml/lof.hpp"

namespace impeccable::core {

using common::Rng;
using common::Vec3;

double conformational_coverage(const md::System& system,
                               const std::vector<std::vector<Vec3>>& confs,
                               std::uint64_t seed, int sample,
                               md::BeadKind selection) {
  if (confs.size() < 2) return 0.0;
  const auto sel = system.topology.selection(selection);
  if (sel.empty()) return 0.0;
  auto gather = [&](const std::vector<Vec3>& pos) {
    std::vector<Vec3> out;
    out.reserve(sel.size());
    for (int i : sel) out.push_back(pos[static_cast<std::size_t>(i)]);
    return out;
  };
  Rng rng(seed);
  common::RunningStats rs;
  // Protein coverage is about internal deformation (superpose first);
  // ligand coverage is about pose displacement in the receptor frame
  // (raw RMSD — superposition would erase unbinding motion).
  const bool superpose = selection == md::BeadKind::Protein;
  for (int k = 0; k < sample; ++k) {
    const std::size_t a = rng.index(confs.size());
    std::size_t b = rng.index(confs.size());
    if (a == b) b = (b + 1) % confs.size();
    const auto pa = gather(confs[a]);
    const auto pb = gather(confs[b]);
    rs.add(superpose ? common::rmsd_superposed(pa, pb)
                     : common::rmsd_raw(pa, pb));
  }
  return rs.mean();
}

DeepDriveMdResult run_deepdrivemd(const md::System& system,
                                  const DeepDriveMdOptions& opts,
                                  bool adaptive) {
  DeepDriveMdResult res;
  Rng rng(opts.seed);

  // Current restart points: initially everything starts from the input.
  std::vector<std::vector<Vec3>> starts(
      static_cast<std::size_t>(opts.simulations_per_round), system.positions);

  // All clouds seen so far (the AAE training set grows every round).
  // Protein mode: centered Cα clouds (the paper's input). Ligand-aware mode:
  // ligand beads *relative to the protein centroid*, so the latent manifold
  // encodes the binding pose directly instead of burying it under the much
  // larger protein point set.
  const auto protein_sel = system.topology.selection(md::BeadKind::Protein);
  const auto ligand_sel = system.topology.selection(md::BeadKind::Ligand);
  auto make_cloud = [&](const md::Frame& frame) {
    if (!opts.ligand_aware || ligand_sel.empty())
      return md::point_cloud(frame, protein_sel);
    Vec3 c;
    for (int i : protein_sel) c += frame.positions[static_cast<std::size_t>(i)];
    c /= static_cast<double>(protein_sel.size());
    std::vector<Vec3> cloud;
    cloud.reserve(ligand_sel.size());
    for (int i : ligand_sel)
      cloud.push_back(frame.positions[static_cast<std::size_t>(i)] - c);
    return cloud;
  };
  std::vector<std::vector<Vec3>> clouds;
  std::vector<std::size_t> cloud_to_conf;

  for (int round = 0; round < opts.rounds; ++round) {
    DeepDriveMdRound stats;
    stats.round = round;

    // ---- MD ensemble ----
    // Only the very first round minimizes (the input geometry may need it);
    // later rounds must NOT re-minimize or the restart conformations —
    // including the outliers we restarted from on purpose — would be
    // quenched back into the nearest basin.
    md::SimulationOptions sim_opts = opts.simulation;
    if (round > 0) sim_opts.minimize_iterations = 0;
    std::vector<md::SimulationResult> sims(starts.size());
    common::parallel_for(0, starts.size(), [&](std::size_t s) {
      md::System start = system;
      start.positions = starts[s];
      sims[s] = md::run_replica(start, sim_opts,
                                opts.seed ^ (round * 131 + s * 7 + 1));
    });

    // ---- aggregate ----
    std::vector<std::size_t> last_frame_of(starts.size(), 0);
    for (std::size_t s = 0; s < sims.size(); ++s) {
      res.md_steps += sims[s].md_steps;
      for (const auto& frame : sims[s].trajectory.frames) {
        res.conformations.push_back(frame.positions);
        res.conformation_round.push_back(round);
        clouds.push_back(make_cloud(frame));
        cloud_to_conf.push_back(res.conformations.size() - 1);
        last_frame_of[s] = res.conformations.size() - 1;
      }
      stats.frames_collected += sims[s].trajectory.size();
    }

    // ---- (re)train the 3D-AAE on everything seen so far ----
    ml::Aae3d aae(static_cast<int>(clouds.front().size()), opts.aae);
    const auto report = aae.train(clouds);
    stats.aae_reconstruction = report.epochs.back().reconstruction;

    // ---- outlier detection on the latent manifold ----
    // LOF runs over everything seen (density estimated on the full history),
    // but restart candidates come from the *current* round's frames only —
    // as in DeepDriveMD, which restarts from novel states of the latest
    // simulation data; old sparse frames would otherwise pull the sampler
    // back to the start.
    const auto latent = aae.embed_batch(clouds);
    const auto lof = ml::local_outlier_factor(
        latent, std::min<int>(opts.lof_neighbors,
                              static_cast<int>(latent.size()) - 1));
    std::vector<std::pair<double, std::size_t>> current;
    for (std::size_t c = 0; c < clouds.size(); ++c)
      if (res.conformation_round[cloud_to_conf[c]] == round)
        current.emplace_back(lof[c], c);
    std::sort(current.rbegin(), current.rend());
    // Greedy diversity filter: restart points must be mutually distant in
    // latent space, or the whole next-round ensemble collapses onto one
    // conformation and loses its parallel-exploration value.
    auto latent_dist = [&](std::size_t a, std::size_t b) {
      double acc = 0.0;
      for (std::size_t d = 0; d < latent[a].size(); ++d) {
        const double v = latent[a][d] - latent[b][d];
        acc += v * v;
      }
      return std::sqrt(acc);
    };
    std::vector<std::size_t> outliers;
    for (const auto& [score, c] : current) {
      if (outliers.size() >= static_cast<std::size_t>(opts.simulations_per_round))
        break;
      bool distinct = true;
      for (std::size_t o : outliers)
        if (latent_dist(c, o) < 1e-3) distinct = false;
      if (!distinct) continue;
      // Require separation from already-picked restarts relative to the
      // typical nearest-neighbour scale (approximated by the median latent
      // spread of the chosen set).
      bool far_enough = true;
      for (std::size_t o : outliers)
        if (latent_dist(c, o) <
            0.5 * latent_dist(current.front().second,
                              current.back().second) /
                static_cast<double>(current.size()))
          far_enough = false;
      if (far_enough) outliers.push_back(c);
    }
    // Backfill if the diversity filter was too strict.
    for (const auto& [score, c] : current) {
      if (outliers.size() >= static_cast<std::size_t>(opts.simulations_per_round))
        break;
      if (std::find(outliers.begin(), outliers.end(), c) == outliers.end())
        outliers.push_back(c);
    }
    for (std::size_t o : outliers) stats.mean_outlier_lof += lof[o];
    if (!outliers.empty())
      stats.mean_outlier_lof /= static_cast<double>(outliers.size());

    // ---- next round's restart points ----
    if (round + 1 < opts.rounds) {
      const std::size_t from_outliers =
          adaptive ? static_cast<std::size_t>(opts.outlier_restart_fraction *
                                              starts.size())
                   : 0;
      for (std::size_t s = 0; s < starts.size(); ++s) {
        if (s < from_outliers && s < outliers.size()) {
          starts[s] = res.conformations[cloud_to_conf[outliers[s]]];
        } else {
          // Continue from this simulation's final frame (plain ensemble MD).
          starts[s] = res.conformations[last_frame_of[s]];
        }
      }
    }

    stats.coverage = conformational_coverage(
        system, res.conformations, opts.seed ^ 0xc0fe ^ round, 400,
        opts.ligand_aware ? md::BeadKind::Ligand : md::BeadKind::Protein);
    {
      const auto& sel = (opts.ligand_aware && !ligand_sel.empty()) ? ligand_sel
                                                                   : protein_sel;
      auto gather = [&](const std::vector<Vec3>& pos) {
        std::vector<Vec3> out;
        out.reserve(sel.size());
        for (int i : sel) out.push_back(pos[static_cast<std::size_t>(i)]);
        return out;
      };
      const auto start_sel = gather(system.positions);
      for (const auto& conf : res.conformations) {
        const auto cur = gather(conf);
        const double d = opts.ligand_aware
                             ? common::rmsd_raw(start_sel, cur)
                             : common::rmsd_superposed(start_sel, cur);
        stats.frontier = std::max(stats.frontier, d);
      }
    }
    res.rounds.push_back(stats);
  }
  return res;
}

}  // namespace impeccable::core
