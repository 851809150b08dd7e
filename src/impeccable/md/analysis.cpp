#include "impeccable/md/analysis.hpp"

#include <stdexcept>

#include "impeccable/common/kabsch.hpp"
#include "impeccable/common/stats.hpp"
#include "impeccable/md/simulation.hpp"
#include "impeccable/md/system.hpp"

namespace impeccable::md {

using common::Vec3;

namespace {

std::vector<Vec3> gather(const std::vector<Vec3>& pos,
                         const std::vector<int>& selection) {
  std::vector<Vec3> out;
  out.reserve(selection.size());
  for (int i : selection) out.push_back(pos[static_cast<std::size_t>(i)]);
  return out;
}

}  // namespace

std::vector<double> rmsd_series(const Trajectory& traj,
                                const std::vector<int>& selection) {
  std::vector<double> out;
  if (traj.frames.empty()) return out;
  if (selection.empty())
    throw std::invalid_argument("rmsd_series: empty selection");
  const auto ref = gather(traj.frames.front().positions, selection);
  out.reserve(traj.size());
  for (const auto& f : traj.frames)
    out.push_back(common::rmsd_superposed(ref, gather(f.positions, selection)));
  return out;
}

std::vector<double> contact_series(const Trajectory& traj, const System& system,
                                   double cutoff) {
  const auto prot = system.topology.selection(BeadKind::Protein);
  const auto lig = system.topology.selection(BeadKind::Ligand);
  const double c2 = cutoff * cutoff;
  std::vector<double> out;
  out.reserve(traj.size());
  for (const auto& f : traj.frames) {
    int contacts = 0;
    for (int i : lig)
      for (int j : prot)
        if (common::distance2(f.positions[static_cast<std::size_t>(i)],
                              f.positions[static_cast<std::size_t>(j)]) < c2)
          ++contacts;
    out.push_back(static_cast<double>(contacts));
  }
  return out;
}

std::vector<Vec3> point_cloud(const Frame& frame,
                              const std::vector<int>& selection) {
  if (selection.empty())
    throw std::invalid_argument("point_cloud: empty selection");
  auto cloud = gather(frame.positions, selection);
  Vec3 c;
  for (const auto& p : cloud) c += p;
  c /= static_cast<double>(cloud.size());
  for (auto& p : cloud) p -= c;
  return cloud;
}

std::vector<Vec3> protein_point_cloud(const Frame& frame, const System& system) {
  return point_cloud(frame, system.topology.selection(BeadKind::Protein));
}

std::size_t detect_equilibration(const std::vector<double>& series) {
  const std::size_t n = series.size();
  if (n < 8) return 0;

  // Candidate truncation points: ~16 positions over the first half.
  double best_neff = -1.0;
  std::size_t best_t0 = 0;
  for (int k = 0; k < 16; ++k) {
    const std::size_t t0 = k * (n / 2) / 16;
    const std::span<const double> tail(series.data() + t0, n - t0);
    const double naive = common::std_error(tail);
    const double blocked = common::block_average_error(tail);
    if (naive <= 0.0) continue;
    // Statistical inefficiency g = (blocked/naive)^2; N_eff = len / g.
    const double g = std::max(1.0, (blocked / naive) * (blocked / naive));
    const double neff = static_cast<double>(tail.size()) / g;
    if (neff > best_neff) {
      best_neff = neff;
      best_t0 = t0;
    }
  }
  return best_t0;
}

}  // namespace impeccable::md
