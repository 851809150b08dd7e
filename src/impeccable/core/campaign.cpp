#include "impeccable/core/campaign.hpp"

#include <algorithm>
#include <sstream>

#include "impeccable/core/multi_campaign.hpp"
#include "impeccable/obs/json.hpp"
#include "impeccable/rct/backend.hpp"

namespace impeccable::core {

Target Target::make(const std::string& name, std::uint64_t seed,
                    int protein_residues, int grid_nodes,
                    int crystal_structures) {
  Target t;
  t.name = name;
  t.seed = seed;
  t.receptor = dock::Receptor::synthesize(name, seed);
  dock::GridOptions gopts;
  gopts.nodes = grid_nodes;
  t.grid = dock::compute_grid(t.receptor, gopts);
  t.grids.push_back(t.grid);
  // Additional crystal structures: mild variations of the same pocket
  // (different seeds, same target identity).
  for (int k = 1; k < crystal_structures; ++k) {
    const auto variant = dock::Receptor::synthesize(
        name + "-xtal" + std::to_string(k), seed + 7919 * static_cast<std::uint64_t>(k));
    t.grids.push_back(dock::compute_grid(variant, gopts));
  }
  md::ProteinOptions popts;
  popts.residues = protein_residues;
  t.protein = md::build_protein(seed, popts);
  return t;
}

Campaign::Campaign(Target target, ScienceConfig science, ExecConfig exec)
    : target_(std::move(target)),
      science_(std::move(science)),
      exec_(std::move(exec)) {}

CampaignReport Campaign::run() {
  rct::LocalBackend local(exec_.threads);
  return run(local);
}

CampaignReport Campaign::run(rct::ExecutionBackend& raw) {
  // The single-target campaign is the one-entry special case of the
  // multi-target engine. FIFO ready order (hence no node priorities) keeps
  // the historical scheduling exactly; the science would be identical
  // either way (priorities are scheduling-only).
  MultiCampaignOptions opts;
  opts.ready_order = rct::AppManagerOptions::ReadyOrder::kFifo;
  MultiCampaign multi(exec_, opts);
  multi.add_target(target_, science_);
  MultiCampaignReport rep = multi.run(raw);
  return std::move(rep.reports.front());
}

void IterationMetrics::to_json(std::ostream& os) const {
  obs::json::Writer w(os);
  w.begin_object();
  w.kv("iteration", iteration);
  w.kv("library_screened", static_cast<std::uint64_t>(library_screened));
  w.kv("docked", static_cast<std::uint64_t>(docked));
  w.kv("cg_runs", static_cast<std::uint64_t>(cg_runs));
  w.kv("fg_runs", static_cast<std::uint64_t>(fg_runs));
  w.kv("wall_seconds", wall_seconds);
  w.kv("dock_throughput", dock_throughput);
  w.kv("effective_ligands_per_second", effective_ligands_per_second);
  w.kv("surrogate_spearman", surrogate_spearman);
  w.kv("best_cg_energy", best_cg_energy);
  w.kv("best_fg_energy", best_fg_energy);
  w.end_object();
}

std::vector<const CompoundRecord*> CampaignReport::cg_ranking() const {
  std::vector<const CompoundRecord*> out;
  for (const auto& [id, rec] : compounds)
    if (rec.cg_done) out.push_back(&rec);
  std::sort(out.begin(), out.end(), [](const CompoundRecord* a, const CompoundRecord* b) {
    return a->cg_energy < b->cg_energy;
  });
  return out;
}

std::string CampaignReport::science_fingerprint() const {
  std::ostringstream os;
  obs::json::Writer w(os);
  w.begin_object();
  w.key("compounds");
  w.begin_array();
  // std::map iteration: deterministic id order.
  for (const auto& [id, rec] : compounds) {
    w.begin_object();
    w.kv("id", rec.id);
    w.kv("surrogate", rec.surrogate_score);
    w.kv("docked", rec.docked);
    w.kv("dock_score", rec.dock_score);
    w.kv("cg_done", rec.cg_done);
    w.kv("cg_energy", rec.cg_energy);
    w.kv("cg_error", rec.cg_error);
    w.key("fg");
    w.begin_array();
    for (double e : rec.fg_energies) w.value(e);
    w.end_array();
    w.end_object();
  }
  w.end_array();
  w.key("iterations");
  w.begin_array();
  for (const auto& m : iterations) {
    // Science-bearing fields only: everything wall-clock-derived
    // (wall_seconds, throughputs) varies across backends and is excluded.
    w.begin_object();
    w.kv("iteration", m.iteration);
    w.kv("library_screened", static_cast<std::uint64_t>(m.library_screened));
    w.kv("docked", static_cast<std::uint64_t>(m.docked));
    w.kv("cg_runs", static_cast<std::uint64_t>(m.cg_runs));
    w.kv("fg_runs", static_cast<std::uint64_t>(m.fg_runs));
    w.kv("surrogate_spearman", m.surrogate_spearman);
    w.kv("best_cg_energy", m.best_cg_energy);
    w.kv("best_fg_energy", m.best_fg_energy);
    w.end_object();
  }
  w.end_array();
  w.key("flops");
  w.begin_object();
  for (const auto& [component, count] : flops->snapshot())
    w.kv(component, count);
  w.end_object();
  w.end_object();
  return os.str();
}

}  // namespace impeccable::core
