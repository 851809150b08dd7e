#include "impeccable/core/multi_campaign.hpp"

#include <algorithm>
#include <utility>

#include "impeccable/common/thread_pool.hpp"
#include "impeccable/obs/pool_metrics.hpp"
#include "impeccable/obs/recorder.hpp"
#include "impeccable/rct/backend.hpp"

namespace impeccable::core {

MultiCampaign::MultiCampaign(ExecConfig exec, MultiCampaignOptions opts)
    : exec_(std::move(exec)), opts_(opts) {}

std::size_t MultiCampaign::add_target(Target target, ScienceConfig science) {
  auto e = std::make_unique<Entry>();
  e->name = target.name;
  e->target = std::move(target);
  e->science = std::move(science);
  entries_.push_back(std::move(e));
  return entries_.size() - 1;
}

std::size_t MultiCampaign::add_virtual_target(std::string name, int iterations,
                                              stages::ScaleModel scale) {
  auto e = std::make_unique<Entry>();
  e->name = std::move(name);
  e->scale = scale;
  e->iterations = iterations;
  e->is_virtual = true;
  entries_.push_back(std::move(e));
  return entries_.size() - 1;
}

MultiCampaignReport MultiCampaign::run() {
  rct::LocalBackend local(exec_.threads);
  return run(local);
}

MultiCampaignReport MultiCampaign::run(rct::ExecutionBackend& backend) {
  MultiCampaignReport out;

  // Task and stage spans land in the caller's recorder (or a private one) on
  // the backend clock; detached on every exit so its clock never outlives
  // this call.
  obs::Recorder private_rec;
  obs::Recorder& rec = exec_.recorder ? *exec_.recorder : private_rec;
  struct RecorderGuard {
    rct::ExecutionBackend& backend;
    RecorderGuard(rct::ExecutionBackend& b, obs::Recorder& r) : backend(b) {
      backend.set_recorder(&r);
    }
    ~RecorderGuard() { backend.set_recorder(nullptr); }
  } recorder_guard(backend, rec);
  // Every instrumented layer below (dock, ml, fe, pool) records through the
  // global recorder; restored on scope exit.
  obs::ScopedRecorder scoped(&rec);
  // parallel_for leaves helper tickets queued by design, and a pool job
  // opens its pool:job span on the recorder global when it starts. A ticket
  // that starts during this call would end its span on `rec` after a throw
  // (or a late steal) let `rec` go, so on every exit this guard — declared
  // after `scoped`, hence destroyed first — waits for the backend's pool to
  // go idle.
  struct PoolDrain {
    common::ThreadPool* pool;
    ~PoolDrain() {
      if (pool) pool->wait_idle();
    }
  } const pool_drain{backend.compute_pool()};
  // The backend's pool is the process compute pool for the run: every
  // kernel a stage payload calls (dock runs, ESMACS replicas, the NN layers,
  // chem featurization — the InMemorySource build in CampaignState::init
  // included) fans out over it.
  const common::ComputePoolScope pool_scope(backend.compute_pool());

  out.reports.resize(entries_.size());
  std::vector<std::vector<stages::CampaignGraphIds>> ids(entries_.size());
  rct::StageGraph graph;

  // Per-target checkpoint files get a ".<name>" suffix when more than one
  // target shares the ExecConfig, so targets do not clobber each other.
  const auto target_path = [this](const std::string& path,
                                  const std::string& name) {
    return path.empty() || entries_.size() < 2 ? path : path + "." + name;
  };

  for (std::size_t i = 0; i < entries_.size(); ++i) {
    Entry& e = *entries_[i];
    out.targets.push_back(e.name);

    CampaignReport& report = out.reports[i];
    auto state = std::make_shared<stages::CampaignState>();
    state->exec = &exec_;
    state->backend = &backend;
    state->report = &report;
    int iters = 0;
    if (e.is_virtual) {
      state->scale = &e.scale;
      iters = e.iterations;
    } else {
      state->target = &e.target;
      state->science = &e.science;
      state->checkpoint_path = target_path(exec_.checkpoint_path, e.name);
      state->init(target_path(exec_.resume_checkpoint, e.name));
      iters = e.science.iterations;
    }
    report.iterations.resize(static_cast<std::size_t>(iters));
    for (int it = 0; it < iters; ++it)
      report.iterations[static_cast<std::size_t>(it)].iteration = it;

    stages::CampaignGraphOptions gopts;
    gopts.critical_path_priority = critical_path_priority();
    if (opts_.policy && !e.is_virtual) {
      CampaignReport* rep = &report;
      const std::vector<stages::CampaignGraphIds>* target_ids = &ids[i];
      gopts.on_s1_merged = [this, i, rep, target_ids](rct::StageGraph& g,
                                                      int iter) {
        apply_policy(g, i, iter, *rep, *target_ids);
      };
    }
    ids[i] = stages::add_campaign_graph(graph, state, iters,
                                        exec_.pipeline_iterations, gopts);
  }

  rct::AppManagerOptions mopts;
  mopts.max_retries = exec_.max_retries;
  mopts.stage_transition_overhead = exec_.stage_transition_overhead;
  mopts.ready_order = opts_.ready_order;
  rct::AppManager manager(backend, mopts);
  out.graph = manager.run_graph(std::move(graph));

  if (common::ThreadPool* pool = backend.compute_pool())
    obs::publish_pool_metrics(*pool, rec.metrics());
  out.profile = rct::SessionProfile::from_trace(rec.snapshot());
  for (CampaignReport& r : out.reports) r.profile = out.profile;
  return out;
}

void MultiCampaign::apply_policy(
    rct::StageGraph& graph, std::size_t index, int iteration,
    const CampaignReport& report,
    const std::vector<stages::CampaignGraphIds>& ids) const {
  TargetProgress p;
  p.target = index;
  p.iteration = iteration;
  for (const auto& [id, rec] : report.compounds) {
    if (!rec.docked) continue;
    ++p.docked;
    if (rec.dock_score <= kHitThreshold) ++p.hits;
    p.best_dock_score =
        p.docked == 1 ? rec.dock_score : std::min(p.best_dock_score, rec.dock_score);
  }
  const double boost = opts_.policy->priority_boost(p);

  // Re-weight everything of this target the scheduler has not committed
  // yet: this iteration's ensemble tail and all later iterations. Launched
  // nodes keep the priority they ran with (set_priority on them is inert).
  stages::StageTails t;
  if (critical_path_priority()) t = stages::stage_tails(exec_.sim_durations);
  graph.set_priority(ids[static_cast<std::size_t>(iteration)].cg, t.cg + boost);
  graph.set_priority(ids[static_cast<std::size_t>(iteration)].s2, t.s2 + boost);
  graph.set_priority(ids[static_cast<std::size_t>(iteration)].fg, t.fg + boost);
  for (std::size_t j = static_cast<std::size_t>(iteration) + 1; j < ids.size();
       ++j) {
    graph.set_priority(ids[j].ml1, t.ml1 + boost);
    graph.set_priority(ids[j].s1, t.s1 + boost);
    graph.set_priority(ids[j].cg, t.cg + boost);
    graph.set_priority(ids[j].s2, t.s2 + boost);
    graph.set_priority(ids[j].fg, t.fg + boost);
  }
}

}  // namespace impeccable::core
