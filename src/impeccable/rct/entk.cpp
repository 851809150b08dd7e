#include "impeccable/rct/entk.hpp"

#include <algorithm>
#include <stdexcept>

namespace impeccable::rct {

// ------------------------------------------------------------------ graph

NodeId StageGraph::add(StageNode node, std::vector<NodeId> deps) {
  const NodeId id = nodes_.size();
  for (NodeId d : deps)
    if (d >= id)
      throw std::invalid_argument(
          "StageGraph::add: dependency on a node not yet in the graph");
  nodes_.push_back(Entry{std::move(node), std::move(deps)});
  return id;
}

void StageGraph::set_priority(NodeId id, double priority) {
  if (id >= nodes_.size())
    throw std::out_of_range("StageGraph::set_priority: no such node");
  nodes_[id].node.priority = priority;
}

double StageGraph::priority(NodeId id) const {
  if (id >= nodes_.size())
    throw std::out_of_range("StageGraph::priority: no such node");
  return nodes_[id].node.priority;
}

// ------------------------------------------------------------- AppManager

AppManager::AppManager(ExecutionBackend& backend, const AppManagerOptions& opts)
    : backend_(backend), opts_(opts) {}

GraphRunReport AppManager::run_graph(StageGraph graph) {
  auto g = std::make_shared<GraphRun>(std::move(graph));
  std::vector<NodeId> ready;
  {
    std::lock_guard lock(mutex_);
    ready = integrate_locked(*g);
  }
  for (NodeId id : ready) schedule(g, id);
  backend_.drain();

  std::lock_guard lock(mutex_);
  GraphRunReport& report = g->report;
  report.nodes.reserve(g->states.size());
  for (NodeId id = 0; id < g->states.size(); ++id) {
    const NodeState& st = g->states[id];
    const StageNode& node = g->graph.nodes_[id].node;
    NodeReport nr;
    nr.name = node.name;
    nr.pipeline = node.pipeline;
    nr.priority = st.priority;
    nr.ready = st.ready;
    nr.begin = st.begin;
    nr.end = st.end;
    nr.tasks = st.task_count;
    report.nodes.push_back(std::move(nr));
  }
  return std::move(report);
}

std::vector<NodeId> AppManager::integrate_locked(GraphRun& g) {
  std::vector<NodeId> ready;
  for (NodeId id = g.states.size(); id < g.graph.nodes_.size(); ++id) {
    g.states.emplace_back();
    g.dependents.emplace_back();
    NodeState& st = g.states.back();
    for (NodeId dep : g.graph.nodes_[id].deps) {
      if (g.states[dep].done) continue;
      ++st.waiting;
      g.dependents[dep].push_back(id);
    }
    if (st.waiting == 0) ready.push_back(id);
  }
  return ready;
}

void AppManager::schedule(const std::shared_ptr<GraphRun>& g, NodeId id) {
  {
    std::lock_guard lock(mutex_);
    g->states[id].ready = backend_.now();
  }
  // Dependency-free roots enter the launch queue immediately (a pipeline's
  // first stage); everything downstream pays the fixed stage-transition
  // overhead.
  if (g->graph.nodes_[id].deps.empty()) {
    enqueue_ready(g, id);
  } else {
    backend_.after(opts_.stage_transition_overhead,
                   [this, g, id] { enqueue_ready(g, id); });
  }
}

void AppManager::enqueue_ready(const std::shared_ptr<GraphRun>& g, NodeId id) {
  bool need_drain = false;
  {
    std::lock_guard lock(mutex_);
    g->launch_queue.push_back(id);
    need_drain = !g->drain_pending;
    g->drain_pending = true;
  }
  // One zero-delay drain event services every same-instant arrival, so the
  // launch order is decided over the whole ready wave.
  if (need_drain) backend_.after(0.0, [this, g] { drain_ready(g); });
}

void AppManager::drain_ready(const std::shared_ptr<GraphRun>& g) {
  struct Launch {
    NodeId id = 0;
    double priority = 0.0;
  };
  std::vector<Launch> batch;
  {
    // post_mutex_ first (the complete_node order): node priorities may be
    // rewritten by post_exec callbacks, which run under post_mutex_.
    std::lock_guard post(post_mutex_);
    std::lock_guard lock(mutex_);
    g->drain_pending = false;
    batch.reserve(g->launch_queue.size());
    for (NodeId id : g->launch_queue)
      batch.push_back(Launch{id, g->graph.nodes_[id].node.priority});
    g->launch_queue.clear();
  }
  // stable_sort keeps arrival order within a priority level.
  if (opts_.ready_order == AppManagerOptions::ReadyOrder::kPriority)
    std::stable_sort(batch.begin(), batch.end(),
                     [](const Launch& a, const Launch& b) {
                       return a.priority > b.priority;
                     });
  const bool stamp =
      opts_.ready_order == AppManagerOptions::ReadyOrder::kPriority;
  for (const Launch& l : batch) start_node(g, l.id, l.priority, stamp);
}

void AppManager::start_node(const std::shared_ptr<GraphRun>& g, NodeId id,
                            double node_priority, bool stamp_tasks) {
  StageGraph::Entry& entry = g->graph.nodes_[id];
  if (entry.node.build) {
    auto built = entry.node.build();
    for (auto& t : built) entry.node.tasks.push_back(std::move(t));
  }
  {
    std::lock_guard lock(mutex_);
    NodeState& st = g->states[id];
    st.begin = backend_.now();
    st.priority = node_priority;
    st.task_count = entry.node.tasks.size();
    st.outstanding = entry.node.tasks.size();
  }
  if (entry.node.tasks.empty()) {
    complete_node(g, id);
    return;
  }
  // The node's priority is always recorded (above, for the report), but it
  // reaches the backend queues only under ReadyOrder::kPriority — FIFO mode
  // must keep the historical all-zero SlotRequest priorities bit-exact.
  if (stamp_tasks && node_priority != 0.0) {
    for (TaskDescription task : entry.node.tasks) {
      task.priority += node_priority;
      submit_task(g, id, task, 0);
    }
  } else {
    for (const auto& task : entry.node.tasks) submit_task(g, id, task, 0);
  }
}

void AppManager::submit_task(const std::shared_ptr<GraphRun>& g, NodeId id,
                             const TaskDescription& task, int attempt) {
  backend_.submit(task,
                  [this, g, id, task, attempt](const TaskResult& result) {
                    if (!result.ok && attempt < opts_.max_retries) {
                      {
                        std::lock_guard lock(mutex_);
                        ++g->report.retries;
                      }
                      submit_task(g, id, task, attempt + 1);
                      return;
                    }
                    on_task_done(g, id, result);
                  });
}

void AppManager::on_task_done(const std::shared_ptr<GraphRun>& g, NodeId id,
                              const TaskResult& result) {
  bool node_complete = false;
  {
    std::lock_guard lock(mutex_);
    if (!result.name.empty() || result.end_time > 0.0)
      g->report.results.push_back(result);
    g->report.makespan = std::max(g->report.makespan, result.end_time);
    NodeState& st = g->states[id];
    if (st.outstanding > 0) --st.outstanding;
    node_complete = st.outstanding == 0;
  }
  if (node_complete) complete_node(g, id);
}

void AppManager::complete_node(const std::shared_ptr<GraphRun>& g, NodeId id) {
  StageGraph::Entry& entry = g->graph.nodes_[id];
  double begin = 0.0;
  std::size_t task_count = 0;
  {
    std::lock_guard lock(mutex_);
    begin = g->states[id].begin;
    task_count = g->states[id].task_count;
  }
  if (obs::Recorder* rec = backend_.recorder()) {
    obs::SpanRecord span;
    span.category = obs::cat::kStage;
    span.name =
        entry.node.name.empty() ? entry.node.pipeline : entry.node.name;
    span.start = begin;
    span.end = backend_.now();
    span.arg("pipeline", entry.node.pipeline);
    span.arg("tasks", static_cast<double>(task_count));
    rec->emit(std::move(span));
  }

  std::vector<NodeId> ready;
  {
    // Serialize every post_exec: merge steps across the whole graph run one
    // at a time, so shared campaign state needs no further locking.
    std::lock_guard post(post_mutex_);
    if (entry.node.post_exec) entry.node.post_exec(g->graph);
    std::lock_guard lock(mutex_);
    g->states[id].done = true;
    g->states[id].end = backend_.now();
    for (NodeId dep : g->dependents[id]) {
      NodeState& st = g->states[dep];
      if (st.waiting > 0 && --st.waiting == 0) ready.push_back(dep);
    }
    const auto added = integrate_locked(*g);
    ready.insert(ready.end(), added.begin(), added.end());
  }
  for (NodeId next : ready) schedule(g, next);
}

// --------------------------------------------------------- GraphRunReport

std::size_t GraphRunReport::failed() const {
  return static_cast<std::size_t>(
      std::count_if(results.begin(), results.end(),
                    [](const TaskResult& r) { return !r.ok; }));
}

std::vector<std::pair<double, std::size_t>>
GraphRunReport::ready_wait_histogram() const {
  // Eight log-spaced buckets from 10ms to 100ks; the first also absorbs
  // zero/negative waits, the last absorbs everything beyond.
  std::vector<std::pair<double, std::size_t>> buckets;
  double edge = 1e-2;
  for (int i = 0; i < 8; ++i, edge *= 10.0) buckets.emplace_back(edge, 0);
  for (const NodeReport& n : nodes) {
    const double w = n.ready_wait();
    std::size_t b = 0;
    while (b + 1 < buckets.size() && w >= buckets[b].first) ++b;
    ++buckets[b].second;
  }
  return buckets;
}

}  // namespace impeccable::rct
