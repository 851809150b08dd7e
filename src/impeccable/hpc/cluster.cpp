#include "impeccable/hpc/cluster.hpp"

#include <algorithm>
#include <bit>
#include <stdexcept>

namespace impeccable::hpc {

ClusterSim::ClusterSim(Simulator& sim, const MachineSpec& machine)
    : sim_(sim), machine_(machine),
      nodes_(static_cast<std::size_t>(machine.nodes),
             Node{machine.cores_per_node, machine.gpus_per_node}),
      open_((nodes_.size() + 63) / 64, 0) {
  for (std::size_t i = 0; i < nodes_.size(); ++i) mark(i);
  record();
}

void ClusterSim::mark(std::size_t node) {
  const Node& n = nodes_[node];
  const std::uint64_t bit = std::uint64_t{1} << (node % 64);
  if (n.free_cpus > 0 || n.free_gpus > 0)
    open_[node / 64] |= bit;
  else
    open_[node / 64] &= ~bit;
}

bool ClusterSim::try_place(const SlotRequest& req, Placement& out,
                           const std::vector<char>* forbidden) {
  const auto blocked = [forbidden](int i) {
    return forbidden && (*forbidden)[static_cast<std::size_t>(i)];
  };
  if (req.whole_nodes > 0) {
    // Find a run of fully free nodes (first fit).
    int run = 0;
    for (int i = 0; i < machine_.nodes; ++i) {
      const Node& n = nodes_[static_cast<std::size_t>(i)];
      const bool free = !blocked(i) &&
                        n.free_cpus == machine_.cores_per_node &&
                        n.free_gpus == machine_.gpus_per_node;
      run = free ? run + 1 : 0;
      if (run == req.whole_nodes) {
        out.first_node = i - run + 1;
        out.node_count = run;
        out.cpus = run * machine_.cores_per_node;
        out.gpus = run * machine_.gpus_per_node;
        for (int k = out.first_node; k <= i; ++k) {
          nodes_[static_cast<std::size_t>(k)].free_cpus = 0;
          nodes_[static_cast<std::size_t>(k)].free_gpus = 0;
          mark(static_cast<std::size_t>(k));
        }
        busy_cpus_ += out.cpus;
        busy_gpus_ += out.gpus;
        return true;
      }
    }
    return false;
  }

  // First fit over the nodes with a free slot: submit guarantees the request
  // needs a CPU or a GPU, so a node with neither cannot take it.
  for (std::size_t w = 0; w < open_.size(); ++w) {
    for (std::uint64_t bits = open_[w]; bits != 0; bits &= bits - 1) {
      const int i = static_cast<int>(w * 64) + std::countr_zero(bits);
      Node& n = nodes_[static_cast<std::size_t>(i)];
      if (blocked(i) || n.free_cpus < req.cpus || n.free_gpus < req.gpus)
        continue;
      n.free_cpus -= req.cpus;
      n.free_gpus -= req.gpus;
      mark(static_cast<std::size_t>(i));
      out.first_node = i;
      out.node_count = 1;
      out.cpus = req.cpus;
      out.gpus = req.gpus;
      busy_cpus_ += req.cpus;
      busy_gpus_ += req.gpus;
      return true;
    }
  }
  return false;
}

void ClusterSim::submit(const SlotRequest& req, StartCallback on_start) {
  // Reject up front what can never be placed. Every placeable request takes
  // a slot, which lets drain_queue stop scanning on a saturated machine.
  if (req.whole_nodes > 0) {
    if (req.whole_nodes > machine_.nodes)
      throw std::invalid_argument("ClusterSim: request larger than machine");
  } else {
    if (req.cpus > machine_.cores_per_node || req.gpus > machine_.gpus_per_node)
      throw std::invalid_argument("ClusterSim: single-node request too large");
    if (req.cpus <= 0 && req.gpus <= 0)
      throw std::invalid_argument("ClusterSim: request for no CPU and no GPU");
  }
  // Keep the pending queue sorted by priority (descending); a new request
  // goes after every queued request of equal or higher priority, so equal
  // priorities preserve arrival order and all-zero priorities are pure FIFO.
  auto pos = std::upper_bound(
      queue_.begin(), queue_.end(), req.priority,
      [](double p, const Pending& q) { return q.req.priority < p; });
  queue_.insert(pos, Pending{req, std::move(on_start)});
  drain_queue();
}

void ClusterSim::release(const SlotRequest& req, const Placement& where) {
  if (where.node_count <= 0)
    throw std::invalid_argument("ClusterSim::release: invalid placement");
  if (req.whole_nodes > 0) {
    for (int k = where.first_node; k < where.first_node + where.node_count; ++k) {
      nodes_[static_cast<std::size_t>(k)].free_cpus = machine_.cores_per_node;
      nodes_[static_cast<std::size_t>(k)].free_gpus = machine_.gpus_per_node;
      mark(static_cast<std::size_t>(k));
    }
  } else {
    Node& n = nodes_[static_cast<std::size_t>(where.first_node)];
    n.free_cpus += req.cpus;
    n.free_gpus += req.gpus;
    mark(static_cast<std::size_t>(where.first_node));
  }
  busy_cpus_ -= where.cpus;
  busy_gpus_ -= where.gpus;
  record();
  drain_queue();
}

void ClusterSim::reserve_draining_nodes(int count,
                                        std::vector<char>& reserved) const {
  if (count <= 0 || count > machine_.nodes) return;
  // Bounded draining: reservations never claim more than half the machine,
  // so backfill throughput survives while ensemble waves acquire nodes —
  // freezing the whole machine for a blocked wave serializes the dock
  // stream behind it and costs more than the starvation it prevents.
  int already = 0;
  for (char r : reserved) already += r ? 1 : 0;
  if (already + count > machine_.nodes / 2) return;
  // Pick the not-yet-reserved contiguous window of `count` nodes with the
  // most free slots: it drains soonest, and whole-node placement needs a
  // contiguous run, so reserving a window guarantees the run materializes.
  int best = -1;
  int best_free = -1;
  for (int start = 0; start + count <= machine_.nodes; ++start) {
    int free = 0;
    bool available = true;
    for (int i = start; i < start + count; ++i) {
      if (reserved[static_cast<std::size_t>(i)]) {
        available = false;
        break;
      }
      const Node& n = nodes_[static_cast<std::size_t>(i)];
      free += n.free_cpus + n.free_gpus;
    }
    if (available && free > best_free) {
      best_free = free;
      best = start;
    }
  }
  if (best < 0) return;
  for (int i = best; i < best + count; ++i)
    reserved[static_cast<std::size_t>(i)] = 1;
}

void ClusterSim::drain_queue() {
  bool placed_any = false;
  // Scan in queue (priority) order. A blocked whole-node request reserves a
  // draining window; strictly-lower-priority requests behind it may not
  // backfill onto the reserved nodes — otherwise a stream of single-GPU
  // work refills every freed slot and whole-node ensemble waves starve.
  // With all priorities equal (the historical FIFO case) nothing is ever
  // restricted and this is the original aggressive backfill.
  std::vector<char> reserved;
  bool any_blocked = false;
  double blocked_priority = 0.0;
  for (auto it = queue_.begin(); it != queue_.end();) {
    // Every CPU and GPU busy: no queued request can be placed (a whole-node
    // request needs a fully free node, submit rejects slot-less requests).
    if (saturated()) break;
    const bool restricted =
        any_blocked && it->req.priority < blocked_priority && !reserved.empty();
    Placement where;
    if (try_place(it->req, where, restricted ? &reserved : nullptr)) {
      // Fire the start callback via the event queue so start ordering is
      // well-defined and re-entrant submits are safe.
      auto cb = std::move(it->on_start);
      it = queue_.erase(it);
      placed_any = true;
      sim_.schedule_in(0.0, [cb = std::move(cb), where] { cb(where); });
    } else {
      if (it->req.whole_nodes > 0) {
        if (reserved.empty()) reserved.assign(nodes_.size(), 0);
        reserve_draining_nodes(it->req.whole_nodes, reserved);
      }
      if (!any_blocked) {
        // The queue is priority-sorted, so the first blocked request holds
        // the highest priority any blocked request will have.
        any_blocked = true;
        blocked_priority = it->req.priority;
      }
      ++it;
    }
  }
  if (placed_any) record();
}

bool ClusterSim::saturated() const {
  return busy_cpus_ + busy_gpus_ > 0 && busy_cpus_ == machine_.total_cores() &&
         busy_gpus_ == machine_.total_gpus();
}

void ClusterSim::record() {
  UtilizationSample s;
  s.time = sim_.now();
  const double tg = static_cast<double>(machine_.total_gpus());
  const double tc = static_cast<double>(machine_.total_cores());
  s.gpu_busy_fraction = tg > 0 ? busy_gpus_ / tg : 0.0;
  s.cpu_busy_fraction = tc > 0 ? busy_cpus_ / tc : 0.0;
  series_.push_back(s);
}

double ClusterSim::mean_gpu_utilization(double t0, double t1) const {
  if (series_.empty() || t1 <= t0) return 0.0;
  double acc = 0.0;
  for (std::size_t i = 0; i < series_.size(); ++i) {
    const double seg_start = std::max(t0, series_[i].time);
    const double seg_end =
        std::min(t1, i + 1 < series_.size() ? series_[i + 1].time : t1);
    if (seg_end > seg_start)
      acc += (seg_end - seg_start) * series_[i].gpu_busy_fraction;
  }
  return acc / (t1 - t0);
}

}  // namespace impeccable::hpc
