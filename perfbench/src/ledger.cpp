#include "ledger.hpp"

#include <algorithm>
#include <cctype>
#include <set>
#include <string_view>
#include <utility>
#include <vector>

namespace perfbench {

namespace obs = impeccable::obs;

namespace {

struct Interval {
  double a = 0.0, b = 0.0;
};

double union_length(std::vector<Interval> v) {
  std::sort(v.begin(), v.end(),
            [](const Interval& x, const Interval& y) { return x.a < y.a; });
  double total = 0.0, a = 0.0, b = 0.0;
  bool open = false;
  for (const Interval& iv : v) {
    if (iv.b <= iv.a) continue;
    if (open && iv.a <= b) {
      b = std::max(b, iv.b);
      continue;
    }
    if (open) total += b - a;
    a = iv.a;
    b = iv.b;
    open = true;
  }
  if (open) total += b - a;
  return total;
}

/// Categories whose self time counts as explained: the science layers plus
/// the benchmark's own chem span. rct task spans, pool jobs and serve
/// batches are scheduling and glue, not layer work.
bool is_layer(std::string_view category) {
  return category == obs::cat::kDock || category == obs::cat::kFe ||
         category == obs::cat::kMl || category == "chem";
}

bool has_digit(std::string_view s) {
  return std::any_of(s.begin(), s.end(),
                     [](unsigned char c) { return std::isdigit(c); });
}

}  // namespace

double Ledger::self(const std::string& key) const {
  const auto it = self_by_name.find(key);
  return it == self_by_name.end() ? 0.0 : it->second;
}

std::size_t Ledger::count(const std::string& key) const {
  const auto it = count_by_name.find(key);
  return it == count_by_name.end() ? 0 : it->second;
}

namespace {

/// Span names collapse their per-item suffixes ("dock-OZD-000123" ->
/// "dock-OZD", "replica-3" -> "replica"): the first '-'-separated token and
/// every following token without a digit are kept. Per-ligand docking
/// spans (named by ligand id) become "ligand".
std::string normalize_name(const std::string& category,
                           const std::string& name) {
  if (category == obs::cat::kDock && name.rfind("lga.", 0) != 0)
    return "ligand";
  std::string out;
  std::size_t pos = 0;
  for (bool first = true; pos <= name.size(); first = false) {
    const std::size_t dash = std::min(name.find('-', pos), name.size());
    const std::string_view token(name.data() + pos, dash - pos);
    if (!first && has_digit(token)) break;
    if (!first) out += '-';
    out += token;
    pos = dash + 1;
  }
  return out;
}

}  // namespace

Ledger analyze(const obs::Trace& trace, std::size_t workers, double t0,
               double t1) {
  Ledger led;
  led.window_s = std::max(0.0, t1 - t0);
  const auto clipped = [&](const obs::SpanRecord& s) {
    return std::max(0.0, std::min(s.end, t1) - std::max(s.start, t0));
  };

  std::map<std::uint32_t, std::vector<const obs::SpanRecord*>> lanes;
  std::map<std::string, std::vector<Interval>> stages;
  std::set<std::uint32_t> worker_lanes;
  for (const obs::SpanRecord& s : trace.spans) {
    const std::string_view cat(s.category);
    if (cat == obs::cat::kStage) {
      stages[s.name].push_back({std::max(s.start, t0), std::min(s.end, t1)});
      continue;
    }
    lanes[s.thread].push_back(&s);
    if (cat == obs::cat::kPool) worker_lanes.insert(s.thread);
  }
  for (auto& [name, ivs] : stages) led.stage_s[name] = union_length(ivs);

  // Pool jobs with no span inside: parallel_for chunks whose work is not
  // instrumented (GEMM panels, per-image convolutions), resolved below.
  struct Helper {
    std::uint32_t lane;
    const obs::SpanRecord* job;
    double self;
  };
  std::vector<Helper> helpers;

  for (auto& [lane, spans] : lanes) {
    const bool worker = worker_lanes.count(lane) != 0;
    std::sort(spans.begin(), spans.end(),
              [](const obs::SpanRecord* x, const obs::SpanRecord* y) {
                if (x->start != y->start) return x->start < y->start;
                if (x->end != y->end) return x->end > y->end;
                return x->id < y->id;
              });
    std::set<obs::SpanId> on_lane;
    for (const obs::SpanRecord* s : spans) on_lane.insert(s->id);

    struct Open {
      const obs::SpanRecord* span;
      double children = 0.0;
      bool in_job = false;  ///< this span or an ancestor is a pool job
      std::map<std::string, double> child_by_cat;  ///< direct children
    };
    std::vector<Open> stack;
    std::vector<Interval> jobs;
    const auto close = [&](const Open& o) {
      const obs::SpanRecord& s = *o.span;
      const double self = std::max(0.0, clipped(s) - o.children);
      const bool job = std::string_view(s.category) == obs::cat::kPool;
      std::string key =
          std::string(s.category) + ":" + normalize_name(s.category, s.name);
      // A pool job's own time (outside its child spans) is scheduling work:
      // completion callbacks, AppManager bookkeeping, merges. It is listed
      // under the layer its children mostly belong to, but never explained.
      if (job && !o.child_by_cat.empty())
        key = std::max_element(o.child_by_cat.begin(), o.child_by_cat.end(),
                               [](const auto& x, const auto& y) {
                                 return x.second < y.second;
                               })->first +
              ":(pool job)";
      if (job && worker && o.child_by_cat.empty()) {
        helpers.push_back({lane, &s, self});
        return;
      }
      led.self_by_name[key] += self;
      if (s.end >= t0 && s.start <= t1) ++led.count_by_name[key];
      if (!worker || !o.in_job) return;
      if (job)
        led.pool_overhead_s += self;
      else
        led.self_by_layer[s.category] += self;
    };
    for (const obs::SpanRecord* s : spans) {
      while (!stack.empty() && !(stack.back().span->start <= s->start &&
                                 s->end <= stack.back().span->end)) {
        close(stack.back());
        stack.pop_back();
      }
      if (s->parent != 0 && on_lane.count(s->parent) &&
          std::none_of(stack.begin(), stack.end(), [&](const Open& o) {
            return o.span->id == s->parent;
          }))
        ++led.parent_mismatches;
      const bool job = std::string_view(s->category) == obs::cat::kPool;
      if (job) jobs.push_back({std::max(s->start, t0), std::min(s->end, t1)});
      if (!stack.empty()) {
        stack.back().children += clipped(*s);
        stack.back().child_by_cat[s->category] += clipped(*s);
      }
      stack.push_back({s, 0.0, job || (!stack.empty() && stack.back().in_job), {}});
    }
    while (!stack.empty()) {
      close(stack.back());
      stack.pop_back();
    }
    if (worker) led.pool_busy_s += union_length(std::move(jobs));
  }

  // A parallel_for caller blocks inside its own span until every chunk is
  // done, so a helper chunk belongs to the innermost non-pool span on
  // another worker lane that contains it (the latest-starting one).
  for (const Helper& h : helpers) {
    std::string layer = obs::cat::kPool;
    for (const auto& [lane, spans] : lanes) {
      if (lane == h.lane || !worker_lanes.count(lane)) continue;
      auto it = std::upper_bound(
          spans.begin(), spans.end(), h.job->start,
          [](double t, const obs::SpanRecord* x) { return t < x->start; });
      while (it != spans.begin()) {
        const obs::SpanRecord* x = *--it;
        if (std::string_view(x->category) != obs::cat::kPool &&
            x->end >= h.job->end) {
          layer = x->category;
          break;
        }
      }
      if (layer != obs::cat::kPool) break;
    }
    const std::string key =
        layer == obs::cat::kPool
            ? layer + ":" + normalize_name(layer, h.job->name)
            : layer + ":(pool helper)";
    led.self_by_name[key] += h.self;
    ++led.count_by_name[key];
    if (layer == obs::cat::kPool)
      led.pool_overhead_s += h.self;
    else
      led.self_by_layer[layer] += h.self;
  }

  led.workers = std::max(workers, worker_lanes.size());
  const double capacity = static_cast<double>(led.workers) * led.window_s;
  led.pool_idle_s = std::max(0.0, capacity - led.pool_busy_s);
  double layers = 0.0;
  for (const auto& [cat, s] : led.self_by_layer)
    if (is_layer(cat)) layers += s;
  led.explained_frac =
      capacity > 0.0 ? std::min(1.0, (layers + led.pool_idle_s) / capacity)
                     : 0.0;
  return led;
}

namespace {

/// Sum of a numeric span argument over the spans of one category and name.
double sum_arg(const obs::Trace& trace, const std::string& category,
               const std::string& name, const std::string& key) {
  double total = 0.0;
  for (const obs::SpanRecord& s : trace.spans) {
    if (category != s.category || s.name != name) continue;
    for (const obs::SpanArg& a : s.args)
      if (a.is_num && a.key == key) total += a.num;
  }
  return total;
}

/// Self time of every span of `category`, all lanes.
double category_self(const Ledger& led, const std::string& category) {
  const std::string prefix = category + ":";
  double total = 0.0;
  for (const auto& [key, s] : led.self_by_name)
    if (key.rfind(prefix, 0) == 0) total += s;
  return total;
}

}  // namespace

void set_layer_metrics(Result& r, const Ledger& led, const obs::Trace& trace,
                       obs::MetricsRegistry& m) {
  const auto rate = [](double n, double s) { return s > 0.0 ? n / s : 0.0; };
  const double capacity = static_cast<double>(led.workers) * led.window_s;
  r.set("pool.busy_frac", capacity > 0.0 ? led.pool_busy_s / capacity : 0.0,
        "frac");
  r.set("pool.idle_s", led.pool_idle_s, "s");
  r.set("pool.overhead_s", led.pool_overhead_s, "s");
  r.set("pool.stolen", m.gauge("pool.stolen").value(), "count");
  r.set("pool.parked", m.gauge("pool.parked").value(), "count");
  r.set("rct.task.self_s", category_self(led, obs::cat::kTask), "s");

  const double dock_s = category_self(led, obs::cat::kDock);
  const double evals = static_cast<double>(m.counter("dock.evaluations").value());
  r.set("dock.ligands", static_cast<double>(m.counter("dock.ligands").value()),
        "count");
  r.set("dock.evaluations", evals, "count");
  r.set("dock.self_s", dock_s, "s");
  r.set("dock.ls_self_s", led.self("dock:lga.ls_batch"), "s");
  r.set("dock.evals_per_s", rate(evals, dock_s), "1/s");

  r.set("fe.esmacs.self_s", led.self("fe:esmacs") + led.self("fe:esmacs-adaptive"),
        "s");
  r.set("fe.replica.self_s", led.self("fe:replica"), "s");
  r.set("fe.replicas", static_cast<double>(led.count("fe:replica")), "count");

  const double predict_s = led.self("ml:surrogate-predict");
  r.set("ml.train.self_s", led.self("ml:surrogate-train"), "s");
  r.set("ml.predict.self_s", predict_s, "s");
  r.set("ml.predict.images_per_s",
        rate(sum_arg(trace, obs::cat::kMl, "surrogate-predict", "images"),
             predict_s),
        "1/s");
  r.set("ml.gemm.flops", static_cast<double>(m.counter("ml.gemm.flops").value()),
        "flop");
  r.set("obs.explained_frac", led.explained_frac, "frac");
}

void print_ledger(const Ledger& led, std::FILE* out) {
  std::fprintf(out,
               "ledger: window %.3f s x %zu workers; explained %.1f%% "
               "(layers + idle), pool idle %.3f s, pool-job self time %.3f "
               "s, parent mismatches %zu\n",
               led.window_s, led.workers, 100.0 * led.explained_frac,
               led.pool_idle_s, led.pool_overhead_s, led.parent_mismatches);
  std::fprintf(out, "  %-34s %10s\n", "worker self time by category", "s");
  for (const auto& [cat, s] : led.self_by_layer)
    std::fprintf(out, "  %-34s %10.4f%s\n", cat.c_str(), s,
                 is_layer(cat) ? "" : "  (unexplained)");
  std::vector<std::pair<double, std::string>> rows;
  for (const auto& [key, s] : led.self_by_name) rows.emplace_back(s, key);
  std::sort(rows.rbegin(), rows.rend());
  std::fprintf(out, "  %-34s %10s %8s\n", "self time by span", "s", "count");
  for (const auto& [s, key] : rows)
    std::fprintf(out, "  %-34s %10.4f %8zu\n", key.c_str(), s, led.count(key));
  std::fprintf(out, "  %-34s %10s\n", "stage table (wall union)", "s");
  for (const auto& [name, s] : led.stage_s)
    std::fprintf(out, "  %-34s %10.4f\n", name.c_str(), s);
}

}  // namespace perfbench
