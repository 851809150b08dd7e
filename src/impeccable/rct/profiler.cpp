#include "impeccable/rct/profiler.hpp"

#include <algorithm>
#include <fstream>
#include <stdexcept>
#include <string_view>

#include "impeccable/obs/csv.hpp"
#include "impeccable/obs/json.hpp"
#include "impeccable/obs/recorder.hpp"

namespace impeccable::rct {

namespace {

double num_arg(const obs::SpanRecord& span, std::string_view key, double dflt) {
  for (const auto& a : span.args)
    if (a.is_num && a.key == key) return a.num;
  return dflt;
}

std::string str_arg(const obs::SpanRecord& span, std::string_view key) {
  for (const auto& a : span.args)
    if (!a.is_num && a.key == key) return a.str;
  return {};
}

}  // namespace

SessionProfile SessionProfile::from_trace(const obs::Trace& trace) {
  SessionProfile out;
  for (const auto& span : trace.spans) {
    if (std::string_view(span.category) != obs::cat::kTask) continue;
    TaskRecord rec;
    rec.name = span.name;
    rec.submit_time = num_arg(span, "submit", span.start);
    rec.start_time = span.start;
    rec.end_time = span.end;
    rec.ok = num_arg(span, "ok", 1.0) != 0.0;
    rec.cpus = static_cast<int>(num_arg(span, "cpus", 0.0));
    rec.whole_nodes = static_cast<int>(num_arg(span, "whole_nodes", 0.0));
    const int gpus = static_cast<int>(num_arg(span, "gpus", 0.0));
    // Whole-node proxy: exclusive-node tasks own the node's GPUs (6/node,
    // Summit) even when the request listed none.
    rec.gpus = gpus > 0 ? gpus : rec.whole_nodes * 6;
    rec.error = str_arg(span, "error");
    out.tasks.push_back(std::move(rec));
  }
  return out;
}

void SessionProfile::write_csv(const std::string& path) const {
  std::ofstream f(path, std::ios::trunc);
  if (!f) throw std::runtime_error("SessionProfile::write_csv: cannot open " + path);
  obs::CsvWriter csv(f);
  csv.cell("name").cell("submit").cell("start").cell("end").cell("queue_wait")
      .cell("runtime").cell("ok").cell("cpus").cell("gpus").cell("whole_nodes")
      .cell("error");
  csv.end_row();
  for (const auto& r : tasks) {
    csv.cell(r.name).cell(r.submit_time).cell(r.start_time).cell(r.end_time)
        .cell(r.queue_wait()).cell(r.runtime()).cell(r.ok ? 1 : 0)
        .cell(r.cpus).cell(r.gpus).cell(r.whole_nodes).cell(r.error);
    csv.end_row();
  }
}

void SessionProfile::to_json(std::ostream& os) const {
  obs::json::Writer w(os);
  w.begin_object();
  w.kv("tasks", static_cast<std::uint64_t>(tasks.size()));
  w.kv("makespan", makespan());
  w.kv("mean_queue_wait", mean_queue_wait());
  w.kv("total_task_runtime", total_task_runtime());
  w.kv("peak_concurrency", peak_concurrency());
  w.kv("idle_fraction", idle_fraction());
  w.key("records");
  w.begin_array();
  for (const auto& r : tasks) {
    w.begin_object();
    w.kv("name", r.name);
    w.kv("submit", r.submit_time);
    w.kv("start", r.start_time);
    w.kv("end", r.end_time);
    w.kv("ok", r.ok);
    w.kv("cpus", r.cpus);
    w.kv("gpus", r.gpus);
    w.kv("whole_nodes", r.whole_nodes);
    if (!r.error.empty()) w.kv("error", r.error);
    w.end_object();
  }
  w.end_array();
  w.end_object();
}

double SessionProfile::makespan() const {
  double t = 0.0;
  for (const auto& r : tasks) t = std::max(t, r.end_time);
  return t;
}

double SessionProfile::mean_queue_wait() const {
  if (tasks.empty()) return 0.0;
  double acc = 0.0;
  for (const auto& r : tasks) acc += r.queue_wait();
  return acc / static_cast<double>(tasks.size());
}

double SessionProfile::total_task_runtime() const {
  double acc = 0.0;
  for (const auto& r : tasks) acc += r.runtime();
  return acc;
}

int SessionProfile::peak_concurrency() const {
  // Sweep over start/end events.
  std::vector<std::pair<double, int>> events;
  events.reserve(tasks.size() * 2);
  for (const auto& r : tasks) {
    events.emplace_back(r.start_time, +1);
    events.emplace_back(r.end_time, -1);
  }
  std::sort(events.begin(), events.end());
  int cur = 0, peak = 0;
  for (const auto& [t, d] : events) {
    cur += d;
    peak = std::max(peak, cur);
  }
  return peak;
}

std::vector<int> SessionProfile::concurrency_timeline(int buckets) const {
  std::vector<int> out(static_cast<std::size_t>(std::max(0, buckets)), 0);
  const double span = makespan();
  if (span <= 0.0 || buckets <= 0) return out;
  for (int b = 0; b < buckets; ++b) {
    const double t = span * (b + 0.5) / buckets;
    int running = 0;
    for (const auto& r : tasks)
      if (r.start_time <= t && t < r.end_time) ++running;
    out[static_cast<std::size_t>(b)] = running;
  }
  return out;
}

double SessionProfile::idle_fraction() const {
  const double span = makespan();
  if (span <= 0.0 || tasks.empty()) return 0.0;
  // Merge execution intervals and measure the uncovered part of [0, span].
  std::vector<std::pair<double, double>> iv;
  iv.reserve(tasks.size());
  for (const auto& r : tasks) iv.emplace_back(r.start_time, r.end_time);
  std::sort(iv.begin(), iv.end());
  double covered = 0.0, cur_lo = iv.front().first, cur_hi = iv.front().second;
  for (std::size_t i = 1; i < iv.size(); ++i) {
    if (iv[i].first > cur_hi) {
      covered += cur_hi - cur_lo;
      cur_lo = iv[i].first;
      cur_hi = iv[i].second;
    } else {
      cur_hi = std::max(cur_hi, iv[i].second);
    }
  }
  covered += cur_hi - cur_lo;
  return 1.0 - covered / span;
}

}  // namespace impeccable::rct
