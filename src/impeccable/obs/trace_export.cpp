#include "impeccable/obs/trace_export.hpp"

#include <fstream>
#include <stdexcept>

#include "impeccable/obs/json.hpp"
#include "impeccable/obs/recorder.hpp"

namespace impeccable::obs {

namespace {

std::ofstream open_or_throw(const std::string& path) {
  std::ofstream f(path, std::ios::trunc);
  if (!f) throw std::runtime_error("obs: cannot open " + path);
  return f;
}

}  // namespace

void write_chrome_trace(const Trace& trace, std::ostream& os, int pid) {
  json::Writer w(os);
  w.begin_object();
  w.kv("displayTimeUnit", "ms");
  w.key("traceEvents").begin_array();
  for (const auto& s : trace.spans) {
    w.begin_object();
    w.kv("name", s.name);
    w.kv("cat", s.category);
    w.kv("ph", "X");
    w.kv("ts", s.start * 1e6);  // microseconds
    w.kv("dur", s.duration() * 1e6);
    w.kv("pid", pid);
    w.kv("tid", static_cast<std::int64_t>(s.thread));
    w.key("args").begin_object();
    w.kv("span_id", s.id);
    if (s.parent != 0) w.kv("parent_id", s.parent);
    for (const auto& a : s.args) {
      if (a.is_num)
        w.kv(a.key, a.num);
      else
        w.kv(a.key, a.str);
    }
    w.end_object();
    w.end_object();
  }
  w.end_array();
  w.end_object();
}

void write_chrome_trace(const Trace& trace, const std::string& path, int pid) {
  auto f = open_or_throw(path);
  write_chrome_trace(trace, f, pid);
}

}  // namespace impeccable::obs
