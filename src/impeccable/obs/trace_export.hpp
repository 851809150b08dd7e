#pragma once
// Trace exporter: Chrome trace_event JSON (open in chrome://tracing or
// https://ui.perfetto.dev).

#include <ostream>
#include <string>

namespace impeccable::obs {
struct Trace;
}  // namespace impeccable::obs

namespace impeccable::obs {

/// Chrome trace_event "JSON object format": complete ("ph":"X") events with
/// microsecond timestamps, one tid per recorder thread lane, span args under
/// "args" (plus the span/parent ids, so parenting survives the export).
void write_chrome_trace(const Trace& trace, std::ostream& os, int pid = 1);
void write_chrome_trace(const Trace& trace, const std::string& path,
                        int pid = 1);

}  // namespace impeccable::obs
