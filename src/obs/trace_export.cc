#include "obs/trace_export.h"

#include <algorithm>
#include <cstdio>

#include "util/string_util.h"

namespace causalformer {
namespace obs {

namespace {

/// One assembled event, kept structured until the final sort-and-print.
struct ChromeEvent {
  double ts_us = 0;
  double dur_us = 0;
  uint64_t tid = 0;
  std::string name;
  std::string args;  ///< rendered JSON object body (without braces)
};

void AppendNumber(double value, std::string* out) {
  char buf[40];
  // Microsecond timestamps with sub-us precision; %.3f keeps the JSON
  // locale-independent and monotonicity-preserving.
  std::snprintf(buf, sizeof(buf), "%.3f", value);
  *out += buf;
}

}  // namespace

std::string RenderChromeTrace(
    const std::vector<std::shared_ptr<const Trace>>& traces) {
  std::vector<ChromeEvent> events;
  for (const auto& trace : traces) {
    if (trace == nullptr) continue;
    const std::vector<TraceSpan> spans = trace->spans();
    const uint64_t leader = trace->leader_id();
    for (size_t i = 0; i < spans.size(); ++i) {
      ChromeEvent event;
      event.ts_us = spans[i].start * 1e6;
      event.dur_us = (spans[i].end - spans[i].start) * 1e6;
      event.tid = trace->id();
      event.name = spans[i].name;
      event.args = "\"trace\":" + std::to_string(trace->id());
      if (i == 0 && leader != 0) {
        event.args += ",\"leader\":" + std::to_string(leader);
      }
      if (spans[i].name == "execute") {
        for (const auto& [phase, seconds] : trace->phases()) {
          event.args += ",\"";
          AppendJsonEscaped(phase, &event.args);
          event.args += "_ms\":";
          AppendNumber(seconds * 1e3, &event.args);
        }
      }
      events.push_back(std::move(event));
    }
  }

  std::stable_sort(events.begin(), events.end(),
                   [](const ChromeEvent& a, const ChromeEvent& b) {
                     if (a.ts_us != b.ts_us) return a.ts_us < b.ts_us;
                     return a.tid < b.tid;
                   });

  std::string out = "{\"displayTimeUnit\":\"ms\",\"traceEvents\":[";
  for (size_t i = 0; i < events.size(); ++i) {
    const ChromeEvent& event = events[i];
    if (i > 0) out += ',';
    out += "\n{\"name\":\"";
    AppendJsonEscaped(event.name, &out);
    out += "\",\"ph\":\"X\",\"pid\":1,\"tid\":";
    out += std::to_string(event.tid);
    out += ",\"ts\":";
    AppendNumber(event.ts_us, &out);
    out += ",\"dur\":";
    AppendNumber(event.dur_us, &out);
    out += ",\"args\":{";
    out += event.args;
    out += "}}";
  }
  out += "\n]}\n";
  return out;
}

}  // namespace obs
}  // namespace causalformer
