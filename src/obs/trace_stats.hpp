// Aggregation over Chrome trace_event documents (as written by obs::Trace):
// strict parsing with truncation detection, and per-span-name wall/self-time
// rollups. Shared by tools/trace_summary and tools/taamr_report; unit-tested
// directly, so the tools stay thin CLI shells.
#pragma once

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "obs/json.hpp"

namespace taamr::obs {

struct TraceSpanEvent {
  std::string name;
  std::uint64_t ts = 0;   // microseconds
  std::uint64_t dur = 0;  // microseconds
  std::uint64_t end() const { return ts + dur; }
};

struct TraceNameStats {
  std::uint64_t wall_us = 0;
  std::uint64_t self_us = 0;
  std::uint64_t count = 0;
};

struct TraceDocument {
  // Complete ("ph":"X") events grouped by thread id.
  std::map<int, std::vector<TraceSpanEvent>> by_tid;
  std::size_t total_events() const {
    std::size_t n = 0;
    for (const auto& [tid, spans] : by_tid) n += spans.size();
    return n;
  }
};

// Parses and structurally validates a trace document. Rejects — with a
// std::runtime_error whose message names the defect — empty input (the
// classic symptom of a truncated write), malformed JSON (including a file
// cut off mid-array), a missing/ill-typed traceEvents array, and events
// whose required keys are absent or of the wrong type (previously those
// were silently read as 0 and produced a wrong summary). name/ph/ts/tid are
// required for every event and 'dur' additionally for complete ("X")
// events. Other phases (metadata, flow arrows, ...) are skipped.
TraceDocument parse_trace_document(const std::string& text);

// Self-time per span name on one thread: events sorted by (ts asc, dur
// desc) visit parents before children; a stack of open spans attributes
// each span's duration against its nearest enclosing parent.
void accumulate_trace_thread(std::vector<TraceSpanEvent>& spans,
                             std::map<std::string, TraceNameStats>& stats);

// Rollup over every thread, ranked by self-time descending.
std::vector<std::pair<std::string, TraceNameStats>> trace_top_spans(
    const TraceDocument& doc, std::size_t top_k);

}  // namespace taamr::obs
