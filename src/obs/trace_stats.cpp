#include "obs/trace_stats.hpp"

#include <algorithm>
#include <stdexcept>

namespace taamr::obs {

TraceDocument parse_trace_document(const std::string& text) {
  if (text.find_first_not_of(" \t\r\n") == std::string::npos) {
    throw std::runtime_error(
        "empty trace file — the writer was probably killed before it could "
        "flush (truncated write)");
  }
  json::Value doc;
  try {
    doc = json::parse(text);
  } catch (const std::exception& e) {
    throw std::runtime_error(std::string("truncated or invalid trace JSON: ") +
                             e.what());
  }
  const json::Value* events = doc.find("traceEvents");
  if (events == nullptr || !events->is_array()) {
    throw std::runtime_error("no traceEvents array — not a Chrome trace_event "
                             "document");
  }
  TraceDocument out;
  std::size_t index = 0;
  for (const json::Value& e : events->array) {
    const std::string where = "traceEvents[" + std::to_string(index++) + "]";
    if (!e.is_object()) {
      throw std::runtime_error(where + ": expected an object");
    }
    const json::Value* name = e.find("name");
    const json::Value* ph = e.find("ph");
    const json::Value* ts = e.find("ts");
    const json::Value* tid = e.find("tid");
    if (name == nullptr || ph == nullptr || ts == nullptr || tid == nullptr) {
      throw std::runtime_error(where +
                               ": missing a required key (name/ph/ts/tid)");
    }
    if (!name->is_string() || !ph->is_string()) {
      throw std::runtime_error(where + ": 'name' and 'ph' must be strings");
    }
    if (!ts->is_number() || !tid->is_number()) {
      throw std::runtime_error(where + ": 'ts' and 'tid' must be numbers");
    }
    if (ts->num < 0.0) {
      throw std::runtime_error(where + ": negative 'ts'");
    }
    if (ph->str == "X") {
      const json::Value* dur = e.find("dur");
      if (dur == nullptr || !dur->is_number()) {
        throw std::runtime_error(where +
                                 ": complete event needs a numeric 'dur'");
      }
      if (dur->num < 0.0) {
        throw std::runtime_error(where + ": negative 'dur'");
      }
      out.by_tid[static_cast<int>(tid->num)].push_back(
          TraceSpanEvent{name->str, static_cast<std::uint64_t>(ts->num),
                         static_cast<std::uint64_t>(dur->num)});
    }
    // Other phases (metadata, flow arrows, counters, ...) carry no span
    // time; skip.
  }
  return out;
}

void accumulate_trace_thread(std::vector<TraceSpanEvent>& spans,
                             std::map<std::string, TraceNameStats>& stats) {
  std::sort(spans.begin(), spans.end(),
            [](const TraceSpanEvent& a, const TraceSpanEvent& b) {
              if (a.ts != b.ts) return a.ts < b.ts;
              return a.dur > b.dur;
            });
  struct Open {
    const TraceSpanEvent* span;
    std::uint64_t child_us = 0;
  };
  std::vector<Open> stack;
  auto close_until = [&](std::uint64_t ts) {
    while (!stack.empty() && stack.back().span->end() <= ts) {
      const Open top = stack.back();
      stack.pop_back();
      TraceNameStats& s = stats[top.span->name];
      s.wall_us += top.span->dur;
      s.self_us += top.span->dur - std::min(top.span->dur, top.child_us);
      s.count += 1;
      if (!stack.empty()) stack.back().child_us += top.span->dur;
    }
  };
  for (const TraceSpanEvent& span : spans) {
    close_until(span.ts);
    stack.push_back(Open{&span, 0});
  }
  close_until(UINT64_MAX);
}

std::vector<std::pair<std::string, TraceNameStats>> trace_top_spans(
    const TraceDocument& doc, std::size_t top_k) {
  std::map<std::string, TraceNameStats> stats;
  for (const auto& [tid, spans] : doc.by_tid) {
    std::vector<TraceSpanEvent> copy = spans;
    accumulate_trace_thread(copy, stats);
  }
  std::vector<std::pair<std::string, TraceNameStats>> ranked(stats.begin(),
                                                             stats.end());
  std::sort(ranked.begin(), ranked.end(), [](const auto& a, const auto& b) {
    return a.second.self_us > b.second.self_us;
  });
  if (ranked.size() > top_k) ranked.resize(top_k);
  return ranked;
}

}  // namespace taamr::obs
