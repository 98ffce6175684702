// trace_summary: top-k spans by self-time from a TAAMR_TRACE JSON file.
//
//   ./tools/trace_summary trace.json [top_k]
//
// Reads a Chrome trace_event document (as written by obs::Trace) via
// obs::parse_trace_document, which rejects truncated or structurally
// invalid files with a specific error, so this doubles as a trace
// validator in the ctest quickstart check.
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <iostream>
#include <sstream>
#include <string>

#include "obs/trace_stats.hpp"
#include "util/table.hpp"

int main(int argc, char** argv) {
  using taamr::Table;
  namespace obs = taamr::obs;

  if (argc < 2 || argc > 3) {
    std::fprintf(stderr, "usage: %s <trace.json> [top_k]\n", argv[0]);
    return 2;
  }
  int top_k = 10;
  if (argc == 3) {
    top_k = std::atoi(argv[2]);
    if (top_k <= 0) {
      std::fprintf(stderr, "trace_summary: top_k must be positive, got '%s'\n",
                   argv[2]);
      return 2;
    }
  }

  std::ifstream in(argv[1]);
  if (!in) {
    std::fprintf(stderr, "trace_summary: cannot open '%s'\n", argv[1]);
    return 1;
  }
  std::ostringstream buffer;
  buffer << in.rdbuf();

  obs::TraceDocument doc;
  try {
    doc = obs::parse_trace_document(buffer.str());
  } catch (const std::exception& e) {
    std::fprintf(stderr, "trace_summary: %s: %s\n", argv[1], e.what());
    return 1;
  }

  auto ranked = obs::trace_top_spans(doc, static_cast<std::size_t>(-1));
  std::printf("%zu events on %zu thread(s), %zu distinct span name(s)\n",
              doc.total_events(), doc.by_tid.size(), ranked.size());
  if (ranked.size() > static_cast<std::size_t>(top_k)) {
    ranked.resize(static_cast<std::size_t>(top_k));
  }

  Table t("Top spans by self-time");
  t.header({"span", "self (ms)", "wall (ms)", "count", "self/call (ms)"});
  for (const auto& [name, s] : ranked) {
    t.row({name, Table::fmt(s.self_us / 1e3, 3), Table::fmt(s.wall_us / 1e3, 3),
           std::to_string(s.count),
           Table::fmt(s.self_us / 1e3 / static_cast<double>(s.count), 3)});
  }
  t.print(std::cout);
  return 0;
}
