// taamr_report: merges the per-run observability artifacts into one Markdown
// report, and doubles as the regression gate over BENCH_*.json files.
//
//   # human report from one or more bench artifacts (+ optional extras)
//   ./tools/taamr_report BENCH_table2_chr.json
//       [--metrics metrics.json] [--trace trace.json]
//       [--out report.md]
//
//   # schema validation only (CI artifact check)
//   ./tools/taamr_report --check BENCH_*.json
//
//   # regression gate: compare current vs baseline, exit 1 on regression
//   ./tools/taamr_report BENCH_table2_chr.json
//       --baseline old/BENCH_table2_chr.json --threshold 10%
//
// Exit codes: 0 ok, 1 schema violation or regression, 2 usage/IO error.
#include <algorithm>
#include <cstdio>
#include <fstream>
#include <iostream>
#include <map>
#include <sstream>
#include <string>
#include <vector>

#include "obs/bench_report.hpp"
#include "obs/json.hpp"
#include "obs/profile_stats.hpp"
#include "obs/trace_stats.hpp"
#include "util/args.hpp"
#include "util/table.hpp"

namespace {

using namespace taamr;
namespace json = obs::json;

std::string read_file(const std::string& path) {
  std::ifstream in(path);
  if (!in) throw std::runtime_error("cannot open '" + path + "'");
  std::ostringstream buffer;
  buffer << in.rdbuf();
  return buffer.str();
}

// Accepts "10%" or "0.1"; throws on garbage.
double parse_threshold(const std::string& s) {
  std::string body = s;
  double divisor = 1.0;
  if (!body.empty() && body.back() == '%') {
    body.pop_back();
    divisor = 100.0;
  }
  std::size_t used = 0;
  const double v = std::stod(body, &used);
  if (used != body.size() || v < 0.0) {
    throw std::runtime_error("bad --threshold '" + s + "' (want e.g. 10% or 0.1)");
  }
  return v / divisor;
}

std::string fmt_bytes(double bytes) {
  const char* units[] = {"B", "KiB", "MiB", "GiB"};
  int u = 0;
  while (bytes >= 1024.0 && u < 3) {
    bytes /= 1024.0;
    ++u;
  }
  return Table::fmt(bytes, u == 0 ? 0 : 2) + " " + units[u];
}

std::string labels_to_string(const obs::Labels& labels) {
  std::string out;
  for (const auto& [k, v] : labels) {
    if (!out.empty()) out += ", ";
    out += k + "=" + v;
  }
  return out;
}

void render_bench_section(std::ostream& os, const obs::BenchReport& r) {
  os << "## Bench: " << r.name << "\n\n";
  os << "| config | value |\n|---|---|\n";
  os << "| scale | " << json::number(r.scale) << " |\n";
  os << "| seed | " << r.seed << " |\n";
  os << "| threads | " << r.threads << " |\n";
  os << "| git sha | " << r.git_sha << " |\n";
  os << "| build type | " << r.build_type << " |\n\n";

  os << "| perf | value |\n|---|---|\n";
  os << "| wall | " << Table::fmt(r.wall_seconds, 2) << " s |\n";
  if (r.examples > 0.0) {
    os << "| examples | " << json::number(r.examples) << " ("
       << Table::fmt(r.examples_per_sec(), 3) << "/s) |\n";
  }
  os << "| FLOPs | " << json::number(r.flops_total) << " ("
     << Table::fmt(r.gflops(), 2) << " GFLOP/s) |\n";
  os << "| bytes moved | " << fmt_bytes(r.bytes_total) << " ("
     << Table::fmt(r.gib_per_sec(), 2) << " GiB/s) |\n";
  os << "| peak RSS | " << fmt_bytes(static_cast<double>(r.peak_rss_bytes)) << " |\n";
  os << "| tensor high-water | "
     << fmt_bytes(static_cast<double>(r.tensor_high_water_bytes)) << " |\n\n";

  if (!r.kernels.empty()) {
    os << "| kernel | GFLOPs | GiB moved |\n|---|---|---|\n";
    for (const auto& k : r.kernels) {
      os << "| " << k.kernel << " | " << Table::fmt(k.flops * 1e-9, 3) << " | "
         << Table::fmt(k.bytes / (1024.0 * 1024.0 * 1024.0), 3) << " |\n";
    }
    os << "\n";
  }
  if (!r.metrics.empty()) {
    os << "| metric | labels | value |\n|---|---|---|\n";
    for (const auto& m : r.metrics) {
      os << "| " << m.name << " | " << labels_to_string(m.labels) << " | "
         << json::number(m.value) << " |\n";
    }
    os << "\n";
  }
}

void render_metrics_section(std::ostream& os, const json::Value& doc) {
  os << "## Metrics snapshot\n\n";
  const json::Value* counters = doc.find("counters");
  if (counters != nullptr && counters->is_array() && !counters->array.empty()) {
    os << "| counter | labels | value |\n|---|---|---|\n";
    for (const json::Value& c : counters->array) {
      const json::Value* name = c.find("name");
      const json::Value* value = c.find("value");
      if (name == nullptr || value == nullptr) continue;
      std::string labels;
      if (const json::Value* l = c.find("labels"); l != nullptr && l->is_object()) {
        for (const auto& [k, v] : l->object) {
          if (!labels.empty()) labels += ", ";
          labels += k + "=" + v.str;
        }
      }
      os << "| " << name->str << " | " << labels << " | " << json::number(value->num)
         << " |\n";
    }
    os << "\n";
  }
  const json::Value* histograms = doc.find("histograms");
  if (histograms != nullptr && histograms->is_array() && !histograms->array.empty()) {
    os << "| histogram | count | mean | p50 | p90 | p99 |\n|---|---|---|---|---|---|\n";
    for (const json::Value& h : histograms->array) {
      const json::Value* name = h.find("name");
      const json::Value* count = h.find("count");
      if (name == nullptr || count == nullptr || count->num == 0.0) continue;
      auto cell = [&](const char* key) {
        const json::Value* v = h.find(key);
        return v != nullptr ? Table::fmt(v->num, 4) : std::string("-");
      };
      os << "| " << name->str << " | " << json::number(count->num) << " | "
         << cell("mean") << " | " << cell("p50") << " | " << cell("p90") << " | "
         << cell("p99") << " |\n";
    }
    os << "\n";
  }
}

void render_trace_section(std::ostream& os, const obs::TraceDocument& doc) {
  os << "## Trace: top spans by self-time\n\n";
  os << doc.total_events() << " events on " << doc.by_tid.size()
     << " thread(s)\n\n";
  os << "| span | self (ms) | wall (ms) | count |\n|---|---|---|---|\n";
  for (const auto& [name, s] : obs::trace_top_spans(doc, 10)) {
    os << "| " << name << " | " << Table::fmt(s.self_us / 1e3, 3) << " | "
       << Table::fmt(s.wall_us / 1e3, 3) << " | " << s.count << " |\n";
  }
  os << "\n";
}

// Top-K self-weight table from a collapsed-stack CPU/alloc profile, the
// sampling counterpart of the span-based trace section.
void render_profile_section(std::ostream& os, const obs::FoldedProfile& p,
                            const std::string& path) {
  os << "## Profile: top frames by self weight (" << path << ")\n\n";
  os << p.total_weight() << " total weight across " << p.stacks.size()
     << " distinct stack(s)\n\n";
  os << "| frame | self | self % | total |\n|---|---|---|---|\n";
  const double total = static_cast<double>(p.total_weight());
  for (const auto& f : obs::top_frames(p, 10)) {
    os << "| " << f.frame << " | " << f.self << " | "
       << Table::fmt(100.0 * static_cast<double>(f.self) / total, 2) << "% | "
       << f.total << " |\n";
  }
  os << "\n";
}

// Validates and summarizes an attack-forensics audit JSONL file. Throws on
// any malformed or schema-violating line (the serve_obs gate runs this to
// assert the records parse), so a truncated or interleaved write fails loud.
void render_audit_section(std::ostream& os, const std::string& text,
                          const std::string& path) {
  std::size_t records = 0, suspects = 0;
  std::map<std::string, std::size_t> by_reason;
  std::map<std::string, std::size_t> by_source;
  std::map<long long, std::size_t> by_item;
  double max_l2 = 0.0;
  double min_ssim = 2.0;  // SSIM lives in [-1, 1]
  bool any_ssim = false;
  std::istringstream in(text);
  std::string line;
  std::size_t lineno = 0;
  while (std::getline(in, line)) {
    ++lineno;
    if (line.empty()) continue;
    json::Value v;
    try {
      v = json::parse(line);
    } catch (const std::exception& e) {
      throw std::runtime_error(path + ":" + std::to_string(lineno) +
                               ": malformed audit record: " + e.what());
    }
    const json::Value* item = v.find("item");
    const json::Value* source = v.find("source");
    const json::Value* l2 = v.find("l2_delta");
    const json::Value* suspect = v.find("suspect");
    if (item == nullptr || !item->is_number() || source == nullptr ||
        !source->is_string() || l2 == nullptr || !l2->is_number() ||
        suspect == nullptr || suspect->type != json::Value::Type::kBool) {
      throw std::runtime_error(
          path + ":" + std::to_string(lineno) +
          ": audit record missing item/source/l2_delta/suspect");
    }
    ++records;
    by_source[source->str]++;
    by_item[static_cast<long long>(item->num)]++;
    max_l2 = std::max(max_l2, l2->num);
    if (const json::Value* ssim = v.find("ssim");
        ssim != nullptr && ssim->is_number() && ssim->num >= -1.0) {
      min_ssim = std::min(min_ssim, ssim->num);
      any_ssim = true;
    }
    if (suspect->boolean) {
      ++suspects;
      const json::Value* reason = v.find("reason");
      by_reason[reason != nullptr && reason->is_string() ? reason->str : "?"]++;
    }
  }
  os << "## Audit trail: " << path << "\n\n"
     << records << " update record(s), " << suspects << " flagged suspect\n\n";
  if (!by_reason.empty()) {
    os << "| suspect reason | count |\n|---|---|\n";
    for (const auto& [reason, count] : by_reason) {
      os << "| " << reason << " | " << count << " |\n";
    }
    os << "\n";
  }
  os << "| source | count |\n|---|---|\n";
  for (const auto& [source, count] : by_source) {
    os << "| " << source << " | " << count << " |\n";
  }
  os << "\n| stat | value |\n|---|---|\n";
  os << "| max L2 delta | " << json::number(max_l2) << " |\n";
  if (any_ssim) os << "| min SSIM | " << json::number(min_ssim) << " |\n";
  // The most-updated items are the likeliest push targets.
  std::vector<std::pair<std::size_t, long long>> hot;
  for (const auto& [it, count] : by_item) hot.emplace_back(count, it);
  std::sort(hot.rbegin(), hot.rend());
  if (hot.size() > 5) hot.resize(5);
  for (const auto& [count, it] : hot) {
    os << "| updates to item " << it << " | " << count << " |\n";
  }
  os << "\n";
}

}  // namespace

int main(int argc, char** argv) {
  ArgParser args(argc, argv);

  const std::string baseline_path = args.get("baseline", "");
  const std::string metrics_path = args.get("metrics", "");
  const std::string trace_path = args.get("trace", "");
  const std::string audit_path = args.get("audit", "");
  const std::string profile_path = args.get("profile", "");
  const std::string out_path = args.get("out", "");

  // "--check BENCH.json" parses the path as the switch's value; recover it
  // as a positional so the natural CLI shape works.
  std::vector<std::string> bench_paths = args.positionals();
  bool check_only = false;
  if (args.has("check")) {
    check_only = true;
    const std::string v = args.get("check");
    if (v != "true" && v != "1" && v != "yes" && v != "on") {
      bench_paths.insert(bench_paths.begin(), v);
    }
  }

  // An audit, trace or profile file alone is a valid report subject — the
  // serve_obs gate validates the audit trail without a bench artifact.
  if (bench_paths.empty() && audit_path.empty() && trace_path.empty() &&
      profile_path.empty()) {
    std::fprintf(stderr,
                 "usage: %s <BENCH_*.json...> [--check] [--baseline old.json]\n"
                 "       [--threshold 10%%] [--metrics metrics.json]\n"
                 "       [--trace trace.json]\n"
                 "       [--audit audit.jsonl] [--profile prof.folded]\n"
                 "       [--out report.md]\n",
                 argv[0]);
    return 2;
  }

  obs::CompareOptions compare_opts;
  try {
    if (args.has("threshold")) compare_opts.threshold = parse_threshold(args.get("threshold"));
  } catch (const std::exception& e) {
    std::fprintf(stderr, "taamr_report: %s\n", e.what());
    return 2;
  }

  // Load + validate every bench artifact; --check stops here.
  std::vector<obs::BenchReport> reports;
  bool valid = true;
  for (const std::string& path : bench_paths) {
    try {
      const json::Value doc = json::parse(read_file(path));
      const std::vector<std::string> violations = obs::validate_bench_report(doc);
      if (!violations.empty()) {
        valid = false;
        for (const std::string& v : violations) {
          std::fprintf(stderr, "taamr_report: %s: %s\n", path.c_str(), v.c_str());
        }
        continue;
      }
      reports.push_back(obs::parse_bench_report(doc));
    } catch (const std::exception& e) {
      std::fprintf(stderr, "taamr_report: %s: %s\n", path.c_str(), e.what());
      return 2;
    }
  }
  if (!valid) return 1;
  if (check_only) {
    std::printf("taamr_report: %zu artifact(s) schema-valid\n", reports.size());
    return 0;
  }

  // Regression gate against a baseline artifact.
  std::vector<std::string> regressions;
  if (!baseline_path.empty() && !reports.empty()) {
    try {
      const obs::BenchReport baseline =
          obs::parse_bench_report(json::parse(read_file(baseline_path)));
      regressions =
          obs::compare_bench_reports(baseline, reports.front(), compare_opts);
    } catch (const std::exception& e) {
      std::fprintf(stderr, "taamr_report: baseline %s: %s\n", baseline_path.c_str(),
                   e.what());
      return 2;
    }
  }

  std::ostringstream md;
  md << "# TAaMR run report\n\n";
  if (!baseline_path.empty()) {
    md << "## Regression gate vs " << baseline_path << " (threshold "
       << Table::fmt(compare_opts.threshold * 100.0, 1) << "%)\n\n";
    if (regressions.empty()) {
      md << "PASS — no regressions.\n\n";
    } else {
      for (const std::string& r : regressions) md << "- REGRESSION: " << r << "\n";
      md << "\n";
    }
  }
  for (const obs::BenchReport& r : reports) render_bench_section(md, r);
  try {
    if (!metrics_path.empty()) {
      render_metrics_section(md, json::parse(read_file(metrics_path)));
    }
    if (!trace_path.empty()) {
      render_trace_section(md, obs::parse_trace_document(read_file(trace_path)));
    }
    if (!profile_path.empty()) {
      render_profile_section(md, obs::parse_folded(read_file(profile_path)),
                             profile_path);
    }
  } catch (const std::exception& e) {
    std::fprintf(stderr, "taamr_report: %s\n", e.what());
    return 2;
  }
  if (!audit_path.empty()) {
    try {
      render_audit_section(md, read_file(audit_path), audit_path);
    } catch (const std::exception& e) {
      // A malformed audit record is a validation failure (exit 1), distinct
      // from the IO/usage errors above: the gate asserts records parse.
      std::fprintf(stderr, "taamr_report: %s\n", e.what());
      return 1;
    }
  }

  for (const std::string& flag : args.unused()) {
    std::fprintf(stderr, "taamr_report: unknown flag --%s\n", flag.c_str());
    return 2;
  }

  if (out_path.empty()) {
    std::cout << md.str();
  } else {
    std::ofstream out(out_path);
    if (!out) {
      std::fprintf(stderr, "taamr_report: cannot write '%s'\n", out_path.c_str());
      return 2;
    }
    out << md.str();
    std::printf("taamr_report: wrote %s\n", out_path.c_str());
  }

  for (const std::string& r : regressions) {
    std::fprintf(stderr, "taamr_report: REGRESSION: %s\n", r.c_str());
  }
  return regressions.empty() ? 0 : 1;
}
