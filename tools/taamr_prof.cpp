// taamr_prof: merge, summarize and diff collapsed-stack profiles written by
// the in-process sampling profiler (TAAMR_PROFILE=..., *.folded artifacts).
//
//   taamr_prof a.cpu.folded b.cpu.folded            # merged top-20 table
//   taamr_prof --top 10 prof.cpu.folded             # top-10 by self weight
//   taamr_prof --out merged.folded shard*.folded    # write merged document
//   taamr_prof --diff base.folded cur.folded        # regression check
//   taamr_prof --diff base.folded --threshold 3 cur.folded
//
// --diff compares each frame's share of total self weight against the
// baseline; any frame whose share grew by more than --threshold percentage
// points (default 5) is a regression and the exit code is 1 — wire it into
// CI next to the bench-report gate. Exit codes: 0 clean, 1 regression
// found, 2 usage/parse/IO error (same convention as taamr_report).
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "obs/profile_stats.hpp"
#include "util/env.hpp"

namespace {

using taamr::obs::FoldedProfile;

int usage() {
  std::fprintf(stderr,
               "usage: taamr_prof [--top K] [--out merged.folded]\n"
               "                  [--diff base.folded] [--threshold PCT_PTS]\n"
               "                  profile.folded [more.folded ...]\n");
  return 2;
}

bool read_file(const std::string& path, std::string& out) {
  std::ifstream in(path, std::ios::binary);
  if (!in) return false;
  std::ostringstream buf;
  buf << in.rdbuf();
  out = buf.str();
  return true;
}

// Parses one folded file or exits with code 2 naming the file — a profile
// that cannot be parsed must fail loudly, not summarize as empty.
FoldedProfile load_or_die(const std::string& path) {
  std::string text;
  if (!read_file(path, text)) {
    std::fprintf(stderr, "taamr_prof: cannot read '%s'\n", path.c_str());
    std::exit(2);
  }
  try {
    return taamr::obs::parse_folded(text);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "taamr_prof: %s: %s\n", path.c_str(), e.what());
    std::exit(2);
  }
}

void print_top(const FoldedProfile& profile, std::size_t top_k) {
  const auto ranked = taamr::obs::top_frames(profile, top_k);
  const double total = static_cast<double>(profile.total_weight());
  std::printf("%12s %7s %12s  %s\n", "self", "self%", "total", "frame");
  for (const auto& f : ranked) {
    std::printf("%12llu %6.2f%% %12llu  %s\n",
                static_cast<unsigned long long>(f.self),
                100.0 * static_cast<double>(f.self) / total,
                static_cast<unsigned long long>(f.total), f.frame.c_str());
  }
  std::printf("# %llu total weight across %zu stacks\n",
              static_cast<unsigned long long>(profile.total_weight()),
              profile.stacks.size());
}

}  // namespace

int main(int argc, char** argv) {
  std::size_t top_k = 20;
  std::string out_path;
  std::string diff_base;
  double threshold_pts = 5.0;
  std::vector<std::string> inputs;

  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    auto next = [&](const char* flag) -> const char* {
      if (i + 1 >= argc) {
        std::fprintf(stderr, "taamr_prof: %s needs a value\n", flag);
        std::exit(2);
      }
      return argv[++i];
    };
    if (arg == "--top") {
      const char* raw = next("--top");
      const auto parsed = taamr::env::parse_int(raw);
      if (!parsed || *parsed <= 0) {
        std::fprintf(stderr, "taamr_prof: --top must be a positive integer, got '%s'\n",
                     raw);
        return 2;
      }
      top_k = static_cast<std::size_t>(*parsed);
    } else if (arg == "--out") {
      out_path = next("--out");
    } else if (arg == "--diff") {
      diff_base = next("--diff");
    } else if (arg == "--threshold") {
      char* end = nullptr;
      threshold_pts = std::strtod(next("--threshold"), &end);
      if (end == nullptr || *end != '\0' || threshold_pts < 0.0) {
        std::fprintf(stderr, "taamr_prof: --threshold must be a non-negative "
                             "number of percentage points\n");
        return 2;
      }
    } else if (arg == "--help" || arg == "-h") {
      return usage();
    } else if (!arg.empty() && arg[0] == '-') {
      std::fprintf(stderr, "taamr_prof: unknown flag '%s'\n", arg.c_str());
      return usage();
    } else {
      inputs.push_back(arg);
    }
  }
  if (inputs.empty()) return usage();

  FoldedProfile merged = load_or_die(inputs[0]);
  for (std::size_t i = 1; i < inputs.size(); ++i) {
    const FoldedProfile shard = load_or_die(inputs[i]);
    taamr::obs::merge_folded(merged, shard);
  }

  if (!out_path.empty()) {
    std::ofstream out(out_path, std::ios::binary);
    if (!out) {
      std::fprintf(stderr, "taamr_prof: cannot write '%s'\n", out_path.c_str());
      return 2;
    }
    out << taamr::obs::to_folded(merged);
  }

  if (!diff_base.empty()) {
    const FoldedProfile base = load_or_die(diff_base);
    const auto regressions =
        taamr::obs::diff_folded(base, merged, threshold_pts / 100.0);
    if (regressions.empty()) {
      std::printf("profile diff clean: no frame grew its self-time share by "
                  "more than %.2f points vs %s\n",
                  threshold_pts, diff_base.c_str());
      return 0;
    }
    std::printf("%7s %7s %7s  %s\n", "base%", "cur%", "delta", "frame");
    for (const auto& r : regressions) {
      std::printf("%6.2f%% %6.2f%% %+6.2f%%  %s\n", 100.0 * r.base_share,
                  100.0 * r.cur_share, 100.0 * (r.cur_share - r.base_share),
                  r.frame.c_str());
    }
    std::printf("profile diff: %zu frame(s) regressed past %.2f points vs "
                "%s\n",
                regressions.size(), threshold_pts, diff_base.c_str());
    return 1;
  }

  print_top(merged, top_k);
  return 0;
}
