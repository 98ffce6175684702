#include "obs/profile_stats.hpp"

#include <algorithm>
#include <cctype>
#include <set>
#include <sstream>
#include <stdexcept>

namespace taamr::obs {

namespace {

[[noreturn]] void fail(std::size_t line_no, const std::string& why) {
  throw std::runtime_error("folded profile line " + std::to_string(line_no) +
                           ": " + why);
}

bool all_digits(const std::string& s) {
  if (s.empty()) return false;
  for (char c : s) {
    if (!std::isdigit(static_cast<unsigned char>(c))) return false;
  }
  return true;
}

void check_stack(const std::string& stack, std::size_t line_no) {
  if (stack.empty()) fail(line_no, "empty stack");
  if (stack.front() == ';' || stack.back() == ';') {
    fail(line_no, "empty frame at stack boundary");
  }
  if (stack.find(";;") != std::string::npos) fail(line_no, "empty frame");
}

}  // namespace

std::uint64_t FoldedProfile::total_weight() const {
  std::uint64_t total = 0;
  for (const auto& [stack, weight] : stacks) total += weight;
  return total;
}

void FoldedProfile::add(const std::string& stack, std::uint64_t weight) {
  stacks[stack] += weight;
}

FoldedProfile parse_folded(const std::string& text) {
  FoldedProfile profile;
  std::istringstream in(text);
  std::string line;
  std::size_t line_no = 0;
  while (std::getline(in, line)) {
    ++line_no;
    if (!line.empty() && line.back() == '\r') line.pop_back();
    if (line.empty() || line[0] == '#') continue;

    const std::size_t last_space = line.find_last_of(' ');
    if (last_space == std::string::npos) fail(line_no, "no weight field");
    const std::string weight_text = line.substr(last_space + 1);
    if (!all_digits(weight_text)) {
      fail(line_no, "weight is not a non-negative integer: '" + weight_text +
                        "'");
    }
    std::uint64_t weight = 0;
    try {
      weight = std::stoull(weight_text);
    } catch (const std::out_of_range&) {
      fail(line_no, "weight overflows 64 bits");
    }

    std::string stack = line.substr(0, last_space);
    while (!stack.empty() && stack.back() == ' ') stack.pop_back();
    check_stack(stack, line_no);
    profile.add(stack, weight);
  }
  if (profile.empty()) {
    throw std::runtime_error(
        "folded profile contains no stack lines (empty or truncated "
        "document)");
  }
  return profile;
}

std::string to_folded(const FoldedProfile& p) {
  std::string out;
  for (const auto& [stack, weight] : p.stacks) {
    out += stack;
    out += ' ';
    out += std::to_string(weight);
    out += '\n';
  }
  return out;
}

void merge_folded(FoldedProfile& into, const FoldedProfile& from) {
  for (const auto& [stack, weight] : from.stacks) into.add(stack, weight);
}

namespace {

std::vector<std::string> split_frames(const std::string& stack) {
  std::vector<std::string> frames;
  std::size_t start = 0;
  while (true) {
    const std::size_t semi = stack.find(';', start);
    if (semi == std::string::npos) {
      frames.push_back(stack.substr(start));
      return frames;
    }
    frames.push_back(stack.substr(start, semi - start));
    start = semi + 1;
  }
}

std::map<std::string, FrameStat> frame_rollup(const FoldedProfile& p) {
  std::map<std::string, FrameStat> by_frame;
  for (const auto& [stack, weight] : p.stacks) {
    const std::vector<std::string> frames = split_frames(stack);
    std::set<std::string> seen;
    for (const std::string& frame : frames) {
      if (!seen.insert(frame).second) continue;  // recursion: count once
      FrameStat& stat = by_frame[frame];
      stat.frame = frame;
      stat.total += weight;
    }
    by_frame[frames.back()].self += weight;
  }
  return by_frame;
}

}  // namespace

std::vector<FrameStat> top_frames(const FoldedProfile& p, std::size_t top_k) {
  std::vector<FrameStat> ranked;
  for (auto& [frame, stat] : frame_rollup(p)) ranked.push_back(stat);
  std::sort(ranked.begin(), ranked.end(),
            [](const FrameStat& a, const FrameStat& b) {
              if (a.self != b.self) return a.self > b.self;
              return a.frame < b.frame;
            });
  if (top_k != 0 && ranked.size() > top_k) ranked.resize(top_k);
  return ranked;
}

std::vector<ProfileDelta> diff_folded(const FoldedProfile& baseline,
                                      const FoldedProfile& current,
                                      double threshold) {
  const auto base_frames = frame_rollup(baseline);
  const auto cur_frames = frame_rollup(current);
  const double base_total = static_cast<double>(baseline.total_weight());
  const double cur_total = static_cast<double>(current.total_weight());

  std::vector<ProfileDelta> regressions;
  if (base_total <= 0.0 || cur_total <= 0.0) return regressions;

  for (const auto& [frame, stat] : cur_frames) {
    const double cur_share = static_cast<double>(stat.self) / cur_total;
    const auto it = base_frames.find(frame);
    const double base_share =
        it == base_frames.end()
            ? 0.0
            : static_cast<double>(it->second.self) / base_total;
    // Exclusive threshold with a float guard: shares are quotients of
    // integer weights, so "grew by exactly the threshold" must not trip it.
    if (cur_share - base_share > threshold + 1e-9) {
      regressions.push_back(ProfileDelta{frame, base_share, cur_share});
    }
  }
  std::sort(regressions.begin(), regressions.end(),
            [](const ProfileDelta& a, const ProfileDelta& b) {
              const double ga = a.cur_share - a.base_share;
              const double gb = b.cur_share - b.base_share;
              if (ga != gb) return ga > gb;
              return a.frame < b.frame;
            });
  return regressions;
}

std::string kernel_family_for_stack(const std::string& stack) {
  // Leaf-most match wins: walk frames from the leaf towards the root so an
  // im2col path that bottoms out in gemm books as gemm, matching how the
  // cost accountant attributes the flops.
  const std::vector<std::string> frames = split_frames(stack);
  for (auto it = frames.rbegin(); it != frames.rend(); ++it) {
    std::string lower = *it;
    std::transform(lower.begin(), lower.end(), lower.begin(),
                   [](unsigned char c) { return std::tolower(c); });
    if (lower.find("gemm") != std::string::npos ||
        lower.find("matmul") != std::string::npos) {
      return "gemm";
    }
    if (lower.find("im2col") != std::string::npos ||
        lower.find("col2im") != std::string::npos ||
        lower.find("conv") != std::string::npos) {
      return "im2col";
    }
    if (lower.find("softmax") != std::string::npos ||
        lower.find("reduce") != std::string::npos ||
        lower.find("norm") != std::string::npos ||
        lower.find("argmax") != std::string::npos ||
        lower.find("dot") != std::string::npos) {
      return "reduction";
    }
    if (lower.find("recsys") != std::string::npos ||
        lower.find("rank") != std::string::npos) {
      return "recsys_score";
    }
    if (lower.find("axpy") != std::string::npos ||
        lower.find("clamp") != std::string::npos ||
        lower.find("elementwise") != std::string::npos ||
        lower.find("apply") != std::string::npos) {
      return "elementwise";
    }
  }
  return "other";
}

}  // namespace taamr::obs
