#include "spans.hpp"

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <fstream>
#include <stdexcept>

#include <sys/syscall.h>
#include <unistd.h>

#include "obs/json.hpp"

namespace taamr::bench {

namespace {

std::uint64_t steady_ns() {
  return static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count());
}

// Each thread keeps the stack of spans it has open, so a new span's parent
// is whatever that thread opened last. Tagged with the recorder so spans of
// two recorders never nest into each other.
struct OpenStack {
  const SpanRecorder* owner = nullptr;
  std::vector<std::int64_t> open;
};
thread_local OpenStack t_stack;

}  // namespace

SpanRecorder::SpanRecorder() : epoch_ns_(steady_ns()) {}

double SpanRecorder::now_us() const {
  return static_cast<double>(steady_ns() - epoch_ns_) * 1e-3;
}

std::int64_t SpanRecorder::begin(std::string name, std::uint64_t request, std::uint64_t calls,
                                 std::int64_t parent) {
  if (t_stack.owner != this) t_stack = OpenStack{this, {}};
  Span span;
  span.name = std::move(name);
  span.parent = parent != kThreadParent ? parent
                : t_stack.open.empty()  ? -1
                                        : t_stack.open.back();
  span.request = request;
  span.calls = calls;
  const auto os_tid = static_cast<std::uint64_t>(::syscall(SYS_gettid));
  std::int64_t index = 0;
  {
    std::lock_guard<std::mutex> lock(mutex_);
    auto it = tids_.find(os_tid);
    if (it == tids_.end()) {
      it = tids_.emplace(os_tid, static_cast<int>(tids_.size()) + 1).first;
    }
    span.tid = it->second;
    span.start_us = now_us();
    index = static_cast<std::int64_t>(spans_.size());
    spans_.push_back(std::move(span));
  }
  t_stack.open.push_back(index);
  return index;
}

void SpanRecorder::end(std::int64_t index) {
  const double t = now_us();
  {
    std::lock_guard<std::mutex> lock(mutex_);
    spans_.at(static_cast<std::size_t>(index)).end_us = t;
  }
  if (t_stack.owner == this && !t_stack.open.empty() && t_stack.open.back() == index) {
    t_stack.open.pop_back();
  }
}

void SpanRecorder::set_calls(std::int64_t index, std::uint64_t calls) {
  std::lock_guard<std::mutex> lock(mutex_);
  spans_.at(static_cast<std::size_t>(index)).calls = calls;
}

std::vector<Span> SpanRecorder::spans() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return spans_;
}

std::string SpanRecorder::chrome_json() const {
  const std::vector<Span> all = spans();
  std::string out = "{\"displayTimeUnit\":\"ms\",\"traceEvents\":[";
  bool first = true;
  char buf[160];
  for (std::size_t i = 0; i < all.size(); ++i) {
    const Span& s = all[i];
    if (s.end_us < 0.0) continue;
    if (!first) out += ",\n";
    first = false;
    out += "{\"name\":\"" + obs::json::escape(s.name) + "\",\"ph\":\"X\"";
    std::snprintf(buf, sizeof(buf),
                  ",\"ts\":%.3f,\"dur\":%.3f,\"pid\":1,\"tid\":%d,\"args\":{\"id\":%zu,"
                  "\"parent\":%lld,\"request\":%llu,\"calls\":%llu}}",
                  s.start_us, s.end_us - s.start_us, s.tid, i,
                  static_cast<long long>(s.parent),
                  static_cast<unsigned long long>(s.request),
                  static_cast<unsigned long long>(s.calls));
    out += buf;
  }
  out += "]}\n";
  return out;
}

void SpanRecorder::write_chrome_json(const std::string& path) const {
  std::ofstream os(path, std::ios::binary | std::ios::trunc);
  os << chrome_json();
  os.close();
  if (!os) throw std::runtime_error("cannot write trace file " + path);
}

namespace {

// Seconds of each span covered by the union of its closed direct children.
std::vector<double> covered_seconds(const std::vector<Span>& spans) {
  std::vector<std::vector<std::pair<double, double>>> children(spans.size());
  for (const Span& s : spans) {
    if (s.parent >= 0 && s.end_us >= 0.0) {
      children.at(static_cast<std::size_t>(s.parent)).emplace_back(s.start_us, s.end_us);
    }
  }
  std::vector<double> covered(spans.size(), 0.0);
  for (std::size_t i = 0; i < spans.size(); ++i) {
    auto& iv = children[i];
    if (iv.empty() || spans[i].end_us < 0.0) continue;
    std::sort(iv.begin(), iv.end());
    double us = 0.0;
    double reach = spans[i].start_us;
    for (const auto& [start, end] : iv) {
      const double from = std::max(start, reach);
      const double to = std::min(end, spans[i].end_us);
      if (to > from) us += to - from;
      reach = std::max(reach, std::min(end, spans[i].end_us));
    }
    covered[i] = us * 1e-6;
  }
  return covered;
}

}  // namespace

std::map<std::string, SpanTotals> aggregate_spans(const std::vector<Span>& spans) {
  const std::vector<double> covered = covered_seconds(spans);
  std::map<std::string, SpanTotals> out;
  for (std::size_t i = 0; i < spans.size(); ++i) {
    const Span& s = spans[i];
    if (s.end_us < 0.0) continue;
    SpanTotals& t = out[s.name];
    t.wall_s += s.seconds();
    t.self_s += s.seconds() - covered[i];
    t.calls += s.calls;
  }
  return out;
}

}  // namespace taamr::bench
