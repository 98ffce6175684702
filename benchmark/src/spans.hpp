// Bench-side tracing: spans the benchmark records around its own calls into
// each layer, kept in memory and written as Chrome trace-event JSON when the
// run ends (readable by tools/trace_summary, chrome://tracing, Perfetto).
//
// A span records its name, start, end, its parent (by default the span open
// on the same thread when it began; work handed to other threads names its
// parent explicitly), a request id shared by all spans of one request, and
// how many calls it covers. Self time is a span's duration minus the part of
// it that its direct children cover; children running in parallel on
// several threads count once.
#pragma once

#include <cstdint>
#include <map>
#include <mutex>
#include <string>
#include <vector>

namespace taamr::bench {

struct Span {
  std::string name;
  double start_us = 0.0;  // since the recorder was created
  double end_us = -1.0;   // -1 while open
  std::int64_t parent = -1;  // index of the parent span, -1 for a root
  std::uint64_t request = 0;  // 0 = not part of a request
  std::uint64_t calls = 1;
  int tid = 0;

  double seconds() const { return (end_us - start_us) * 1e-6; }
};

class SpanRecorder {
 public:
  SpanRecorder();
  SpanRecorder(const SpanRecorder&) = delete;
  SpanRecorder& operator=(const SpanRecorder&) = delete;

  static constexpr std::int64_t kThreadParent = -2;

  // Opens a span on the calling thread and returns its index. The parent is
  // the calling thread's innermost open span unless given.
  std::int64_t begin(std::string name, std::uint64_t request = 0, std::uint64_t calls = 1,
                     std::int64_t parent = kThreadParent);
  void end(std::int64_t index);
  void set_calls(std::int64_t index, std::uint64_t calls);

  std::vector<Span> spans() const;
  std::string chrome_json() const;
  // Throws std::runtime_error when the file cannot be written.
  void write_chrome_json(const std::string& path) const;

 private:
  double now_us() const;

  std::uint64_t epoch_ns_ = 0;
  mutable std::mutex mutex_;
  std::vector<Span> spans_;           // guarded by mutex_
  std::map<std::uint64_t, int> tids_;  // OS thread -> compact id; guarded by mutex_
};

// RAII span; a null recorder makes it a no-op, so traced and untraced runs
// share one code path.
class ScopedSpan {
 public:
  ScopedSpan(SpanRecorder* recorder, std::string name, std::uint64_t request = 0,
             std::uint64_t calls = 1, std::int64_t parent = SpanRecorder::kThreadParent)
      : recorder_(recorder),
        index_(recorder != nullptr ? recorder->begin(std::move(name), request, calls, parent)
                                   : -1) {}
  ~ScopedSpan() {
    if (recorder_ != nullptr) recorder_->end(index_);
  }
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

  void set_calls(std::uint64_t calls) {
    if (recorder_ != nullptr) recorder_->set_calls(index_, calls);
  }
  // -1 when not recording.
  std::int64_t index() const { return index_; }

 private:
  SpanRecorder* recorder_;
  std::int64_t index_;
};

struct SpanTotals {
  double wall_s = 0.0;
  double self_s = 0.0;  // wall minus the union of direct children's intervals
  std::uint64_t calls = 0;
};
// Per-name totals over closed spans.
std::map<std::string, SpanTotals> aggregate_spans(const std::vector<Span>& spans);

}  // namespace taamr::bench
