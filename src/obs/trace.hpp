// Scoped trace spans in Chrome trace_event format.
//
//   void Pipeline::prepare() {
//     TAAMR_TRACE_SPAN("pipeline/prepare");
//     ...
//   }
//
// When TAAMR_TRACE=<path> is set in the environment, every span becomes a
// complete ("ph":"X") event; per-thread buffers are merged and written to
// <path> at process exit (or via Trace::write()). Open the file in
// chrome://tracing or https://ui.perfetto.dev. When tracing is disabled a
// span costs one relaxed atomic load — cheap enough to leave in hot paths.
//
// Nesting falls out of scoping: spans on the same thread whose lifetimes
// nest render as a flame graph.
#pragma once

#include <atomic>
#include <chrono>
#include <cstdint>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

namespace taamr::obs {

// Microseconds since the first call in this process; the shared time axis
// for trace events and queue-latency measurements.
std::uint64_t monotonic_us();

class Trace {
 public:
  // Process-wide session. Reads TAAMR_TRACE at construction; writes the
  // merged trace there at destruction (normal process exit).
  static Trace& global();

  Trace();
  ~Trace();
  Trace(const Trace&) = delete;
  Trace& operator=(const Trace&) = delete;

  bool enabled() const { return enabled_.load(std::memory_order_relaxed); }

  // Start collecting; events are written to `path` (empty = collect only,
  // retrieve with to_json()). Used by tests; normal runs use TAAMR_TRACE.
  void enable(std::string path);
  void disable();
  // The configured output path (empty = collect only). Lets a driver that
  // toggles tracing off for a phase re-enable it at the same destination.
  std::string path() const;
  // Drops all buffered events (the per-thread buffers stay registered).
  void clear();

  // Records one complete event on the calling thread's buffer.
  void record(std::string name, std::uint64_t ts_us, std::uint64_t dur_us);

  // Merges every thread's buffer into one trace_event JSON document.
  std::string to_json() const;
  // Writes to_json() to the configured path (no-op when path is empty).
  void write();

 private:
  struct Event {
    std::string name;
    std::uint64_t ts_us = 0;
    std::uint64_t dur_us = 0;
  };
  struct ThreadBuf {
    mutable std::mutex mutex;  // appends race with to_json() merges
    std::vector<Event> events;
    int tid = 0;      // compact per-trace id used in the JSON
    long os_tid = 0;  // kernel tid, for thread-name lookup at merge time
  };

  ThreadBuf& local_buf();

  std::atomic<bool> enabled_{false};
  mutable std::mutex mutex_;  // guards path_ and bufs_ registration
  std::string path_;
  std::vector<std::shared_ptr<ThreadBuf>> bufs_;
};

// RAII span. The const char* overload defers any allocation until the span
// is actually recorded, so disabled-tracing overhead is one atomic load.
class TraceSpan {
 public:
  explicit TraceSpan(const char* name) {
    if (Trace::global().enabled()) begin(name);
  }
  explicit TraceSpan(std::string name) {
    if (Trace::global().enabled()) begin(std::move(name));
  }
  ~TraceSpan() {
    if (active_) {
      Trace::global().record(std::move(name_), start_us_,
                             monotonic_us() - start_us_);
    }
  }
  TraceSpan(const TraceSpan&) = delete;
  TraceSpan& operator=(const TraceSpan&) = delete;

 private:
  void begin(std::string name) {
    name_ = std::move(name);
    start_us_ = monotonic_us();
    active_ = true;
  }

  bool active_ = false;
  std::string name_;
  std::uint64_t start_us_ = 0;
};

}  // namespace taamr::obs

#define TAAMR_OBS_CONCAT_INNER(a, b) a##b
#define TAAMR_OBS_CONCAT(a, b) TAAMR_OBS_CONCAT_INNER(a, b)
// Opens a span covering the rest of the enclosing scope.
#define TAAMR_TRACE_SPAN(name) \
  ::taamr::obs::TraceSpan TAAMR_OBS_CONCAT(taamr_trace_span_, __COUNTER__)(name)
