#include "obs/trace.hpp"

#include <algorithm>
#include <cstdlib>
#include <fstream>
#include <sstream>

#include "obs/json.hpp"
#include "obs/metrics.hpp"
#include "util/thread_name.hpp"

namespace taamr::obs {

std::uint64_t monotonic_us() {
  using Clock = std::chrono::steady_clock;
  static const Clock::time_point origin = Clock::now();
  return static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::microseconds>(Clock::now() - origin)
          .count());
}

Trace& Trace::global() {
  static Trace trace;
  return trace;
}

Trace::Trace() {
  monotonic_us();  // pin the time origin to session start
  if (const char* path = std::getenv("TAAMR_TRACE")) {
    if (path[0] != '\0') enable(expand_pid_path(path));
  }
}

Trace::~Trace() {
  // Written at normal process exit. No logging: the Logger singleton may
  // already be destroyed.
  try {
    if (enabled()) write();
  } catch (...) {
  }
}

void Trace::enable(std::string path) {
  {
    std::lock_guard<std::mutex> lock(mutex_);
    path_ = std::move(path);
  }
  enabled_.store(true, std::memory_order_relaxed);
}

void Trace::disable() { enabled_.store(false, std::memory_order_relaxed); }

std::string Trace::path() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return path_;
}

void Trace::clear() {
  std::lock_guard<std::mutex> lock(mutex_);
  for (auto& buf : bufs_) {
    std::lock_guard<std::mutex> buf_lock(buf->mutex);
    buf->events.clear();
  }
}

Trace::ThreadBuf& Trace::local_buf() {
  // The shared_ptr keeps the buffer (and its events) alive in bufs_ after
  // the owning thread exits.
  thread_local std::shared_ptr<ThreadBuf> buf = [this] {
    auto b = std::make_shared<ThreadBuf>();
    b->os_tid = current_tid();
    std::lock_guard<std::mutex> lock(mutex_);
    b->tid = static_cast<int>(bufs_.size());
    bufs_.push_back(b);
    return b;
  }();
  return *buf;
}

void Trace::record(std::string name, std::uint64_t ts_us, std::uint64_t dur_us) {
  if (!enabled()) return;
  ThreadBuf& buf = local_buf();
  std::lock_guard<std::mutex> lock(buf.mutex);
  buf.events.push_back(Event{std::move(name), ts_us, dur_us});
}

std::string Trace::to_json() const {
  std::ostringstream os;
  os << "{\"displayTimeUnit\":\"ms\",\"traceEvents\":[";
  bool first = true;
  std::lock_guard<std::mutex> lock(mutex_);
  // One thread_name metadata event per named thread, so viewers label the
  // rows. Names are resolved at merge time: a worker that named itself
  // after its first event still labels correctly. The "ts":0 field is
  // redundant for "M" events but keeps every event uniform for the strict
  // trace_stats parser.
  for (const auto& buf : bufs_) {
    const std::string name = thread_name_for_tid(buf->os_tid);
    if (name.empty()) continue;
    if (!first) os << ',';
    first = false;
    os << "\n{\"name\":\"thread_name\",\"ph\":\"M\",\"ts\":0,\"pid\":1,"
       << "\"tid\":" << buf->tid << ",\"args\":{\"name\":\""
       << json::escape(name) << "\"}}";
  }
  for (const auto& buf : bufs_) {
    std::lock_guard<std::mutex> buf_lock(buf->mutex);
    for (const Event& e : buf->events) {
      if (!first) os << ',';
      first = false;
      os << "\n{\"name\":\"" << json::escape(e.name)
         << "\",\"cat\":\"taamr\",\"ph\":\"X\",\"ts\":" << e.ts_us
         << ",\"dur\":" << e.dur_us << ",\"pid\":1,\"tid\":" << buf->tid << '}';
    }
  }
  os << "\n]}\n";
  return os.str();
}

void Trace::write() {
  std::string path;
  {
    std::lock_guard<std::mutex> lock(mutex_);
    path = path_;
  }
  if (path.empty()) return;
  std::ofstream os(path);
  if (os) os << to_json();
}

}  // namespace taamr::obs
