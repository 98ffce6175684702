// Process-wide metrics registry: named, labeled Counter / Gauge / Histogram
// families with lock-free (atomic) hot paths and a Prometheus text export.
//
// Usage:
//   auto& h = obs::MetricsRegistry::global().histogram(
//       "serve_stage_seconds", {{"stage", "parse"}});
//   h.observe(seconds);
//
// Registration (name + labels -> instrument) takes a mutex; the returned
// reference is stable for the registry's lifetime, so hot paths grab the
// handle once and then only touch atomics. Snapshots are weakly consistent:
// a concurrent observe() may or may not be included, but every field read
// is a whole atomic value.
//
// Every family registered here has a reader (a test, gate, tool, bench or
// the benchmark); MetricInventory in tests/test_env.cpp keeps it that way.
#pragma once

#include <atomic>
#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

namespace taamr::obs {

using Labels = std::vector<std::pair<std::string, std::string>>;

// Replaces every "%p" in `path` with the decimal process id, so concurrent
// producers (e.g. a load bench and the server it forks, both started with
// TAAMR_TRACE / TAAMR_AUDIT_LOG / TAAMR_PROFILE_OUT pointing at the same
// template) write distinct files instead of clobbering each other at exit.
// Paths without "%p" pass through unchanged. The env readers of all three
// knobs apply this at configuration time.
std::string expand_pid_path(std::string path);
std::string expand_pid_path(std::string path, long pid);  // tests

// Quantile by linear interpolation inside the bucket holding the q-th
// observation, with the tracked min/max tightening the open-ended first and
// overflow buckets (Prometheus histogram_quantile style). Shared by
// Histogram and SlidingWindowHistogram snapshots; 0 when count == 0.
double bucket_quantile(const std::vector<double>& bounds,
                       const std::vector<std::uint64_t>& buckets,
                       std::uint64_t count, double min, double max, double q);

namespace detail {
// C++20 has atomic<double>::fetch_add but libstdc++ lowers it to a CAS loop
// anyway; spelling it out keeps the semantics explicit.
inline void atomic_add(std::atomic<double>& a, double v) {
  double cur = a.load(std::memory_order_relaxed);
  while (!a.compare_exchange_weak(cur, cur + v, std::memory_order_relaxed)) {
  }
}
}  // namespace detail

// Monotonically increasing sum.
class Counter {
 public:
  void add(double v) { detail::atomic_add(value_, v); }
  void increment() { add(1.0); }
  double value() const { return value_.load(std::memory_order_relaxed); }

 private:
  std::atomic<double> value_{0.0};
};

// Last-write-wins instantaneous value, with add() for up/down tracking.
class Gauge {
 public:
  void set(double v) { value_.store(v, std::memory_order_relaxed); }
  void add(double v) { detail::atomic_add(value_, v); }
  double value() const { return value_.load(std::memory_order_relaxed); }

 private:
  std::atomic<double> value_{0.0};
};

// Upper bucket bounds start * factor^k for k in [0, count).
std::vector<double> exponential_bounds(double start, double factor, int count);

// Fixed-bucket histogram: bucket i counts observations <= bounds[i], plus
// one overflow bucket. Also tracks count/sum/min/max.
class Histogram {
 public:
  explicit Histogram(std::vector<double> bounds);

  void observe(double v);

  const std::vector<double>& bounds() const { return bounds_; }
  std::uint64_t bucket_count(std::size_t i) const {
    return buckets_[i].load(std::memory_order_relaxed);
  }
  std::uint64_t count() const { return count_.load(std::memory_order_relaxed); }
  double sum() const { return sum_.load(std::memory_order_relaxed); }
  double min() const { return min_.load(std::memory_order_relaxed); }
  double max() const { return max_.load(std::memory_order_relaxed); }
  double mean() const {
    const std::uint64_t n = count();
    return n == 0 ? 0.0 : sum() / static_cast<double>(n);
  }

  // Quantile estimate by linear interpolation inside the bucket holding the
  // q-th observation (Prometheus histogram_quantile style, but with the
  // tracked min/max tightening the first and overflow buckets). Weakly
  // consistent like every other read; 0 when empty. See DESIGN.md §5 for
  // the bucket boundaries this interpolates over.
  double quantile(double q) const;

 private:
  std::vector<double> bounds_;  // sorted, strictly increasing
  std::vector<std::atomic<std::uint64_t>> buckets_;  // bounds_.size() + 1
  std::atomic<std::uint64_t> count_{0};
  std::atomic<double> sum_{0.0};
  std::atomic<double> min_;
  std::atomic<double> max_;
};

class MetricsRegistry {
 public:
  // Process-wide registry, constructed on first use.
  static MetricsRegistry& global();

  MetricsRegistry() = default;

  MetricsRegistry(const MetricsRegistry&) = delete;
  MetricsRegistry& operator=(const MetricsRegistry&) = delete;

  Counter& counter(std::string_view name, const Labels& labels = {});
  Gauge& gauge(std::string_view name, const Labels& labels = {});
  // `bounds` is only consulted when the (name, labels) pair is first
  // created; empty selects the default exponential seconds-scale buckets.
  Histogram& histogram(std::string_view name, const Labels& labels = {},
                       std::vector<double> bounds = {});

  // Weakly consistent Prometheus-style text snapshot of every registered
  // instrument, safe to call mid-run from any thread ({"op":"metrics"} reads
  // it on live traffic): counters and gauges as single samples, histograms
  // as cumulative _bucket{le=...} series plus _sum/_count. Ends with
  // "# EOF" (OpenMetrics-style), which doubles as the framing marker for
  // the serving protocol's multi-line {"op":"metrics"} response.
  std::string to_prometheus() const;

 private:
  template <typename T>
  struct Entry {
    std::string name;
    Labels labels;
    std::unique_ptr<T> instrument;
  };

  static std::string key_of(std::string_view name, const Labels& labels);

  mutable std::mutex mutex_;
  std::map<std::string, Entry<Counter>> counters_;
  std::map<std::string, Entry<Gauge>> gauges_;
  std::map<std::string, Entry<Histogram>> histograms_;
};

}  // namespace taamr::obs
