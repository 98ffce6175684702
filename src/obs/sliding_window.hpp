// Sliding-window histogram: a ring of fixed-interval bucket sets merged on
// read, so quantiles reflect the last N seconds instead of process lifetime.
//
// The process-lifetime Histogram (obs/metrics.hpp) is the right tool for a
// bench binary that runs, dumps and exits; a long-running server needs
// "p99 over the last 30 s". Each observation lands in the ring slot for its
// time interval; a slot whose interval has rotated out of the window is
// reset lazily by the next writer that claims it. snapshot() merges every
// slot still inside the window into one immutable bucket set with the same
// interpolated-quantile semantics as Histogram (shared bucket_quantile).
//
// Concurrency: one mutex per slot, held for a handful of integer ops per
// observe and per-slot merge. Writers in different intervals never contend;
// readers only contend with writers on the slot being merged. Exercised
// under TSan by the SlidingWindow suite.
//
// Time is injectable (every entry point takes an explicit now_us and has a
// monotonic_us() default) so tests can pin window-boundary behavior exactly.
#pragma once

#include <cstdint>
#include <limits>
#include <memory>
#include <mutex>
#include <vector>

namespace taamr::obs {

class SlidingWindowHistogram {
 public:
  // Window = slots * slot_us microseconds. `bounds` as in Histogram: bucket
  // i counts observations <= bounds[i], plus one overflow bucket; empty
  // selects the default exponential seconds-scale layout.
  SlidingWindowHistogram(std::uint64_t window_us, std::size_t slots,
                         std::vector<double> bounds = {});

  void observe(double v);
  void observe(double v, std::uint64_t now_us);

  // Immutable merge of every slot still inside the window.
  struct Snapshot {
    std::vector<double> bounds;
    std::vector<std::uint64_t> buckets;  // bounds.size() + 1
    std::uint64_t count = 0;
    double sum = 0.0;
    double min = std::numeric_limits<double>::infinity();
    double max = -std::numeric_limits<double>::infinity();

    double mean() const {
      return count == 0 ? 0.0 : sum / static_cast<double>(count);
    }
    // Same estimator as Histogram::quantile; 0 when the window is empty.
    double quantile(double q) const;
  };
  Snapshot snapshot() const;
  Snapshot snapshot(std::uint64_t now_us) const;

  std::uint64_t window_us() const { return slot_us_ * num_slots_; }
  const std::vector<double>& bounds() const { return bounds_; }

 private:
  struct Slot {
    mutable std::mutex mutex;
    // Interval index this slot currently holds; kNever until first use.
    std::uint64_t interval = std::numeric_limits<std::uint64_t>::max();
    std::vector<std::uint64_t> buckets;
    std::uint64_t count = 0;
    double sum = 0.0;
    double min = std::numeric_limits<double>::infinity();
    double max = -std::numeric_limits<double>::infinity();
  };

  std::vector<double> bounds_;
  std::uint64_t slot_us_;
  std::size_t num_slots_;
  // unique_ptr array: Slot holds a mutex and cannot be vector-relocated.
  std::unique_ptr<Slot[]> slots_;
};

}  // namespace taamr::obs
