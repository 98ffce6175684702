// Fixed-size worker pool with a blocking parallel_for. Used to parallelize
// the hot loops of the CNN (im2col GEMM batches, per-image attacks) and the
// blocked GEMM row panels without taking a dependency on OpenMP.
//
// parallel_for is safe to nest and safe to issue while every worker is
// busy:
//   * The calling thread participates: chunks are claimed from a shared
//     counter, and the caller claims alongside the workers, so completion
//     never depends on a worker being free (caller-runs guarantee).
//   * A parallel_for issued from inside one of this pool's own workers
//     runs its range inline instead of blocking on the pool — blocking
//     there is how nested waits used to starve their own queued chunks and
//     deadlock the pool.
//
// When any observability knob is set (obs::telemetry_enabled()) each pool
// publishes queue-depth / busy-worker / utilization gauges, task wait/run
// latency histograms and parallel_for chunk-size histograms to the metrics
// registry under a {"pool": "<id>"} label, so GEMM/im2col/attack loops show
// up in metrics dumps without per-callsite changes. On plain runs the
// instrumentation reduces to a single branch per task.
#pragma once

#include <condition_variable>
#include <cstddef>
#include <cstdint>
#include <functional>
#include <mutex>
#include <queue>
#include <thread>
#include <vector>

#include "obs/metrics.hpp"

namespace taamr {

class ThreadPool {
 public:
  // 0 means hardware_concurrency (at least 1). force_telemetry publishes
  // the pool gauges even when no observability env knob is set (tests).
  explicit ThreadPool(std::size_t num_threads = 0, bool force_telemetry = false);
  ~ThreadPool();

  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  std::size_t size() const { return workers_.size(); }

  // Runs body(i) for i in [begin, end), blocking until all iterations are
  // done. Iterations are chunked; body must be safe to run concurrently
  // for distinct i. Exceptions in body terminate (keep bodies noexcept in
  // spirit). Safe to call from inside a body running on this pool: the
  // nested range executes inline on the calling worker.
  void parallel_for(std::size_t begin, std::size_t end,
                    const std::function<void(std::size_t)>& body);

  // True when the calling thread is one of this pool's workers.
  bool in_worker_thread() const;

  // Current values of the busy-worker / utilization gauges (0 when
  // telemetry is off). Publication is serialized, so once the pool is idle
  // these read exactly 0.
  double busy_workers_value() const;
  double utilization_value() const;

  // Process-wide shared pool.
  static ThreadPool& global();

 private:
  struct Task {
    std::function<void()> fn;
    std::uint64_t enqueue_us = 0;  // only stamped when telemetry is on
  };

  void worker_loop();
  void enqueue(std::function<void()> task);
  void publish_busy_delta(int delta);

  std::vector<std::thread> workers_;
  std::queue<Task> tasks_;
  std::mutex mutex_;
  std::condition_variable cv_;
  bool stop_ = false;

  // Telemetry (null/unused unless obs::telemetry_enabled() or forced).
  bool telemetry_ = false;
  // Serializes busy/utilization publication so the gauges always reflect
  // the post-update count; lock-free publication let two workers publish
  // out of order and stick the gauge nonzero at idle.
  std::mutex gauge_mutex_;
  std::int64_t busy_ = 0;  // guarded by gauge_mutex_
  obs::Counter* tasks_total_ = nullptr;
  obs::Gauge* queue_depth_ = nullptr;
  obs::Gauge* busy_workers_ = nullptr;
  obs::Gauge* utilization_ = nullptr;
  obs::Gauge* pool_size_ = nullptr;
  obs::Histogram* task_wait_seconds_ = nullptr;
  obs::Histogram* task_run_seconds_ = nullptr;
  obs::Histogram* chunk_size_ = nullptr;
};

// Convenience wrapper over the global pool. Falls back to serial execution
// for small ranges where task overhead would dominate.
void parallel_for(std::size_t begin, std::size_t end,
                  const std::function<void(std::size_t)>& body,
                  std::size_t serial_threshold = 2);

// Worker count the global pool uses: TAAMR_THREADS if set to a positive
// integer (util/env.hpp rules), otherwise hardware concurrency. Bench
// reports record this.
std::size_t env_thread_count();

}  // namespace taamr
