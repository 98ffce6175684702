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
// Each parallel_for records a "util/parallel_for" trace span, and worker
// threads are named "taamr-p<pool>-w<i>" so logs, traces and profiles can
// tell them apart.
#pragma once

#include <condition_variable>
#include <cstddef>
#include <functional>
#include <mutex>
#include <queue>
#include <thread>
#include <vector>

namespace taamr {

class ThreadPool {
 public:
  // 0 means hardware_concurrency (at least 1).
  explicit ThreadPool(std::size_t num_threads = 0);
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

  // Process-wide shared pool.
  static ThreadPool& global();

 private:
  void worker_loop();
  void enqueue(std::function<void()> task);

  std::vector<std::thread> workers_;
  std::queue<std::function<void()>> tasks_;
  std::mutex mutex_;
  std::condition_variable cv_;
  bool stop_ = false;
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
