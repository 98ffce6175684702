#include "util/thread_pool.hpp"

#include <algorithm>
#include <atomic>
#include <memory>
#include <string>

#include "obs/trace.hpp"
#include "util/env.hpp"
#include "util/thread_name.hpp"

namespace taamr {

namespace {

// Which pool (if any) the current thread is a worker of. parallel_for uses
// this to run nested ranges inline instead of blocking the worker on its
// own pool's queue.
thread_local const ThreadPool* tls_worker_pool = nullptr;

// Shared state of one parallel_for launch. Heap-allocated and owned via
// shared_ptr: helper tasks may still sit in the queue after the caller has
// drained every chunk and returned, and must find live atomics to bounce
// off (they then claim past num_chunks and exit without touching body).
struct ParallelForState {
  std::size_t begin = 0;
  std::size_t end = 0;
  std::size_t chunk = 1;
  std::size_t num_chunks = 0;
  const std::function<void(std::size_t)>* body = nullptr;
  std::atomic<std::size_t> next_chunk{0};
  std::atomic<std::size_t> chunks_done{0};
  std::mutex done_mutex;
  std::condition_variable done_cv;
};

// Claims chunks until none are left. Runs on the caller and on every
// helper task; whichever thread completes the last chunk notifies.
void run_chunks(ParallelForState& st) {
  for (;;) {
    const std::size_t c = st.next_chunk.fetch_add(1, std::memory_order_relaxed);
    if (c >= st.num_chunks) return;
    const std::size_t lo = st.begin + c * st.chunk;
    const std::size_t hi = std::min(st.end, lo + st.chunk);
    for (std::size_t i = lo; i < hi; ++i) (*st.body)(i);
    if (st.chunks_done.fetch_add(1, std::memory_order_acq_rel) + 1 ==
        st.num_chunks) {
      std::lock_guard<std::mutex> lock(st.done_mutex);
      st.done_cv.notify_all();
    }
  }
}

}  // namespace

ThreadPool::ThreadPool(std::size_t num_threads, bool force_telemetry) {
  if (num_threads == 0) {
    num_threads = std::max(1u, std::thread::hardware_concurrency());
  }
  // Touch the obs singletons before spawning workers: they are constructed
  // before this pool finishes constructing, hence destroyed after it, so
  // worker threads may safely record into them right up to join().
  obs::Trace& trace = obs::Trace::global();
  (void)trace;
  // Every pool gets an id (not just telemetered ones): worker thread names
  // — "taamr-p<pool>-w<i>" — carry it into logs, traces and profiles.
  static std::atomic<int> next_pool_id{0};
  const int pool_id = next_pool_id.fetch_add(1);
  telemetry_ = force_telemetry || obs::telemetry_enabled();
  if (telemetry_) {
    const obs::Labels labels = {{"pool", std::to_string(pool_id)}};
    auto& reg = obs::MetricsRegistry::global();
    tasks_total_ = &reg.counter("thread_pool_tasks_total", labels);
    queue_depth_ = &reg.gauge("thread_pool_queue_depth", labels);
    busy_workers_ = &reg.gauge("thread_pool_busy_workers", labels);
    utilization_ = &reg.gauge("thread_pool_utilization", labels);
    pool_size_ = &reg.gauge("thread_pool_size", labels);
    task_wait_seconds_ = &reg.histogram("thread_pool_task_wait_seconds", labels);
    task_run_seconds_ = &reg.histogram("thread_pool_task_run_seconds", labels);
    chunk_size_ = &reg.histogram("parallel_for_chunk_size", labels,
                                 obs::exponential_bounds(1.0, 4.0, 12));
    pool_size_->set(static_cast<double>(num_threads));
  }
  workers_.reserve(num_threads);
  for (std::size_t i = 0; i < num_threads; ++i) {
    workers_.emplace_back([this, pool_id, i] {
      set_current_thread_name("taamr-p" + std::to_string(pool_id) + "-w" +
                              std::to_string(i));
      worker_loop();
    });
  }
}

ThreadPool::~ThreadPool() {
  {
    std::lock_guard<std::mutex> lock(mutex_);
    stop_ = true;
  }
  cv_.notify_all();
  for (auto& worker : workers_) worker.join();
}

bool ThreadPool::in_worker_thread() const { return tls_worker_pool == this; }

void ThreadPool::publish_busy_delta(int delta) {
  std::lock_guard<std::mutex> lock(gauge_mutex_);
  busy_ += delta;
  const double busy = static_cast<double>(busy_);
  busy_workers_->set(busy);
  utilization_->set(busy / static_cast<double>(workers_.size()));
}

double ThreadPool::busy_workers_value() const {
  return busy_workers_ != nullptr ? busy_workers_->value() : 0.0;
}

double ThreadPool::utilization_value() const {
  return utilization_ != nullptr ? utilization_->value() : 0.0;
}

void ThreadPool::worker_loop() {
  tls_worker_pool = this;
  for (;;) {
    Task task;
    {
      std::unique_lock<std::mutex> lock(mutex_);
      cv_.wait(lock, [this] { return stop_ || !tasks_.empty(); });
      if (stop_ && tasks_.empty()) return;
      task = std::move(tasks_.front());
      tasks_.pop();
      if (telemetry_) queue_depth_->set(static_cast<double>(tasks_.size()));
    }
    if (telemetry_) {
      const std::uint64_t start_us = obs::monotonic_us();
      task_wait_seconds_->observe(
          static_cast<double>(start_us - task.enqueue_us) * 1e-6);
      publish_busy_delta(+1);
      task.fn();
      task_run_seconds_->observe(
          static_cast<double>(obs::monotonic_us() - start_us) * 1e-6);
      tasks_total_->increment();
      publish_busy_delta(-1);
    } else {
      task.fn();
    }
  }
}

void ThreadPool::enqueue(std::function<void()> task) {
  Task t;
  t.fn = std::move(task);
  if (telemetry_) t.enqueue_us = obs::monotonic_us();
  {
    std::lock_guard<std::mutex> lock(mutex_);
    tasks_.push(std::move(t));
    if (telemetry_) queue_depth_->set(static_cast<double>(tasks_.size()));
  }
  cv_.notify_one();
}

void ThreadPool::parallel_for(std::size_t begin, std::size_t end,
                              const std::function<void(std::size_t)>& body) {
  if (begin >= end) return;
  if (in_worker_thread()) {
    // Nested launch from one of our own workers: run inline. Blocking here
    // would park the worker on done_cv while its chunks starve in the very
    // queue it is supposed to drain.
    for (std::size_t i = begin; i < end; ++i) body(i);
    return;
  }
  const std::size_t n = end - begin;
  const std::size_t max_chunks = std::min(n, (workers_.size() + 1) * 4);
  const std::size_t chunk = (n + max_chunks - 1) / max_chunks;
  if (telemetry_) chunk_size_->observe(static_cast<double>(chunk));
  TAAMR_TRACE_SPAN("util/parallel_for");

  auto st = std::make_shared<ParallelForState>();
  st->begin = begin;
  st->end = end;
  st->chunk = chunk;
  st->num_chunks = (n + chunk - 1) / chunk;
  st->body = &body;

  // One claim-loop helper per worker, capped at the chunk count. Helpers
  // are an acceleration, not a requirement: the caller claims below too.
  const std::size_t helpers = std::min(workers_.size(), st->num_chunks);
  for (std::size_t t = 0; t < helpers; ++t) {
    enqueue([st] { run_chunks(*st); });
  }

  run_chunks(*st);
  std::unique_lock<std::mutex> lock(st->done_mutex);
  st->done_cv.wait(lock, [&st] {
    return st->chunks_done.load(std::memory_order_acquire) == st->num_chunks;
  });
}

std::size_t env_thread_count() {
  const std::int64_t hardware = std::max(1u, std::thread::hardware_concurrency());
  return static_cast<std::size_t>(env::get_int("TAAMR_THREADS", hardware));
}

ThreadPool& ThreadPool::global() {
  static ThreadPool pool(env_thread_count());
  return pool;
}

void parallel_for(std::size_t begin, std::size_t end,
                  const std::function<void(std::size_t)>& body,
                  std::size_t serial_threshold) {
  if (end - begin < serial_threshold || ThreadPool::global().size() == 1) {
    for (std::size_t i = begin; i < end; ++i) body(i);
    return;
  }
  ThreadPool::global().parallel_for(begin, end, body);
}

}  // namespace taamr
